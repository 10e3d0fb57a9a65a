"""Exception types shared across the package."""


class LsdError(Exception):
    """Base class for all errors raised by this package; ``index`` names the
    failing element of a batch, where one is known."""

    def __init__(self, message="", index=None):
        super().__init__(message)
        self.index = index


class ConfigurationError(LsdError):
    """Invalid sizes, incompatible step ladders, or violated scheme preconditions."""


class DomainError(LsdError):
    """A state or argument lies outside the mathematical domain of an operation."""


class DegenerateStateError(LsdError):
    """A state from which an operation is undefined (e.g. zero radius)."""


class StepSizeError(LsdError):
    """The current step size makes a scheme's update ill-defined; use a smaller one."""


class InversionError(LsdError):
    """A root finder failed; carries the last bracket it examined."""

    def __init__(self, message, bracket=None, index=None):
        super().__init__(message, index)
        self.bracket = bracket


class NumericError(LsdError):
    """A non-finite value appeared where a finite one is required."""


class DataError(LsdError):
    """Input data violates the assumptions of a fit or reduction."""
