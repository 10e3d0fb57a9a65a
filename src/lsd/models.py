"""Model parameter containers, Lamperti transforms, and domain predicates.

Each parameter class stores the SDE coefficients and exposes the derived
constant-diffusion-space coefficients as read-only properties, recomputed from
their defining formulas on access.  The forward transform maps the original
state to the constant-diffusion coordinate; the inverse maps back.
"""

from dataclasses import dataclass
from typing import ClassVar, Dict, Union

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class CirParams:
    """dx = (k1 - k2 x) dt + k3 sqrt(x) dW on (0, inf)."""

    k1: float
    k2: float
    k3: float
    model: ClassVar[str] = "cir"

    def __post_init__(self):
        _require_positive(self, "k1", "k2", "k3")

    @property
    def a(self) -> float:
        return 2.0 * self.k1 / self.k3**2

    @property
    def b(self) -> float:
        return self.k2 / 2.0 + self.k3**2 / 8.0

    def forward(self, x):
        return (2.0 / self.k3) * np.sqrt(x)

    def inverse(self, z):
        return self.k3**2 * z * z / 4.0


@dataclass(frozen=True)
class CevParams:
    """dx = (k1 - k2 x) dt + k3 x**q dW on (0, inf), 1/2 < q < 1."""

    k1: float
    k2: float
    k3: float
    q: float
    model: ClassVar[str] = "cev"

    def __post_init__(self):
        _require_positive(self, "k1", "k2", "k3")
        if not 0.5 < self.q < 1.0:
            raise ValueError(f"q must lie strictly in (1/2, 1), got {self.q}")

    @property
    def a(self) -> float:
        q = self.q
        return self.k1 * self.k3 ** ((1 - 2 * q) / (1 - q)) * (1 - q) ** (-q / (1 - q))

    @property
    def b(self) -> float:
        return self.q / (2.0 - 2.0 * self.q)

    @property
    def c(self) -> float:
        return self.k2 * (1.0 - self.q)

    def forward(self, x):
        return x ** (1.0 - self.q) / (self.k3 * (1.0 - self.q))

    def inverse(self, z):
        return (self.k3 * (1.0 - self.q) * z) ** (1.0 / (1.0 - self.q))


@dataclass(frozen=True)
class WfParams:
    """dx = (k1 - k2 x) dt + k3 sqrt(x (1 - x)) dW on (0, 1).

    Requires the derived drift weights a = k1 - k3**2/4 and
    b = k2 - k1 - k3**2/4 to be positive, the standing assumption under which
    the transformed state lives in (0, pi).
    """

    k1: float
    k2: float
    k3: float
    model: ClassVar[str] = "wf"

    def __post_init__(self):
        _require_positive(self, "k1", "k2", "k3")
        if self.a <= 0 or self.b <= 0:
            raise ValueError(
                f"need k1 > k3^2/4 and k2 - k1 > k3^2/4; got a={self.a}, b={self.b}")

    @property
    def a(self) -> float:
        return self.k1 - self.k3**2 / 4.0

    @property
    def b(self) -> float:
        return self.k2 - self.k1 - self.k3**2 / 4.0

    @property
    def beta(self) -> float:
        return self.k3**2 / 2.0 - self.k2

    def forward(self, x):
        return 2.0 * np.arcsin(np.sqrt(x))

    def inverse(self, z):
        return np.sin(z / 2.0) ** 2


@dataclass(frozen=True)
class Heston32Params:
    """dx = (k1 x - k2 x^2) dt + k3 x^(3/2) dW on (0, inf)."""

    k1: float
    k2: float
    k3: float
    model: ClassVar[str] = "heston32"

    def __post_init__(self):
        _require_positive(self, "k1", "k2", "k3")

    @property
    def c_star(self) -> float:
        """Coefficient of dt inside the squared transformed updates."""
        return 4.0 * self.k2 / self.k3**2 + 6.0

    @property
    def c_impl(self) -> float:
        """Coefficient of the inverse term in the drift-implicit map."""
        return self.k2 / 2.0 + 3.0 * self.k3**2 / 8.0

    def forward(self, x):
        return (2.0 / self.k3) / np.sqrt(x)

    def inverse(self, z):
        return 4.0 / (self.k3**2 * z * z)


@dataclass(frozen=True)
class AitParams:
    """dx = (km1/x - k0 + k1 x - k2 x^r) dt + k3 x^rho dW on (0, inf)."""

    km1: float
    k0: float
    k1: float
    k2: float
    k3: float
    r: float
    rho: float
    model: ClassVar[str] = "ait"

    def __post_init__(self):
        _require_positive(self, "km1", "k0", "k1", "k2", "k3")
        if self.r <= 1:
            raise ValueError(f"r must exceed 1, got {self.r}")
        if self.rho <= 1:
            raise ValueError(f"rho must exceed 1, got {self.rho}")

    @property
    def Km1(self) -> float:
        return self.km1 * (self.rho - 1.0)

    @property
    def K0(self) -> float:
        return self.k0 * (self.rho - 1.0)

    @property
    def K1(self) -> float:
        return self.k1 * (self.rho - 1.0)

    @property
    def K2(self) -> float:
        return self.k2 * (self.rho - 1.0)

    @property
    def K3(self) -> float:
        return self.k3 * (self.rho - 1.0)

    @property
    def K4(self) -> float:
        return self.rho * (self.rho - 1.0) * self.k3**2 / 2.0

    @property
    def e1(self) -> float:
        return (self.rho + 1.0) / (self.rho - 1.0)

    @property
    def e2(self) -> float:
        return self.rho / (self.rho - 1.0)

    @property
    def e3(self) -> float:
        return (2.0 * self.rho - self.r - 1.0) / (self.rho - 1.0)

    @property
    def e4(self) -> float:
        return 2.0 / (self.rho - 1.0)

    @property
    def e5(self) -> float:
        return (self.rho - self.r) / (self.rho - 1.0)

    def forward(self, x):
        return x ** (1.0 - self.rho)

    def inverse(self, z):
        return z ** (1.0 / (1.0 - self.rho))


ModelParams = Union[CirParams, CevParams, WfParams, Heston32Params, AitParams]

PARAMS_BY_MODEL = {
    "cir": CirParams,
    "cev": CevParams,
    "wf": WfParams,
    "heston32": Heston32Params,
    "ait": AitParams,
}

def _require_positive(params, *names):
    for name in names:
        value = getattr(params, name)
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")


def _in_domain(params, x) -> bool:
    if params.model == "wf":
        return bool(np.all((x > 0) & (x < 1)))
    return bool(np.all(np.asarray(x) > 0))


def lamperti_forward(params: ModelParams, x):
    """Map an original-space state into the constant-diffusion coordinate."""
    if not _in_domain(params, x):
        raise DomainError(f"state {x!r} outside the {params.model} domain")
    return params.forward(x)


def domain_report(params: ModelParams) -> Dict[str, bool]:
    """Truth values of the model's positivity/boundedness conditions by name.

    Purely informational: schemes still run when a condition fails, which is
    exactly what the stress experiments rely on.
    """
    checks = {}
    if params.model == "cir":
        checks["feller"] = params.k3**2 <= 2.0 * params.k1
    elif params.model == "wf":
        checks["lower_boundary"] = 2.0 * params.k1 >= params.k3**2
        checks["upper_boundary"] = 2.0 * (params.k2 - params.k1) >= params.k3**2
    return checks
