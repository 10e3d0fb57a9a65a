"""The scheme table and the steppers the path engine iterates.

The one-step maps live in the per-model modules (:mod:`cir`, :mod:`cev`,
:mod:`wf`, :mod:`heston`, :mod:`ait`) and are pure functions of per-path
arrays (a lone state is a 0-d array).  :data:`SCHEMES` holds one row per
(model, variant) with what the engine needs to run it; :func:`make_stepper`
builds its stepper.  A name selects exactly one computation.  The rows named
``implicit_printed`` run a drift-implicit map as printed in its source, whose
drift does not match the SDE; the plain ``implicit`` rows run the consistent
form.
"""

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from ..errors import ConfigurationError
from ..models import ModelParams, lamperti_forward
from . import ait, cev, cir, heston, wf


@dataclass(frozen=True)
class Scheme:
    """One row of :data:`SCHEMES`.

    ``step(p, state, dw, dt)`` advances the iterated coordinate (``theta``
    rows take theta fifth).  ``to_state(p, x)`` and ``to_x(p, state)`` map
    x to it and back; they are unset where it is the Lamperti coordinate.
    ``mask``: the step returns ``(state, mask)`` with a ``"non_real"`` mask
    (the state is complex and may leave the real line; x is its real part)
    or a ``"clamped"`` one, or, if unset, the state alone.  ``per_path`` rows
    solve one path at a time on floats; ``check(p)`` is a precondition;
    ``drivers = 2`` marks the squared-OU row, run by :class:`ExactOuStepper`.
    """

    step: Callable
    to_state: Optional[Callable] = None
    to_x: Optional[Callable] = None
    mask: Optional[str] = None
    per_path: bool = False
    theta: bool = False
    check: Optional[Callable] = None
    drivers: int = 1


# The maps of the rows that iterate x itself.
_IN_X = dict(to_state=lambda p, x: x, to_x=lambda p, x: x)

SCHEMES = {
    ("cir", "lsd1"): Scheme(cir.lsd1_step),
    ("cir", "lsd2"): Scheme(cir.lsd2_step),
    ("cir", "lsd3"): Scheme(cir.lsd3_step),
    ("cir", "sd_theta"): Scheme(cir.sd_theta_step, **_IN_X, mask="non_real", theta=True),
    ("cir", "alf"): Scheme(cir.alf_step, **_IN_X, mask="non_real"),
    ("cir", "ns"): Scheme(cir.ns_step, to_state=lambda p, x: np.sqrt(x),
                          to_x=lambda p, v: v * v, mask="non_real"),
    ("cir", "exact_ou"): Scheme(cir.exact_ou_step, drivers=2),
    ("cev", "lsd1"): Scheme(cev.lsd1_step),
    ("cev", "lsd2"): Scheme(cev.lsd2_step),
    ("cev", "lsd3"): Scheme(cev.lsd3_step),
    ("cev", "sd_theta"): Scheme(cev.sd_theta_step, **_IN_X, mask="non_real", theta=True),
    ("cev", "implicit"): Scheme(
        cev.implicit_step, to_state=lambda p, x: x ** (1.0 - p.q),
        to_x=lambda p, u: u ** (1.0 / (1.0 - p.q)), per_path=True),
    ("wf", "lsd1"): Scheme(wf.lsd1_step, mask="clamped"),
    ("wf", "lsd2"): Scheme(wf.lsd2_step, mask="clamped"),
    ("wf", "lsd3"): Scheme(wf.lsd3_step, mask="clamped"),
    ("wf", "lsd4"): Scheme(wf.lsd4_step, mask="clamped"),
    ("wf", "sd"): Scheme(wf.sd_step, **_IN_X, mask="clamped"),
    ("wf", "sd_alt"): Scheme(wf.sd_alt_step, **_IN_X, mask="clamped"),
    ("wf", "biss"): Scheme(wf.biss_step, **_IN_X, mask="clamped"),
    ("wf", "hyb"): Scheme(wf.hyb_step, **_IN_X, check=wf.check_hyb_admissible),
    ("wf", "implicit"): Scheme(
        partial(wf.implicit_step, sign_mode="corrected"), per_path=True),
    ("wf", "implicit_printed"): Scheme(
        partial(wf.implicit_step, sign_mode="printed"), per_path=True),
    ("heston32", "lsd1"): Scheme(heston.lsd1_step),
    ("heston32", "lsd2"): Scheme(heston.lsd2_step),
    ("heston32", "sd_exp"): Scheme(heston.sd_exp_step, **_IN_X),
    ("heston32", "implicit"): Scheme(
        heston.implicit_step, to_state=lambda p, x: x ** -0.5,
        to_x=lambda p, v: v ** -2.0),
    ("ait", "lsd1"): Scheme(ait.lsd1_step),
    ("ait", "lsd2"): Scheme(ait.lsd2_step),
    ("ait", "implicit"): Scheme(
        partial(ait.implicit_step, variant="drift"), per_path=True),
    ("ait", "implicit_printed"): Scheme(
        partial(ait.implicit_step, variant="printed"), per_path=True),
}

VARIANTS = {model: tuple(v for m, v in SCHEMES if m == model)
            for model, _ in SCHEMES}


@dataclass(frozen=True)
class SchemeId:
    """A (model, variant) pair naming one row of :data:`SCHEMES`."""

    model: str
    variant: str

    def __post_init__(self):
        if self.model not in VARIANTS:
            raise ConfigurationError(f"unknown model {self.model!r}")
        if self.variant not in VARIANTS[self.model]:
            raise ConfigurationError(
                f"unknown variant {self.variant!r} for model {self.model!r}; "
                f"expected one of {VARIANTS[self.model]}")

    def __str__(self) -> str:
        return f"{self.model}:{self.variant}"


@dataclass
class StepEvents:
    non_real: Any = None   # bool or boolean mask, None when impossible
    clamped: Any = None


_NO_EVENTS = StepEvents()


def _broadcast(value, size):
    if size is None:
        return np.asarray(value, float)
    return np.full(size, value, dtype=float)


class Stepper:
    """Advances one single-driver scheme; built by :func:`make_stepper`."""

    drivers = 1

    def __init__(self, scheme: Scheme, params: ModelParams, theta: float):
        self.scheme = scheme
        self.params = params
        self.extra = (theta,) if scheme.theta else ()

    def init(self, x0, size=None):
        """The state at x0 as an array shaped like x0, or ``size`` copies."""
        state = lamperti_forward(self.params, x0)   # checks the domain too
        if self.scheme.to_state is not None:
            state = self.scheme.to_state(self.params, x0)
        return _broadcast(state, size)

    def step(self, state, dw, dt):
        s, p = self.scheme, self.params
        if s.per_path:
            shape = np.shape(state)
            dws = np.broadcast_to(dw, shape).ravel()
            out = [s.step(p, float(y), float(w), dt)
                   for y, w in zip(np.ravel(state), dws)]
            return np.reshape(out, shape), _NO_EVENTS
        out = s.step(p, state, dw, dt, *self.extra)
        if s.mask is None:
            return out, _NO_EVENTS
        value, mask = out
        if s.mask == "non_real":
            return value, StepEvents(non_real=mask)
        return value, StepEvents(clamped=mask)

    def x_of(self, state):
        if self.scheme.to_x is None:
            return self.params.inverse(state)
        x = self.scheme.to_x(self.params, state)
        return np.real(x) if self.scheme.mask == "non_real" else x


class ExactOuStepper:
    """Squared-OU reference construction; needs two drivers per step."""

    drivers = 2

    def __init__(self, params, m_split=0.5):
        cir.check_exact_ou_dimension(params)
        if not 0.0 < m_split < 1.0:
            raise ConfigurationError(f"split weight must lie in (0,1), got {m_split}")
        self.params = params
        self.m_split = m_split

    def init(self, x0, size=None):
        x1 = np.sqrt(self.m_split * x0)
        x2 = np.sqrt((1.0 - self.m_split) * x0)
        return _broadcast(x1, size), _broadcast(x2, size)

    def step(self, state, dw, dt):
        dw1, dw2 = dw
        x1, x2 = state
        return cir.exact_ou_step(self.params, x1, x2, dw1, dw2, dt), _NO_EVENTS

    def x_of(self, state):
        x1, x2 = state
        return x1 * x1 + x2 * x2


def make_stepper(scheme: SchemeId, params: ModelParams, theta: float = 1.0,
                 m_split: float = 0.5):
    """Build the stepper for one scheme from its row in :data:`SCHEMES`.

    Checks the row's precondition (the splitting scheme's admissibility,
    the squared-OU dimension).  ``theta`` reaches only the rows that take
    it; ``m_split`` sets the initial split of the squared-OU construction.
    A stepper has ``scheme_id``, ``drivers``, ``init(x0, size=None)``,
    ``step(state, dw, dt) -> (state, events)`` and ``x_of(state)``.
    """
    if params.model != scheme.model:
        raise ConfigurationError(
            f"params are for {params.model!r} but scheme is {scheme}")
    row = SCHEMES[scheme.model, scheme.variant]
    if row.check is not None:
        row.check(params)
    stepper = (ExactOuStepper(params, m_split=m_split) if row.drivers == 2
               else Stepper(row, params, theta))
    stepper.scheme_id = scheme
    return stepper
