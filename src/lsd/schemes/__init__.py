"""The scheme table and the stepper the path engine iterates.

The one-step maps live in the per-model modules (:mod:`cir`, :mod:`cev`,
:mod:`wf`, :mod:`heston`, :mod:`ait`) and are pure functions of per-path
arrays (a lone state is a 0-d array).  :data:`SCHEMES` holds one row per
(model, variant) with what the engine needs to run it, and is the only
description of a row: :func:`make_stepper` builds one :class:`Stepper` for
every row, the squared-OU pair included, which binds the row's map once per
dt; a row that runs CIR's LSD maps binds its own (a, b), and cev's LSD
rows bind (a, b, c, q).  Each bind folds its per-dt constants once into
0-d float64 arrays, which the map then applies in the order its formula
states: a folded product or sum is one the formula evaluates as a unit, so
no float moves.  numpy 2 promotes a Python float operand as a weak scalar
on every ufunc call; a 0-d array operand gives the same float64 or
complex128 result at less cost per call.  A step returns
``(state, mask)``: the map's own pair for a row that declares a ``mask``
kind, which the stepper's ``event`` names, and ``(state, None)`` for the
others.  A name selects exactly one computation.
The rows named ``implicit_printed`` run a drift-implicit map as printed in
its source, whose drift does not match the SDE; the plain ``implicit`` rows
run the consistent form.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from ..errors import ConfigurationError
from ..models import ModelParams, lamperti_forward
from . import ait, cev, cir, heston, wf


@dataclass(frozen=True)
class Scheme:
    """One row of :data:`SCHEMES`.

    Its one required field, ``bind(p, dt)``, folds the per-dt constants and
    returns ``map(state, dw)``, which advances the iterated coordinate;
    ``theta`` rows' ``bind`` also takes ``theta``.
    ``to_state(p, x)`` and ``to_x(p, state)`` map x to it and back; they
    are unset where it is the Lamperti coordinate.
    ``mask``: the map returns ``(state, mask)`` with a ``"non_real"`` mask
    (the state is complex and may leave the real line; x is its real part)
    or a ``"clamped"`` one, or, if unset, the state alone.  Maps take arrays
    of paths.  ``check(p)`` is a precondition; ``drivers = 2`` marks the
    squared-OU row, whose state and dw stack a pair along a first axis and
    whose ``to_state`` also takes the split weight ``m_split``.
    """

    bind: Callable
    to_state: Optional[Callable] = None
    to_x: Optional[Callable] = None
    mask: Optional[str] = None
    theta: bool = False
    check: Optional[Callable] = None
    drivers: int = 1


def _identity(p, x):
    return x


# The maps of the rows that iterate x itself.
_IN_X = dict(to_state=_identity, to_x=_identity)

SCHEMES = {
    ("cir", "lsd1"): Scheme(bind=lambda p, dt: cir.lsd1_bind(p.a, p.b, dt)),
    ("cir", "lsd2"): Scheme(bind=lambda p, dt: cir.lsd2_bind(p.a, p.b, dt)),
    ("cir", "lsd3"): Scheme(bind=lambda p, dt: cir.lsd3_bind(p.a, p.b, dt)),
    ("cir", "sd_theta"): Scheme(bind=cir.sd_theta_bind, **_IN_X, mask="non_real",
                                theta=True),
    ("cir", "alf"): Scheme(bind=cir.alf_bind, **_IN_X, mask="non_real"),
    ("cir", "ns"): Scheme(bind=cir.ns_bind, to_state=lambda p, x: np.sqrt(x),
                          to_x=lambda p, v: v * v, mask="non_real"),
    ("cir", "exact_ou"): Scheme(
        bind=cir.exact_ou_bind, drivers=2, check=cir.check_exact_ou_dimension,
        to_state=lambda p, x, m_split: np.sqrt([m_split * x, (1.0 - m_split) * x]),
        to_x=lambda p, x: x[0] * x[0] + x[1] * x[1]),
    ("cev", "lsd1"): Scheme(bind=lambda p, dt: cev.lsd1_bind(p.a, p.b, p.c, p.q, dt)),
    ("cev", "lsd2"): Scheme(bind=lambda p, dt: cev.lsd2_bind(p.a, p.b, p.c, p.q, dt)),
    ("cev", "lsd3"): Scheme(bind=lambda p, dt: cev.lsd3_bind(p.a, p.b, p.c, p.q, dt)),
    ("cev", "sd_theta"): Scheme(cev.sd_theta_bind, **_IN_X, mask="non_real", theta=True),
    ("cev", "implicit"): Scheme(
        bind=cev.implicit_bind, to_state=lambda p, x: x ** (1.0 - p.q),
        to_x=lambda p, u: u ** (1.0 / (1.0 - p.q))),
    ("wf", "lsd1"): Scheme(wf.lsd1_bind, mask="clamped"),
    ("wf", "lsd2"): Scheme(wf.lsd2_bind, mask="clamped"),
    ("wf", "lsd3"): Scheme(wf.lsd3_bind, mask="clamped"),
    ("wf", "lsd4"): Scheme(wf.lsd4_bind, mask="clamped"),
    ("wf", "sd"): Scheme(wf.sd_bind, **_IN_X, mask="clamped"),
    ("wf", "sd_alt"): Scheme(wf.sd_alt_bind, **_IN_X, mask="clamped"),
    ("wf", "biss"): Scheme(wf.biss_bind, **_IN_X, mask="clamped"),
    ("wf", "hyb"): Scheme(wf.hyb_bind, **_IN_X),
    ("wf", "implicit"): Scheme(bind=partial(wf.implicit_bind, sign_mode="corrected")),
    ("wf", "implicit_printed"): Scheme(bind=partial(wf.implicit_bind, sign_mode="printed")),
    ("heston32", "lsd1"): Scheme(
        bind=lambda p, dt: cir.lsd1_bind(0.5 * p.c_star, 0.5 * p.k1, dt)),
    ("heston32", "lsd2"): Scheme(
        bind=lambda p, dt: cir.lsd2_bind(0.5 * p.c_star, 0.5 * p.k1, dt)),
    ("heston32", "sd_exp"): Scheme(heston.sd_exp_bind, **_IN_X),
    ("heston32", "implicit"): Scheme(
        heston.implicit_bind, to_state=lambda p, x: x ** -0.5,
        to_x=lambda p, v: v ** -2.0),
    ("ait", "lsd1"): Scheme(ait.lsd1_bind),
    ("ait", "lsd2"): Scheme(ait.lsd2_bind),
    ("ait", "implicit"): Scheme(bind=partial(ait.implicit_bind, variant="drift")),
    ("ait", "implicit_printed"): Scheme(bind=partial(ait.implicit_bind, variant="printed"),
                                       check=ait.check_printed_bracket),
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


class Stepper:
    """Advances one scheme; built by :func:`make_stepper`.

    Every row gives its map one way, through ``bind``; the stepper binds
    it again only when a step's dt changes.
    """

    _dt = _map = None

    def __init__(self, scheme_id: SchemeId, row: Scheme, params: ModelParams,
                 theta: float, m_split: float):
        self.scheme_id, self.scheme, self.params = scheme_id, row, params
        self.drivers, self.event = row.drivers, row.mask
        self._to_state = (partial(row.to_state, m_split=m_split)
                          if row.drivers == 2 else row.to_state)
        self._bind = partial(row.bind, theta=theta) if row.theta else row.bind

    def init(self, x0, size=None):
        """The state at x0 as an array shaped like x0, or ``size`` copies."""
        state = lamperti_forward(self.params, x0)   # checks the domain too
        if self._to_state is not None:
            state = self._to_state(self.params, x0)
        state = np.asarray(state, float)
        return state if size is None else np.repeat(state[..., np.newaxis], size, -1)

    def step(self, state, dw, dt):
        if dt != self._dt:
            self._dt, self._map = dt, self._bind(self.params, dt)
        out = self._map(state, dw)
        return out if self.event else (out, None)

    def x_of(self, state):
        if self.scheme.to_x is None:
            return self.params.inverse(state)
        x = self.scheme.to_x(self.params, state)
        return np.real(x) if self.event == "non_real" else x


def make_stepper(scheme: SchemeId, params: ModelParams, theta: float = 1.0,
                 m_split: float = 0.5):
    """Build the stepper for one scheme from its row in :data:`SCHEMES`.

    Checks the row's precondition (the squared-OU dimension, or the sign
    bracket of the printed ait map).  ``theta``, which must lie in [0, 1],
    reaches only the rows that take it; ``m_split`` only the squared-OU
    row, whose initial split it sets.
    A stepper has ``scheme_id``, ``drivers``, ``event`` (the row's ``mask``
    kind, or None), ``init(x0, size=None)``, ``step(state, dw, dt) ->
    (state, mask)`` and ``x_of(state)``.
    """
    if params.model != scheme.model:
        raise ConfigurationError(
            f"params are for {params.model!r} but scheme is {scheme}")
    row = SCHEMES[scheme.model, scheme.variant]
    if row.check is not None:
        row.check(params)
    if row.theta and not 0.0 <= theta <= 1.0:
        raise ConfigurationError(f"theta must lie in [0, 1], got {theta}")
    if row.drivers == 2 and not 0.0 < m_split < 1.0:
        raise ConfigurationError(f"split weight must lie in (0,1), got {m_split}")
    return Stepper(scheme, row, params, theta, m_split)
