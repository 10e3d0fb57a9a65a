"""Path simulation, coupled strong-error estimation, and scan experiments.

All Monte-Carlo machinery here is deterministic given (seed, configuration):
each path owns a seed stream derived from the master seed and its index, and
paths run in fixed batches whose partial sums are added in path-index order.

Simulations at several step sizes share one Brownian path per path index via
dyadic coarsening of a finest-level increment lattice, which is what turns
terminal differences into pathwise strong-error estimates.

:func:`_batches` is the one loop over paths: it draws each batch's lattice
once, time-major, for every scheme of a call and coarsens its ladder
finest-first.  :func:`_terminal_batch` is the one loop over time.  A single
path runs through it as a batch of one, and the squared-OU comparison as
one two-driver stepper carrying its riders.
:func:`simulate_paths` draws one path per step size and runs every listed
scheme on it once; the ``simulate`` and ``compare`` kinds report its paths.
"""

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DataError, NumericError
from .models import ModelParams
from .schemes import SchemeId, make_stepper
from .wiener import (cir_effective_increment, generate_lattice,
                     halve_increments, path_seed)

# Paths per batch.  It sets only the rounding of the output, as each batch's
# partial sums are added in path order.  One batch's lattice, time-major, at
# the reference step 2^-14 is 256 x 2^14 x 8 B = 32 MiB.
_BATCH = 256


@dataclass
class ScanCounters:
    negative_states: int = 0
    non_real_events: int = 0
    clamp_events: int = 0


@dataclass
class PathResult:
    """One trajectory in the original coordinate plus event counters."""

    times: np.ndarray
    values: np.ndarray
    counters: ScanCounters


@dataclass
class ErrorReport:
    """Strong errors on a step-size ladder with the fitted log-log line."""

    step_sizes: np.ndarray
    rms_errors: np.ndarray
    stderrs: np.ndarray
    slope: float
    intercept: float
    reference: SchemeId


@dataclass
class ExactCirPaths:
    """The squared-OU reference path and scheme paths on a shared grid.

    ``x1`` and ``x2`` are the OU components and ``exact`` is x1^2 + x2^2;
    ``schemes`` maps each riding scheme's variant to its path.  Every array
    has one entry per grid time.
    """

    times: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    exact: np.ndarray
    schemes: Dict[str, np.ndarray] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# grid / ladder helpers
# ---------------------------------------------------------------------------

def _steps_for(T: float, dt: float) -> int:
    """The whole number of steps dt makes over T, if one path's lattice of
    that many 8-byte increments fits in physical memory."""
    ratio = T / dt
    if not math.isfinite(ratio):
        raise ConfigurationError(
            f"step {dt} over the horizon {T} gives no finite step count")
    n = round(ratio)
    if n < 1 or abs(n * dt - T) > 1e-9 * T:
        raise ConfigurationError(f"step {dt} does not divide the horizon {T}")
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * n > memory:
        raise ConfigurationError(
            f"step {dt} over the horizon {T} gives {n:.3g} steps, whose "
            f"lattice of {8 * n:.3g} bytes exceeds physical memory "
            f"({memory:.3g} bytes)")
    return n


def _distinct(step_sizes: Sequence[float]) -> List[float]:
    """The step sizes as floats, none of them listed twice."""
    dts = [float(d) for d in step_sizes]
    if len(set(dts)) < len(dts):
        raise ConfigurationError(f"step sizes {list(step_sizes)} repeat a value")
    return dts


def _dyadic_plan(T: float, step_sizes: Sequence[float],
                 ref_step: Optional[float] = None):
    """Reference step count and, per dt, the halvings that reach it from there.

    The reference step defaults to the finest step of the ladder; every dt
    must be a power-of-two multiple of it.  Returns ``(n_ref, {dt: halvings})``.
    """
    if not step_sizes:
        raise ConfigurationError("step ladder is empty")
    if ref_step is None:
        ref_step = min(step_sizes)
    n_ref = _steps_for(T, ref_step)
    halvings = {}
    for dt in step_sizes:
        n = _steps_for(T, dt)
        ratio = n_ref // n
        if n_ref % n or ratio & (ratio - 1):
            raise ConfigurationError(
                f"step {dt} is not a dyadic multiple of the reference step {ref_step}")
        halvings[dt] = ratio.bit_length() - 1
    return n_ref, halvings


def _batches(seed, M, T, n, halvings, drivers=1):
    """Yield ``(paths, inc)`` for paths 0..M-1 in consecutive batches of ``_BATCH``.

    ``inc[0]`` holds the batch's n-step lattices, each path's draw from
    ``path_seed(seed, i)`` written into its row, and ``inc[h]`` is that
    halved h times for each h in ``halvings``.  They are time-major: step
    j's increments, ``inc[h].T[j]``, are contiguous.  Levels are coarsened
    finest-first, each from the previous one, which gives the same floats
    as halving ``inc[0]`` directly.
    The dict is emptied before the next batch is drawn, so one batch's
    arrays are alive at a time.
    """
    levels = sorted(set(halvings) - {0})
    shape = (n,) if drivers == 1 else (drivers, n)
    for start in range(0, M, _BATCH):
        paths = range(start, min(start + _BATCH, M))
        inc = {0: np.empty((*shape[::-1], len(paths))).T}
        for row, i in zip(inc[0], paths):
            row[...] = generate_lattice(path_seed(seed, i), T, n, 0,
                                        drivers=drivers).increments
        for prev, h in zip([0, *levels], levels):
            inc[h] = halve_increments(inc[prev], h - prev)
        yield paths, inc
        inc.clear()


# ---------------------------------------------------------------------------
# core iteration
# ---------------------------------------------------------------------------

def _terminal_batch(stepper, x0, dt, increments,
                    counters: Optional[ScanCounters] = None,
                    values: Optional[np.ndarray] = None,
                    paths: Optional[range] = None):
    """Advance a batch of paths to the horizon; returns x there.

    ``increments`` is ``(B, n)``, or ``(B, 2, n)`` for a two-driver stepper.
    x is what ``stepper.x_of`` returns: ``(B,)`` for a scheme, or one row of
    B per path for the squared-OU construction with its riders.  A step
    returns ``(state, mask)``; ``counters`` adds the paths each mask marks to
    the field ``stepper.event`` names, and negative x to ``negative_states``,
    over every step; ``values[j + 1]`` gets x after step j.  A non-finite x
    raises NumericError: the first one in ``values`` once the loop is done,
    else one at the horizon.  An error is re-raised as it is, its message
    prefixed with the scheme, dt, step index and ``paths``, then the path
    that failed when the error names one (a root finder's ``index`` in the
    batch).
    """
    state = stepper.init(x0, size=increments.shape[0])
    step, x_of = stepper.step, stepper.x_of
    record = counters is not None or values is not None
    event = {"non_real": "non_real_events",   # the field the masks add to
             "clamped": "clamp_events"}.get(stepper.event)
    j = 0
    try:
        # the transpose puts the step axis first; dw is (B,) or (2, B)
        for j, dw in enumerate(increments.T):
            state, mask = step(state, dw, dt)
            if record:
                x = x_of(state)
                if values is not None:
                    values[j + 1] = x
                if counters is not None:
                    if event is not None:
                        counters.__dict__[event] += int(np.count_nonzero(mask))
                    counters.negative_states += int(np.count_nonzero(x < 0))
        x = x_of(state)
        # NaN survives every row's map or makes it raise, so checking once
        # at the horizon sees it
        if values is None:
            bad, what = ~np.isfinite(x), "x is not finite at the horizon"
        else:
            bad, what = ~np.isfinite(values[1:]), "x is not finite"
        if bad.any():
            first = np.argwhere(bad)[0]   # [step, ..., path] in values[1:]
            if values is not None:
                j = int(first[0])
            raise NumericError(what, index=int(first[-1]))
    except Exception as exc:
        where = f", paths {paths[0]}..{paths[-1]}" if paths else ""
        if paths and getattr(exc, "index", None) is not None:
            where += f": path {paths[exc.index]}"
        detail = exc.args[0] if exc.args else ""
        exc.args = (f"{stepper.scheme_id}, dt={dt!r}, at step {j}{where}: "
                    f"{detail}",) + exc.args[1:]
        raise
    return x


def simulate_path(scheme: SchemeId, params: ModelParams, x0: float, T: float,
                  n: int, driver, theta: float = 1.0,
                  m_split: float = 0.5) -> PathResult:
    """Run one trajectory on the uniform grid (T, n) from given increments.

    LSD schemes iterate in the transformed coordinate starting from the
    forward transform of ``x0`` and record the inverse transform after every
    step.  The path runs through the experiments' stepping loop as a batch
    of one, so it takes the same values as inside any batch, and an error
    raised by a step is re-raised as it is, its message prefixed with the
    scheme, dt and step index.
    """
    if n < 0:
        raise ConfigurationError(f"step count must be >= 0, got {n}")
    stepper = make_stepper(scheme, params, theta=theta, m_split=m_split)
    driver = np.asarray(driver, dtype=float)
    if stepper.drivers == 2:
        if driver.ndim != 2 or driver.shape[0] != 2 or driver.shape[1] < n:
            raise ConfigurationError(
                f"scheme {scheme} needs a (2, >= {n}) driver, got {driver.shape}")
    elif driver.ndim != 1 or driver.shape[0] < n:
        raise ConfigurationError(
            f"driver must provide at least {n} increments, got {driver.shape}")
    dt = T / n if n else 0.0
    times = np.linspace(0.0, T, n + 1)
    values = np.empty(n + 1)
    values[0] = x0
    counters = ScanCounters()
    _terminal_batch(stepper, x0, dt, driver[np.newaxis, ..., :n],
                    counters=counters, values=values[:, np.newaxis])
    return PathResult(times=times, values=values, counters=counters)


def simulate_paths(schemes: Sequence[SchemeId], params: ModelParams,
                   x0: float, T: float, step_sizes: Sequence[float],
                   seed: int, theta: float = 1.0,
                   m_split: float = 0.5) -> Dict[float, List[PathResult]]:
    """One path per step size, each listed scheme run on it once.

    Step size number k draws its lattice from ``path_seed(seed, k)`` with as
    many drivers as the schemes need.  A one-driver scheme takes the first
    driver, which is the one-driver lattice bit for bit, so its path does
    not depend on the schemes beside it.  Returns ``{dt: [one PathResult
    per scheme]}`` in the order given.
    """
    if not schemes:
        raise ConfigurationError("need at least one scheme")
    _distinct(step_sizes)
    drivers = [make_stepper(s, params, m_split=m_split).drivers for s in schemes]
    results = {}
    for k, dt in enumerate(step_sizes):
        n = _steps_for(T, dt)
        inc = generate_lattice(path_seed(seed, k), T, n, 0,
                               drivers=max(drivers)).increments
        results[dt] = [simulate_path(s, params, x0, T, n,
                                     inc if d == max(drivers) else inc[0],
                                     theta=theta, m_split=m_split)
                       for s, d in zip(schemes, drivers)]
    return results


# ---------------------------------------------------------------------------
# strong error and order fitting
# ---------------------------------------------------------------------------

def fit_order(step_sizes, errors):
    """Ordinary least squares of log error against log step size."""
    dts = np.asarray(step_sizes, dtype=float)
    errs = np.asarray(errors, dtype=float)
    if dts.size != errs.size or dts.size < 2:
        raise DataError("need at least two (dt, err) points")
    if np.any(dts <= 0) or np.any(errs <= 0):
        raise DataError("order fit needs strictly positive step sizes and errors")
    x = np.log(dts)
    y = np.log(errs)
    xc = x - x.mean()
    slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    return slope, intercept


def strong_error(schemes: Sequence[SchemeId], reference: Optional[SchemeId],
                 params: ModelParams, x0: float, T: float,
                 step_sizes: Sequence[float], ref_step: float, M: int,
                 seed: int, theta: float = 1.0) -> List[ErrorReport]:
    """Root-mean-square terminal distance to a fine-step reference solution.

    One report per scheme, in order, against ``reference`` or, if that is
    None, against itself.  All runs for one path index are driven by
    coarsenings of that path's lattice, drawn once for all schemes, so the
    difference at the horizon is a pathwise coupling error.  A non-finite
    level raises NumericError; levels with zero error are left out of the fit.
    """
    if M < 2:
        raise ConfigurationError(f"need at least 2 paths, got {M}")
    refs = [s if reference is None else reference for s in schemes]
    dts = sorted(_distinct(step_sizes), reverse=True)
    n_ref, halvings = _dyadic_plan(T, dts, ref_step)
    steppers = {s: make_stepper(s, params, theta=theta)
                for s in dict.fromkeys([*refs, *schemes])}
    if any(st.drivers != 1 for st in steppers.values()):
        raise ConfigurationError("strong_error supports single-driver schemes")
    sums = [(dict.fromkeys(dts, 0.0), dict.fromkeys(dts, 0.0)) for _ in schemes]
    for paths, inc in _batches(seed, M, T, n_ref, halvings.values()):
        x_ref = {r: _terminal_batch(steppers[r], x0, ref_step, inc[0],
                                    paths=paths)
                 for r in dict.fromkeys(refs)}
        for scheme, ref, (sum2, sum4) in zip(schemes, refs, sums):
            for dt in dts:
                x_dt = _terminal_batch(steppers[scheme], x0, dt,
                                       inc[halvings[dt]], paths=paths)
                diff_sq = (x_dt - x_ref[ref]) ** 2
                sum2[dt] += float(np.sum(diff_sq))
                sum4[dt] += float(np.sum(diff_sq**2))
    return [_error_report(scheme, ref, dts, sum2, sum4, M)
            for scheme, ref, (sum2, sum4) in zip(schemes, refs, sums)]


def _error_report(scheme, reference, dts, sum2, sum4, M):
    """A report from per-dt sums of squared errors and of their squares."""
    rms, stderr = [], []
    for dt in dts:
        mean_e = sum2[dt] / M
        r = math.sqrt(mean_e)
        var_e = max(0.0, (sum4[dt] - sum2[dt] * sum2[dt] / M) / (M - 1))
        se = math.sqrt(var_e / M) / (2.0 * r) if r > 0 else 0.0
        rms.append(r)
        stderr.append(se)
    rms_arr = np.array(rms)
    bad = [dt for dt, r in zip(dts, rms) if not math.isfinite(r)]
    if bad:
        raise NumericError(
            f"{scheme} against {reference}: non-finite error at dt={bad}")
    positive = rms_arr > 0
    if np.count_nonzero(positive) >= 2:
        slope, intercept = fit_order(np.array(dts)[positive], rms_arr[positive])
    else:
        slope = intercept = float("nan")
    return ErrorReport(step_sizes=np.array(dts), rms_errors=rms_arr,
                       stderrs=np.array(stderr), slope=slope,
                       intercept=intercept, reference=reference)


# ---------------------------------------------------------------------------
# squared-OU reference experiment
# ---------------------------------------------------------------------------

class _SquaredOuRide:
    """The squared-OU construction with one-driver cir schemes riding it.

    A step takes the effective increment from the OU pair at the start of
    the step, then advances the pair with the ``cir:exact_ou`` stepper and
    every rider with that increment, so all paths share one realisation.
    The state is ``(pair, [rider states])``, the pair being the
    ``cir:exact_ou`` state (x1, x2) stacked along a first axis; ``x_of``
    stacks x1, x2, the squared-OU x and each rider's x along a new first
    axis.  A step returns no mask, as the OU pair has none; the riders'
    masks are not counted.
    """

    drivers, event = 2, None

    def __init__(self, params, m_split, riders, theta):
        for s in riders:
            if s.model != "cir" or s.variant == "exact_ou":
                raise ConfigurationError(
                    f"only one-driver square-root-model schemes can ride the "
                    f"reconstructed increments, got {s}")
        exact = SchemeId("cir", "exact_ou")
        self.ou = make_stepper(exact, params, m_split=m_split)
        self.riders = [make_stepper(s, params, theta=theta) for s in riders]
        self.scheme_id = " + ".join(str(s) for s in (exact, *riders))

    def init(self, x0, size=None):
        return (self.ou.init(x0, size=size),
                [r.init(x0, size=size) for r in self.riders])

    def step(self, state, dw, dt):
        ou, ys = state
        dw_eff = cir_effective_increment(ou[0], ou[1], dw[0], dw[1])
        return (self.ou.step(ou, dw, dt)[0],
                [r.step(y, dw_eff, dt)[0] for r, y in zip(self.riders, ys)]), None

    def x_of(self, state):
        ou, ys = state
        return np.stack([*ou, self.ou.x_of(ou),
                         *(r.x_of(y) for r, y in zip(self.riders, ys))])


def exact_cir_experiment(params: ModelParams, x0: float, m_split: float,
                         dt: float, T: float, seed: int,
                         schemes: Sequence[SchemeId], theta: float = 1.0,
                         ) -> ExactCirPaths:
    """One coupled run of the squared-OU construction against listed schemes.

    Every scheme is driven by the effective increment reconstructed from the
    two OU components at the left endpoint of each step, so all paths live
    on the same probability-space realisation.  The run is a batch of one
    through the experiments' stepping loop, which records every value; a
    scheme path starts at ``x0``, the squared-OU path at x1^2 + x2^2.
    """
    n = _steps_for(T, dt)
    ride = _SquaredOuRide(params, m_split, schemes, theta)
    lattice = generate_lattice(path_seed(seed, 0), T, n, 0, drivers=2)
    values = np.empty((n + 1, 3 + len(schemes), 1))
    values[0] = ride.x_of(ride.init(x0, size=1))
    values[0, 3:] = x0
    _terminal_batch(ride, x0, dt, lattice.increments[np.newaxis],
                    values=values)
    x1, x2, exact, *paths = values[:, :, 0].T.copy()
    return ExactCirPaths(times=np.linspace(0.0, T, n + 1), x1=x1, x2=x2,
                         exact=exact,
                         schemes={s.variant: x for s, x in zip(schemes, paths)})


def exact_cir_error_decay(params: ModelParams, x0: float, m_split: float,
                          step_sizes: Sequence[float], T: float, M: int,
                          seed: int, schemes: Sequence[SchemeId],
                          theta: float = 1.0) -> List[Dict[float, float]]:
    """Mean terminal distance between each scheme and the squared-OU path per dt.

    Returns one ``{dt: mean}`` per scheme, in order.  Step sizes must form a
    dyadic family; each path's two-driver lattice is generated at the finest
    step and coarsened, so refinements stay coupled.  Per dt, each batch
    runs once through the stepping loop with every scheme riding it.
    """
    if M < 1:
        raise ConfigurationError(f"need at least 1 path, got M={M}")
    dts = sorted(_distinct(step_sizes), reverse=True)
    n_ref, halvings = _dyadic_plan(T, dts)
    ride = _SquaredOuRide(params, m_split, schemes, theta)
    totals = [dict.fromkeys(dts, 0.0) for _ in schemes]
    for paths, inc in _batches(seed, M, T, n_ref, halvings.values(), drivers=2):
        for dt in dts:
            x = _terminal_batch(ride, x0, dt, inc[halvings[dt]], paths=paths)
            for total, x_scheme in zip(totals, x[3:]):
                total[dt] += float(np.sum(np.abs(x_scheme - x[2])))
    return [{dt: total[dt] / M for dt in dts} for total in totals]


# ---------------------------------------------------------------------------
# domain-violation scan
# ---------------------------------------------------------------------------

def domain_violation_scan(schemes: Sequence[SchemeId], params: ModelParams,
                          step_sizes: Sequence[float], T: float, M: int,
                          seed: int, x0: float = 4.0, theta: float = 1.0,
                          ) -> Dict[str, Dict[float, ScanCounters]]:
    """Tally negative, non-real, and clamped states per scheme and step size.

    The same Brownian paths drive every scheme at a given step size, so the
    counters compare schemes like-for-like.
    """
    if M < 1:
        raise ConfigurationError(f"need at least 1 path, got M={M}")
    steppers = {str(s): make_stepper(s, params, theta=theta) for s in schemes}
    if any(st.drivers != 1 for st in steppers.values()):
        raise ConfigurationError("scan supports single-driver schemes only")
    _distinct(step_sizes)
    results = {name: {dt: ScanCounters() for dt in step_sizes} for name in steppers}
    for k, dt in enumerate(step_sizes):
        n = _steps_for(T, dt)
        for paths, inc in _batches(path_seed(seed, k), M, T, n, ()):
            for name, st in steppers.items():
                _terminal_batch(st, x0, dt, inc[0], counters=results[name][dt],
                                paths=paths)
    return results
