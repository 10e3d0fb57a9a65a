"""Path simulation, coupled strong-error estimation, and scan experiments.

All Monte-Carlo machinery here is deterministic given (seed, configuration):
each path owns a seed stream derived from the master seed and its index, and
paths run in fixed batches whose partial sums are added in path-index order.

Simulations at several step sizes share one Brownian path per path index via
dyadic coarsening of a finest-level increment lattice, which is what turns
terminal differences into pathwise strong-error estimates.

:func:`_terminal_batch` is the one loop that steps over time.  A single
path runs through it as a batch of one, and the squared-OU comparison runs
through it as one two-driver stepper that carries the schemes riding it.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DataError, NumericError
from .models import ModelParams
from .schemes import SchemeId, make_stepper
from .wiener import (cir_effective_increment, generate_lattice,
                     halve_increments, path_seed)

# Paths per batch.  Each batch's partial sums, added in path order, set the
# rounding of every reported number, so this is part of the output; one
# batch's lattice at the reference step 2^-14 is 256 x 2^14 x 8 B = 32 MiB.
_BATCH = 256


@dataclass
class PathResult:
    """One trajectory in the original coordinate plus event counters."""

    times: np.ndarray
    values: np.ndarray
    non_real_count: int = 0
    clamp_count: int = 0
    negative_count: int = 0


@dataclass
class ErrorReport:
    """Strong errors on a step-size ladder with the fitted log-log line."""

    step_sizes: np.ndarray
    rms_errors: np.ndarray
    stderrs: np.ndarray
    slope: float
    intercept: float
    sample_count: int
    reference: SchemeId
    ref_step: float


@dataclass
class ScanCounters:
    negative_states: int = 0
    non_real_events: int = 0
    clamp_events: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"negative_states": self.negative_states,
                "non_real_events": self.non_real_events,
                "clamp_events": self.clamp_events}


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
    n = round(T / dt)
    if n < 1 or abs(n * dt - T) > 1e-9 * T:
        raise ConfigurationError(f"step {dt} does not divide the horizon {T}")
    return n


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _dyadic_plan(T: float, step_sizes: Sequence[float],
                 ref_step: Optional[float] = None):
    """Base step count, finest level, and per-dt level for one shared lattice.

    The reference step defaults to the finest step of the ladder.
    """
    if not step_sizes:
        raise ConfigurationError("step ladder is empty")
    if ref_step is None:
        ref_step = min(step_sizes)
    n_ref = _steps_for(T, ref_step)
    n_of = {}
    for dt in step_sizes:
        n = _steps_for(T, dt)
        if n_ref % n != 0 or not _is_pow2(n_ref // n):
            raise ConfigurationError(
                f"step {dt} is not a dyadic multiple of the reference step {ref_step}")
        n_of[dt] = n
    # every n_ref // n is a power of two, so the coarsest n divides each n
    base = min(n_of.values())
    levels = (n_ref // base).bit_length() - 1
    level_of = {dt: (n // base).bit_length() - 1 for dt, n in n_of.items()}
    return base, levels, level_of


def _map_batches(task, n_items: int) -> list:
    """Run ``task(range)`` on consecutive ranges of ``_BATCH`` paths, in order.

    A batch's arrays are ``task``'s locals, so only one lattice is alive.
    """
    return [task(range(s, min(s + _BATCH, n_items)))
            for s in range(0, n_items, _BATCH)]


def _batch_increments(master_seed, indices, T, base, levels, drivers=1):
    rows = [generate_lattice(path_seed(master_seed, i), T, base, levels,
                             drivers=drivers).increments
            for i in indices]
    return np.stack(rows)


# ---------------------------------------------------------------------------
# core iteration
# ---------------------------------------------------------------------------

def _count(mask) -> int:
    if mask is None:
        return 0
    return int(np.count_nonzero(mask))


def _terminal_batch(stepper, x0, dt, increments,
                    counters: Optional[ScanCounters] = None,
                    values: Optional[np.ndarray] = None,
                    paths: Optional[range] = None):
    """Advance a batch of paths to the horizon; returns x there.

    ``increments`` is ``(B, n)``, or ``(B, 2, n)`` for a two-driver stepper.
    x is what ``stepper.x_of`` returns: ``(B,)`` for a scheme, or one row of
    B per path for the squared-OU construction with its riders.  ``counters`` tallies
    events and negative x over every step; ``values[j + 1]`` gets x after
    step j.  An error is re-raised as it is, its message prefixed with the
    scheme, dt, step index and ``paths``.
    """
    state = stepper.init(x0, size=increments.shape[0])
    step, x_of = stepper.step, stepper.x_of
    record = counters is not None or values is not None
    try:
        # the transpose puts the step axis first; dw is (B,) or (2, B)
        for j, dw in enumerate(increments.T):
            state, events = step(state, dw, dt)
            if record:
                x = x_of(state)
                if values is not None:
                    values[j + 1] = x
                if counters is not None:
                    counters.non_real_events += _count(events.non_real)
                    counters.clamp_events += _count(events.clamped)
                    counters.negative_states += _count(x < 0)
    except Exception as exc:
        where = f", paths {paths[0]}..{paths[-1]}" if paths else ""
        detail = exc.args[0] if exc.args else ""
        exc.args = (f"{stepper.scheme_id}, dt={dt!r}, at step {j}{where}: "
                    f"{detail}",) + exc.args[1:]
        raise
    return x_of(state)


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
    return PathResult(times=times, values=values,
                      non_real_count=counters.non_real_events,
                      clamp_count=counters.clamp_events,
                      negative_count=counters.negative_states)


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


def strong_error(scheme: SchemeId, reference: SchemeId, params: ModelParams,
                 x0: float, T: float, step_sizes: Sequence[float],
                 ref_step: float, M: int, seed: int,
                 theta: float = 1.0) -> ErrorReport:
    """Root-mean-square terminal distance to a fine-step reference solution.

    All runs for one path index are driven by coarsenings of that path's
    lattice, so the difference at the horizon is a pathwise coupling error.
    A level whose error is not finite raises NumericError; levels with zero
    error are left out of the fit.
    """
    if M < 2:
        raise ConfigurationError(f"need at least 2 paths, got {M}")
    if scheme.model != reference.model:
        raise ConfigurationError(
            f"scheme {scheme} and reference {reference} use different models")
    dts = sorted(set(float(d) for d in step_sizes), reverse=True)
    base, levels, level_of = _dyadic_plan(T, dts, ref_step)
    run = make_stepper(scheme, params, theta=theta)
    ref = make_stepper(reference, params, theta=theta)
    if run.drivers != 1 or ref.drivers != 1:
        raise ConfigurationError("strong_error supports single-driver schemes")

    def task(indices):
        inc = _batch_increments(seed, indices, T, base, levels)
        x_ref = _terminal_batch(ref, x0, ref_step, inc, paths=indices)
        out = {}
        for dt in dts:
            inc_dt = halve_increments(inc, levels - level_of[dt])
            x_dt = _terminal_batch(run, x0, dt, inc_dt, paths=indices)
            diff_sq = (x_dt - x_ref) ** 2
            out[dt] = (float(np.sum(diff_sq)), float(np.sum(diff_sq**2)))
        return out

    partials = _map_batches(task, M)
    rms, stderr = [], []
    for dt in dts:
        sum2 = sum(p[dt][0] for p in partials)
        sum4 = sum(p[dt][1] for p in partials)
        mean_e = sum2 / M
        r = math.sqrt(mean_e)
        var_e = max(0.0, (sum4 - sum2 * sum2 / M) / (M - 1))
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
                       intercept=intercept, sample_count=M,
                       reference=reference, ref_step=ref_step)


# ---------------------------------------------------------------------------
# difference trajectories
# ---------------------------------------------------------------------------

@dataclass
class DifferenceSeries:
    dt: float
    times: np.ndarray
    diffs: np.ndarray


def difference_trajectories(scheme_a: SchemeId, scheme_b: SchemeId,
                            params: ModelParams, x0: float, T: float,
                            step_sizes: Sequence[float], seed: int,
                            theta: float = 1.0) -> List[DifferenceSeries]:
    """Pointwise difference of two schemes driven by one path per step size."""
    if scheme_a.model != scheme_b.model:
        raise ConfigurationError(
            f"schemes {scheme_a} and {scheme_b} use different models")
    series = []
    for k, dt in enumerate(step_sizes):
        n = _steps_for(T, dt)
        lattice = generate_lattice(path_seed(seed, k), T, n, 0)
        pa = simulate_path(scheme_a, params, x0, T, n, lattice.increments,
                           theta=theta)
        pb = simulate_path(scheme_b, params, x0, T, n, lattice.increments,
                           theta=theta)
        series.append(DifferenceSeries(dt=dt, times=pa.times,
                                       diffs=pa.values - pb.values))
    return series


# ---------------------------------------------------------------------------
# squared-OU reference experiment
# ---------------------------------------------------------------------------

class _SquaredOuRide:
    """The squared-OU construction with one-driver cir schemes riding it.

    A step takes the effective increment from the OU pair at the start of
    the step, then advances the pair with the ``cir:exact_ou`` stepper and
    every rider with that increment, so all paths share one realisation.
    The state is ``((x1, x2), [rider states])``; ``x_of`` stacks x1, x2, the
    squared-OU x and each rider's x along a new first axis.  A step reports
    the OU pair's events (none); the riders' events are not counted.
    """

    drivers = 2

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
        (x1, x2), ys = state
        dw_eff = cir_effective_increment(x1, x2, dw[0], dw[1])
        ou, events = self.ou.step((x1, x2), dw, dt)
        return (ou, [r.step(y, dw_eff, dt)[0]
                     for r, y in zip(self.riders, ys)]), events

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
                          seed: int, scheme: SchemeId,
                          theta: float = 1.0) -> Dict[float, float]:
    """Mean terminal distance between a scheme and the squared-OU path per dt.

    Step sizes must form a dyadic family; each path's two-driver lattice is
    generated at the finest step and coarsened, so refinements stay coupled.
    Per dt, each batch runs once through the stepping loop with the scheme
    riding the squared-OU construction.
    """
    if M < 1:
        raise ConfigurationError(f"need at least 1 path, got M={M}")
    dts = sorted(set(float(d) for d in step_sizes), reverse=True)
    base, levels, level_of = _dyadic_plan(T, dts)
    ride = _SquaredOuRide(params, m_split, [scheme], theta)

    def task(indices):
        inc = _batch_increments(seed, indices, T, base, levels, drivers=2)
        out = {}
        for dt in dts:
            inc_dt = halve_increments(inc, levels - level_of[dt])
            x = _terminal_batch(ride, x0, dt, inc_dt, paths=indices)
            out[dt] = float(np.sum(np.abs(x[3] - x[2])))
        return out

    partials = _map_batches(task, M)
    return {dt: sum(p[dt] for p in partials) / M for dt in dts}


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
    results: Dict[str, Dict[float, ScanCounters]] = {name: {} for name in steppers}
    for k, dt in enumerate(step_sizes):
        n = _steps_for(T, dt)
        dt_seed = path_seed(seed, k)
        for name in steppers:
            results[name][dt] = ScanCounters()

        def task(indices):
            inc = _batch_increments(dt_seed, indices, T, n, 0)
            for name, st in steppers.items():
                _terminal_batch(st, x0, dt, inc, counters=results[name][dt],
                                paths=indices)

        _map_batches(task, M)
    return results
