"""Path simulation, coupled strong-error estimation, and scan experiments.

All Monte-Carlo machinery here is deterministic given (seed, configuration):
each path owns a seed stream derived from the master seed and its index, and
every sum over paths is taken in fixed slices of ``_BATCH`` paths whose
partial sums are added in path-index order.

Simulations at several step sizes share one Brownian path per path index via
dyadic coarsening of a finest-level increment lattice, which is what turns
terminal differences into pathwise strong-error estimates.

:func:`_blocks` is the one loop over paths: it draws a block's lattice once,
time-major, for every scheme of a call, in time chunks when the lattice is
long and for more paths when it is short, and coarsens each chunk's ladder
finest-first.  Each (path, driver) draws from its own generator, so a
lattice of any driver count is cut into time chunks by one rule, and
:func:`block_plan` reports the blocks a run takes.
:func:`_terminal_blocks` advances every run of a call over each chunk in
turn and returns x at the horizon.  :func:`_terminal_batch` is
the one loop over time.  A run that records x or counts events
(``simulate``, ``compare``, ``exact-cir``'s path and ``scan``) takes x and
tallies the counts once per block of at most ``_TALLY`` = 128 steps, so per
buffer it holds at most 128 x B states or masks for B paths; the other runs
do nothing but step.  A single path runs through it as a batch of one, and
the squared-OU comparison as one two-driver stepper carrying its riders.
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

# Paths per slice of a sum over paths.  It sets only the rounding of the
# output, as each slice's partial sums are added in path order.  Every block
# but the last is a power-of-two multiple of _BATCH wide (see _blocks).
_BATCH = 256
# Least increments per path, counted over all drivers, in a time chunk of a
# long lattice; a block of a shorter lattice holds at least _BATCH x _CHUNK
# increments per driver (see _block).
_CHUNK = 1024
# Most steps whose states a recorded run holds before it takes their x and
# counts their events (see _terminal_batch).
_TALLY = 128
# Most increments (1 MiB, but at least one path) that one generate_lattice
# call draws row-major before one copy puts them into a block's time-major
# chunk: a wide tile writes each step's paths in long, cache-sized runs.
_TILE = 1 << 17


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
    """Strong errors on a step-size ladder with the fitted log-log line.

    ``dropped_from_fit`` lists the step sizes whose zero error the fit left out.
    """

    step_sizes: np.ndarray
    rms_errors: np.ndarray
    stderrs: np.ndarray
    slope: float
    intercept: float
    reference: SchemeId
    dropped_from_fit: List[float]


@dataclass
class ExactCirPaths:
    """The squared-OU reference path and scheme paths on a shared grid.

    ``x1`` and ``x2`` are the OU components and ``exact`` is x1^2 + x2^2;
    ``schemes`` lists one path per riding scheme, in the order the schemes
    were given.  Every array has one entry per grid time.
    """

    times: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    exact: np.ndarray
    schemes: List[np.ndarray] = field(default_factory=list)


# ---------------------------------------------------------------------------
# grid / ladder helpers
# ---------------------------------------------------------------------------

def _steps_for(T: float, dt: float, rows: float = 1) -> int:
    """The whole number of steps dt makes over T, if ``rows`` lattices of
    that many 8-byte increments fit in physical memory together."""
    ratio = T / dt
    if not math.isfinite(ratio):
        raise ConfigurationError(
            f"step {dt} over the horizon {T} gives no finite step count")
    n = round(ratio)
    if n < 1 or abs(n * dt - T) > 1e-9 * T:
        raise ConfigurationError(f"step {dt} does not divide the horizon {T}")
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * rows * n > memory:
        raise ConfigurationError(
            f"step {dt} over the horizon {T} gives {n:.3g} steps, whose "
            f"lattice of {8 * rows * n:.3g} bytes exceeds physical memory "
            f"({memory:.3g} bytes)")
    return n


def _distinct(step_sizes: Sequence[float]) -> List[float]:
    """The step sizes as floats, none of them listed twice."""
    dts = [float(d) for d in step_sizes]
    if len(set(dts)) < len(dts):
        raise ConfigurationError(f"step sizes {list(step_sizes)} repeat a value")
    return dts


def _block(M: int, n: int, halvings, drivers: int):
    """``(width, j, tile)`` of the blocks of :func:`_blocks` for M paths of
    n steps, ``halvings`` being the levels of the ladder: each block is
    ``width`` paths, drawn in 2^j time chunks of n >> j steps, ``tile``
    paths of one driver per draw call."""
    top = max(halvings, default=0)
    j = 0
    while n % (2 << (j + top)) == 0 and drivers * (n >> (j + 1)) >= _CHUNK:
        j += 1
    rows = _BATCH
    while rows * n < _BATCH * _CHUNK:
        rows <<= 1
    width = min(M, rows << j)
    return width, j, min(width, max(1, _TILE // (n >> j)))


def _dyadic_plan(T: float, step_sizes: Sequence[float], M: int,
                 drivers: int = 1, ref_step: Optional[float] = None):
    """Reference step count and, per dt, the halvings that reach it from there.

    The reference step defaults to the finest step of the ladder; every dt
    must be a power-of-two multiple of it.  The widest block of
    :func:`_blocks` must fit in memory: every driver's chunk at each level
    of the ladder, or every driver's finest chunk and the draw tile that
    fills one of them, whichever is larger.  The buffer through which driver
    d's generator discards the d·n normals of the drivers before it is
    freed before the first chunk is drawn and is no larger than a draw
    tile, so the second count covers it.
    Returns ``(n_ref, {dt: halvings})``.
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
    levels = sum(0.5**h for h in {0, *halvings.values()})
    width, j, tile = _block(M, n_ref, halvings.values(), drivers)
    chunks = drivers * width
    _steps_for(T, ref_step, max(chunks * levels, chunks + tile) / (1 << j))
    return n_ref, halvings


def block_plan(T: float, step_sizes: Sequence[float], M: int,
               drivers: int = 1, ref_step: Optional[float] = None
               ) -> Dict[str, int]:
    """The blocks a run of M paths over the dyadic ladder ``step_sizes``
    takes, after the memory check of :func:`_dyadic_plan`: the paths of the
    widest block, its time chunks, the steps of a chunk at the reference
    step and the paths of one driver per draw call."""
    n, halvings = _dyadic_plan(T, step_sizes, M, drivers, ref_step)
    width, j, tile = _block(M, n, halvings.values(), drivers)
    return {"block_width": width, "chunks_per_block": 1 << j,
            "steps_per_chunk": n >> j, "paths_per_draw": tile}


def _blocks(seed, M, T, n, halvings, drivers=1):
    """Yield ``(paths, chunks)`` for paths 0..M-1 in consecutive blocks.

    :func:`_block` gives the width, j and the paths per draw call.  A
    block's lattice is drawn in 2^j time chunks of C = n >> j steps, j the
    largest that leaves C times the driver count at least ``_CHUNK``
    increments and every level of ``halvings`` a whole number of steps per
    chunk.  A block is ``_BATCH`` paths of n steps, doubled while that is
    fewer than ``_BATCH`` x ``_CHUNK`` increments (so a lattice too short
    to chunk is widened instead), times 2^j, or M paths if fewer.  Every
    block but the last is a multiple of ``_BATCH`` wide, so
    :func:`_slice_sums` adds the same slices.
    ``chunks`` yields ``(offset, inc)`` per chunk in time order, ``offset``
    being its first step.  ``inc[0]`` holds the block's C-step increments,
    ``(paths, C)`` for one driver and ``(paths, drivers, C)`` for more, and
    the chunks of path i join into
    ``generate_lattice(path_seed(seed, i), T, n, 0, drivers)`` bit for bit
    (see :func:`_chunks`).  ``inc[h]`` is that halved h times for each h in
    ``halvings``.  They are time-major: step t's increments,
    ``inc[h].T[t]``, are contiguous.  Levels are coarsened finest-first,
    each from the previous one, which gives the same floats as halving
    ``inc[0]`` directly.  The dict is emptied before the next chunk is
    drawn, so one chunk's arrays are alive at a time.
    """
    levels = sorted(set(halvings) - {0})
    width, j, tile = _block(M, n, halvings, drivers)
    for start in range(0, M, width):
        paths = range(start, min(start + width, M))
        yield paths, _chunks(seed, paths, T, n, j, levels, drivers, tile)


def _chunks(seed, paths, T, n, j, levels, drivers, tile):
    """The 2^j time chunks of one block of :func:`_blocks`.

    Path i's stream is ``default_rng(path_seed(seed, i))``, whose normals
    d·n .. (d + 1)·n - 1 are driver d's increments.  Each (path, driver)
    draws from its own generator, a fresh one of the path's stream that
    discards the d·n normals of the drivers before it ahead of the first
    chunk, so δ drivers discard δ(δ - 1)/2·n per path: they are drawn into
    one reused buffer no larger than a draw tile, one call per buffer's
    worth.  Each chunk fills one driver's lane ``tile`` paths per
    :func:`generate_lattice` call, whose row-major tile one assignment
    copies into the time-major chunk; each generator runs on from chunk to
    chunk.
    """
    c, horizon = n >> j, T / (1 << j)
    seeds = [path_seed(seed, i) for i in paths]
    lanes = [[np.random.default_rng(s) for s in seeds] for _ in range(drivers)]
    skip = np.empty(min(n, tile * c))
    for d, lane in enumerate(lanes):
        for rng in lane:
            for done in range(0, d * n, skip.size):
                rng.standard_normal(out=skip[:d * n - done])
    del skip
    for k in range(1 << j):
        inc = {0: np.empty((c, drivers, len(paths))).T}
        for d, lane in enumerate(lanes):
            for g in range(0, len(paths), tile):
                inc[0][g:g + tile, d] = generate_lattice(
                    lane[g:g + tile], horizon, c, 0).increments
        if drivers == 1:
            inc[0] = inc[0][:, 0]
        for prev, h in zip([0, *levels], levels):
            inc[h] = halve_increments(inc[prev], h - prev)
        yield k * c, inc
        inc.clear()


# ---------------------------------------------------------------------------
# core iteration
# ---------------------------------------------------------------------------

def _locate(exc, stepper, dt, j, paths):
    """Prefix ``exc``'s message with the scheme, dt, step index j and
    ``paths``, then the path that failed when the error names one (its
    ``index`` in the batch)."""
    where = f", paths {paths[0]}..{paths[-1]}" if paths else ""
    if paths and getattr(exc, "index", None) is not None:
        where += f": path {paths[exc.index]}"
    detail = exc.args[0] if exc.args else ""
    exc.args = (f"{stepper.scheme_id}, dt={dt!r}, at step {j}{where}: "
                f"{detail}",) + exc.args[1:]


def _stack(states):
    """The states of consecutive steps stacked along a step axis just before
    the path axis, so that a pair keeps its first axis; a nested state (the
    squared-OU construction's) is stacked part by part.  One ``np.array``
    over the list and a moved axis give ``np.stack(states, axis=-2)``'s
    array at a fraction of its cost per call."""
    if isinstance(states[0], (tuple, list)):
        return [_stack(part) for part in zip(*states)]
    return np.moveaxis(np.array(states), 0, -2)


def _terminal_batch(stepper, state, dt, increments, offset=0,
                    counters: Optional[ScanCounters] = None,
                    values: Optional[np.ndarray] = None,
                    paths: Optional[range] = None):
    """Advance a batch of paths from ``state`` over ``increments``; returns
    the state after the last step.

    ``increments`` is ``(B, n)``, or ``(B, 2, n)`` for a two-driver stepper,
    and its first step is step ``offset`` of the path.  x is what
    ``stepper.x_of`` returns: ``(B,)`` for a scheme, or one row of B per
    path for the squared-OU construction with its riders.  A step returns
    ``(state, mask)``.  Without ``counters`` and ``values`` a step does
    nothing else.  With either, the run keeps the states and masks of a
    block of at most ``_TALLY`` steps, at most ``_TALLY`` x B of each, and
    once per block takes x of them all, stacked along a step axis next to
    the path axis: ``counters`` adds the paths each mask marks to the field
    ``stepper.event`` names, and negative x to ``negative_states``;
    ``values[j + 1]`` gets x after step j, and a non-finite one raises
    NumericError once the loop is done.  An error is re-raised as it is,
    named by :func:`_locate` with the path's step index, once the steps
    before it are tallied.
    """
    step = stepper.step
    steps = increments.T   # the step axis first; dw is (B,) or (2, B)
    j = 0
    try:
        if counters is None and values is None:
            for j, dw in enumerate(steps):
                state, _ = step(state, dw, dt)
            return state
        event = {"non_real": "non_real_events",   # the field the masks add to
                 "clamped": "clamp_events"}.get(stepper.event)
        held, masks = [], []

        def tally(start):
            """x of the held states, those of steps start.., counted and kept."""
            if not held:
                return
            x = stepper.x_of(_stack(held))
            if values is not None:
                values[start + 1:start + 1 + len(held)] = np.moveaxis(x, -2, 0)
            if counters is not None:
                if event is not None:
                    counters.__dict__[event] += int(np.count_nonzero(np.array(masks)))
                counters.negative_states += int(np.count_nonzero(x < 0))
            held.clear()
            masks.clear()

        for start in range(0, len(steps), _TALLY):
            try:
                for j, dw in enumerate(steps[start:start + _TALLY], start):
                    state, mask = step(state, dw, dt)
                    held.append(state)
                    masks.append(mask)
            finally:
                tally(start)
        if values is not None:
            bad = ~np.isfinite(values[1:])
            if bad.any():
                first = np.argwhere(bad)[0]   # [step, ..., path]
                j = int(first[0])
                raise NumericError("x is not finite", index=int(first[-1]))
    except Exception as exc:
        _locate(exc, stepper, dt, offset + j, paths)
        raise
    return state


def _terminal_x(stepper, state, dt, n, paths):
    """x of ``state`` at the horizon, after n steps; a non-finite x there
    raises NumericError named by :func:`_locate`.

    NaN survives every row's map or makes it raise, so checking once at the
    horizon sees it.
    """
    x = stepper.x_of(state)
    bad = ~np.isfinite(x)
    if bad.any():
        exc = NumericError("x is not finite at the horizon",
                           index=int(np.argwhere(bad)[0][-1]))
        _locate(exc, stepper, dt, n - 1, paths)
        raise exc
    return x


def _terminal_blocks(seed, M, T, n, x0, runs, drivers=1):
    """Yield, per block of :func:`_blocks`, the list of every run's x at the
    horizon, in order.

    ``runs`` lists ``(stepper, dt, h, counters)``: each run starts from x0
    and steps at dt over the lattice halved h times, adding to ``counters``
    if it is not None.  The runs advance over each chunk in the order given,
    and each is checked at the horizon as soon as it gets there.
    """
    halvings = {h for _, _, h, _ in runs}
    for paths, chunks in _blocks(seed, M, T, n, halvings, drivers):
        states = [st.init(x0, size=len(paths)) for st, *_ in runs]
        xs = []
        for offset, inc in chunks:
            last = offset + inc[0].shape[-1] == n
            for r, (st, dt, h, counters) in enumerate(runs):
                states[r] = _terminal_batch(st, states[r], dt, inc[h],
                                            offset >> h, counters, paths=paths)
                if last:
                    xs.append(_terminal_x(st, states[r], dt, n >> h, paths))
        yield xs


def _slice_sums(total, values):
    """``total`` plus the sum of ``values`` over paths, added one ``_BATCH``
    slice at a time in path order."""
    for start in range(0, len(values), _BATCH):
        total += float(np.sum(values[start:start + _BATCH]))
    return total


def simulate_path(scheme: SchemeId, params: ModelParams, x0: float, T: float,
                  n: int, driver, m_split: float = 0.5) -> PathResult:
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
    stepper = make_stepper(scheme, params, m_split=m_split)
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
    _terminal_batch(stepper, stepper.init(x0, size=1), dt,
                    driver[np.newaxis, ..., :n], counters=counters,
                    values=values[:, np.newaxis])
    return PathResult(times=times, values=values, counters=counters)


def simulate_paths(schemes: Sequence[SchemeId], params: ModelParams,
                   x0: float, T: float, step_sizes: Sequence[float],
                   seed: int, m_split: float = 0.5,
                   ) -> Dict[float, List[PathResult]]:
    """One path per step size, each listed scheme run on it once.

    Step size number k draws its lattice from ``path_seed(seed, k)`` with as
    many drivers as the schemes need.  A one-driver scheme takes the first
    driver, which is the one-driver lattice bit for bit, so its path does
    not depend on the schemes beside it.  Returns ``{dt: [one PathResult
    per scheme]}`` in the order given.  Every path is kept until the run
    returns, so the times and values of all of them, beside the finest
    lattice, must fit in memory.
    """
    if not schemes:
        raise ConfigurationError("need at least one scheme")
    _distinct(step_sizes)
    drivers = [make_stepper(s, params, m_split=m_split).drivers for s in schemes]
    ns = [_steps_for(T, dt) for dt in step_sizes]
    kept = 2 * len(schemes) * sum(n + 1 for n in ns)
    _steps_for(T, min(step_sizes), max(drivers) + kept / max(ns))
    results = {}
    for k, (dt, n) in enumerate(zip(step_sizes, ns)):
        inc = generate_lattice(path_seed(seed, k), T, n, 0,
                               drivers=max(drivers)).increments
        results[dt] = [simulate_path(s, params, x0, T, n,
                                     inc if d == max(drivers) else inc[0],
                                     m_split=m_split)
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
                 seed: int) -> List[ErrorReport]:
    """Root-mean-square terminal distance to a fine-step reference solution.

    One report per scheme, in order, against ``reference`` or, if that is
    None, against itself.  All runs for one path index are driven by
    coarsenings of that path's lattice, drawn once for all schemes, so the
    difference at the horizon is a pathwise coupling error.  A non-finite
    level raises NumericError; levels with zero error are left out of the fit
    and listed in the report's ``dropped_from_fit``.
    """
    if M < 2:
        raise ConfigurationError(f"need at least 2 paths, got {M}")
    refs = [s if reference is None else reference for s in schemes]
    dts = sorted(_distinct(step_sizes), reverse=True)
    n_ref, halvings = _dyadic_plan(T, dts, M, ref_step=ref_step)
    steppers = {s: make_stepper(s, params) for s in dict.fromkeys([*refs, *schemes])}
    if any(st.drivers != 1 for st in steppers.values()):
        raise ConfigurationError("strong_error supports single-driver schemes")
    sums = [(dict.fromkeys(dts, 0.0), dict.fromkeys(dts, 0.0)) for _ in schemes]
    ref_ids = list(dict.fromkeys(refs))
    runs = [(steppers[r], ref_step, 0, None) for r in ref_ids]
    runs += [(steppers[s], dt, halvings[dt], None) for s in schemes for dt in dts]
    for xs in _terminal_blocks(seed, M, T, n_ref, x0, runs):
        x_ref = dict(zip(ref_ids, xs))
        x_dt = iter(xs[len(ref_ids):])
        for ref, (sum2, sum4) in zip(refs, sums):
            for dt in dts:
                diff_sq = (next(x_dt) - x_ref[ref]) ** 2
                sum2[dt] = _slice_sums(sum2[dt], diff_sq)
                sum4[dt] = _slice_sums(sum4[dt], diff_sq**2)
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
                       intercept=intercept, reference=reference,
                       dropped_from_fit=[dt for dt, p in zip(dts, positive) if not p])


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

    def __init__(self, params, m_split, riders):
        for s in riders:
            if s.model != "cir" or s.variant == "exact_ou":
                raise ConfigurationError(
                    f"only one-driver square-root-model schemes can ride the "
                    f"reconstructed increments, got {s}")
        exact = SchemeId("cir", "exact_ou")
        self.ou = make_stepper(exact, params, m_split=m_split)
        self.riders = [make_stepper(s, params) for s in riders]
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
    ``theta`` is kept only because ``perfbench/child.py`` passes it; it
    must be 1.0, the θ of every ``sd_theta`` row.
    """
    if theta != 1.0:
        raise ConfigurationError(f"theta is fixed at 1.0, got {theta}")
    # the lattice, the recorded values and the path arrays copied from them
    n = _steps_for(T, dt, 2 + 2 * (3 + len(schemes)) + 1)
    ride = _SquaredOuRide(params, m_split, schemes)
    lattice = generate_lattice(path_seed(seed, 0), T, n, 0, drivers=2)
    values = np.empty((n + 1, 3 + len(schemes), 1))
    state = ride.init(x0, size=1)
    values[0] = ride.x_of(state)
    values[0, 3:] = x0
    _terminal_batch(ride, state, dt, lattice.increments[np.newaxis],
                    values=values)
    x1, x2, exact, *paths = values[:, :, 0].T.copy()
    return ExactCirPaths(times=np.linspace(0.0, T, n + 1), x1=x1, x2=x2,
                         exact=exact,
                         schemes=paths)


def exact_cir_error_decay(params: ModelParams, x0: float, m_split: float,
                          step_sizes: Sequence[float], T: float, M: int,
                          seed: int, schemes: Sequence[SchemeId],
                          ) -> List[Dict[float, float]]:
    """Mean terminal distance between each scheme and the squared-OU path per dt.

    Returns one ``{dt: mean}`` per scheme, in order.  Step sizes must form a
    dyadic family; each path's two-driver lattice is generated at the finest
    step and coarsened, so refinements stay coupled.  Per dt, each block
    runs once through the stepping loop with every scheme riding it.
    """
    if M < 1:
        raise ConfigurationError(f"need at least 1 path, got M={M}")
    dts = sorted(_distinct(step_sizes), reverse=True)
    n_ref, halvings = _dyadic_plan(T, dts, M, drivers=2)
    ride = _SquaredOuRide(params, m_split, schemes)
    totals = [dict.fromkeys(dts, 0.0) for _ in schemes]
    runs = [(ride, dt, halvings[dt], None) for dt in dts]
    for xs in _terminal_blocks(seed, M, T, n_ref, x0, runs, drivers=2):
        for dt, x in zip(dts, xs):
            for total, x_scheme in zip(totals, x[3:]):
                total[dt] = _slice_sums(total[dt], np.abs(x_scheme - x[2]))
    return [{dt: total[dt] / M for dt in dts} for total in totals]


# ---------------------------------------------------------------------------
# domain-violation scan
# ---------------------------------------------------------------------------

def domain_violation_scan(schemes: Sequence[SchemeId], params: ModelParams,
                          step_sizes: Sequence[float], T: float, M: int,
                          seed: int, x0: float) -> List[Dict[float, ScanCounters]]:
    """Tally negative, non-real, and clamped states per scheme and step size.

    Returns one ``{dt: ScanCounters}`` per scheme, in order.  The same
    Brownian paths drive every scheme at a given step size, so the counters
    compare schemes like-for-like.
    """
    if M < 1:
        raise ConfigurationError(f"need at least 1 path, got M={M}")
    steppers = [make_stepper(s, params) for s in schemes]
    if any(st.drivers != 1 for st in steppers):
        raise ConfigurationError("scan supports single-driver schemes only")
    _distinct(step_sizes)
    results = [{dt: ScanCounters() for dt in step_sizes} for _ in steppers]
    for k, dt in enumerate(step_sizes):
        n, _ = _dyadic_plan(T, [dt], M)
        runs = [(st, dt, 0, counts[dt]) for st, counts in zip(steppers, results)]
        for _ in _terminal_blocks(path_seed(seed, k), M, T, n, x0, runs):
            pass
    return results
