"""Inversion of monotone maps for the drift-implicit schemes.

:func:`solve_monotone` solves a whole batch at once, each element with its
own bracket and state; :func:`invert_monotone` solves for one float.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import InversionError, NumericError

_MAX_EXPANSIONS = 60
_MAX_ITER = 100
STEP_TOL = 1e-13    # what each drift-implicit scheme step solves to
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass
class MonotoneSpec:
    """A function to invert on an open interval, monotone where it matters.

    ``fn`` maps an array of x to their values, element by element; ``lo``
    and ``hi`` may be infinite.  fn rises through the target at the wanted
    root (invert a falling map as its negative), which sets which way a
    bracket hunt goes first.  fn need be monotone only on the root's branch:
    an interior extremum between the hunt's probes is found and searched past.
    """

    fn: Callable
    lo: float = 0.0
    hi: float = math.inf


def _toward(endpoint: float, x):
    """Next probes when expanding from the array x toward an interval endpoint."""
    if math.isinf(endpoint):
        away = (x == 0.0) | ((x > 0) != (endpoint > 0))
        return np.where(away, np.copysign(np.maximum(1.0, np.abs(x)), endpoint), x * 2.0)
    if endpoint == 0.0:
        return x / 2.0
    return endpoint + (x - endpoint) / 2.0


def invert_monotone(spec: MonotoneSpec, u: float, tol: float = 1e-12,
                    seed: Optional[float] = None) -> float:
    """:func:`solve_monotone` for one float u; ``fn`` maps floats to floats."""
    scalar = replace(spec, fn=lambda xs: [spec.fn(float(x)) for x in xs])
    return float(solve_monotone(scalar, u, tol, seed))


def solve_monotone(spec: MonotoneSpec, u, tol: float = 1e-12,
                   seed=None) -> np.ndarray:
    """Solve fn(x) = u on (lo, hi) for each element of u; x is shaped like u.

    x meets ``|fn(x) - u| <= tol * max(1, |u|)`` and ``|x - root| <= tol *
    max(1, |x|)``, the latter bounded by the residual over the smaller chord
    slope from x to the bracket end it replaced and to the far end (where fn
    is convex or concave between them) or met by a bracket that narrow.  On
    a flat map the residual alone allows a large error in x.

    From an interior seed (the previous state, when the caller has one) a
    geometric hunt runs toward the endpoint where a rising map has its root,
    then toward the other, and stops only at a crossing where fn rises: of
    two preimages astride an extremum, the rising branch's is returned.
    Failing that, a falling crossing between the probes serves; failing
    that, the probe of least ``|fn(x) - u|`` and its neighbours straddle an
    extremum, and a golden-section search brackets the root beside it or
    shows u outside the map's range.  Illinois regula falsi (Dowell &
    Jarratt 1971) then tightens the bracket, halving the value of an end
    kept twice in a row.

    ``fn`` is called once per iteration on the elements still at work, each
    taking the steps it would alone, so no result depends on its batch.
    InversionError (no root, or the criteria unmet in ``_MAX_ITER``
    iterations; it carries the last bracket) and NumericError (fn gave NaN)
    name as ``index`` the first failing element of the flattened batch.
    """
    shape, u = np.shape(u), np.ravel(np.asarray(u, float))
    target = tol * np.maximum(1.0, np.abs(u))

    def xtol(x):
        return tol * np.maximum(1.0, np.abs(x))

    def h(idx, x):
        """fn(x) - u on the elements ``idx``; fn never sees the others."""
        if not idx.size:
            return x
        val = np.asarray(spec.fn(x), float)
        nan = np.flatnonzero(np.isnan(val))
        if nan.size:
            raise NumericError(f"non-finite function value at x={float(x[nan[0]])!r}",
                               index=int(idx[nan[0]]))
        return val - u[idx]

    start = (max(1.0, 2.0 * spec.lo) if math.isinf(spec.hi)
             else min(-1.0, 2.0 * spec.hi) if math.isinf(spec.lo)
             else 0.5 * (spec.lo + spec.hi))
    seed = np.broadcast_to(start if seed is None else seed, shape).ravel()
    seed = np.where((spec.lo < seed) & (seed < spec.hi), seed, start)
    seed_h = h(np.arange(u.size), seed)
    # Root lies toward hi iff the function still needs to grow there.
    up = seed_h < 0
    root = np.full(u.size, np.nan)
    # A seed within the residual meets the x criterion if the root is within
    # the bound of it, which one probe that far toward the root shows.
    i = np.flatnonzero(np.abs(seed_h) <= target)
    probe = seed[i] + np.where(up[i], xtol(seed[i]), -xtol(seed[i]))
    inside = (spec.lo < probe) & (probe < spec.hi)
    i, probe = i[inside], probe[inside]
    i = i[(h(i, probe) < 0) != (seed_h[i] < 0)]
    root[i] = seed[i]

    # Hunt from the seed toward one endpoint, then from it toward the other,
    # until fn rises through u.  lo and hi hold each bracket's (x, h) ends;
    # probes keeps every (elements, x, h) evaluated.
    lo, hi = np.empty((2, u.size)), np.empty((2, u.size))
    x0, h0, heading = seed.copy(), seed_h.copy(), up.copy()
    expansions, second = np.zeros(u.size, int), np.zeros(u.size, bool)
    hunting = np.isnan(root)
    ai, probes, lost = np.flatnonzero(hunting), [], [np.empty(0, int)]
    while ai.size:
        xa = x0[ai]
        x1 = np.where(heading[ai], _toward(spec.hi, xa), _toward(spec.lo, xa))
        stop = (x1 == xa) | (expansions[ai] == _MAX_EXPANSIONS)
        if stop.any():
            s = ai[stop]
            lost.append(s[second[s]])
            hunting[lost[-1]] = False
            s = s[~second[s]]    # back to the seed for the other hunt
            x0[s], h0[s], expansions[s] = seed[s], seed_h[s], 0
            heading[s], second[s] = ~heading[s], True
            ai, x1 = ai[~stop], x1[~stop]
        h1 = h(ai, x1)
        probes.append((ai, x1, h1))
        # Moving up, a rising crossing takes h from negative to non-negative;
        # moving down, back.
        from_negative = heading[ai]
        cross = ((h0[ai] < 0) == from_negative) & ((h1 < 0) != from_negative)
        c, fwd = ai[cross], heading[ai[cross]]
        prev, new = np.stack([x0[c], h0[c]]), np.stack([x1[cross], h1[cross]])
        lo[:, c], hi[:, c] = np.where(fwd, prev, new), np.where(fwd, new, prev)
        hunting[c] = False
        x0[ai], h0[ai] = x1, h1
        expansions[ai] += 1
        ai = np.flatnonzero(hunting)
    lost = np.sort(np.concatenate(lost))
    if lost.size:
        probes.append((lost, seed[lost], seed_h[lost]))
        lo[:, lost], hi[:, lost] = _bracket_lost(h, probes, lost, u, tol)

    # Illinois regula falsi, one compact array per quantity for the elements
    # still at work.  lw/hw are the secant weights: the true values, except
    # that an end kept twice in a row is halved.
    i = np.flatnonzero(np.isnan(root))
    lx, lh, hx, hh = lo[0, i], lo[1, i], hi[0, i], hi[1, i]
    lw, hw, moved = lh, hh, np.zeros(i.size)   # moved: +1 lo end, -1 hi end
    ended = []
    for _ in range(_MAX_ITER):
        x = hx - hw * (hx - lx) / (hw - lw)
        inside = (lx < x) & (x < hx)
        if not inside.all():
            x = np.where(inside, x, 0.5 * (lx + hx))
            inside = (lx < x) & (x < hx)    # else down to adjacent floats
            ended.append([v[~inside] for v in (i, lx, lh, hx, hh)])
            i, x, lx, lh, hx, hh, lw, hw, moved = (
                v[inside] for v in (i, x, lx, lh, hx, hh, lw, hw, moved))
        if not i.size:
            break
        hv = h(i, x)
        on_lo = (hv < 0) == (lh < 0)
        ok = np.abs(hv) <= target[i]
        if ok.any():
            # Both chord slopes from x, to the end it replaces and to the
            # far end, must be at least |hv| / xtol(x).
            bound = np.abs(hv) / xtol(x)
            ok &= (bound * np.abs(x - np.where(on_lo, lx, hx))
                   <= np.abs(hv - np.where(on_lo, lh, hh)))
            ok &= (bound * np.abs(np.where(on_lo, hx, lx) - x)
                   <= np.abs(np.where(on_lo, hh, lh) - hv))
            root[i[ok]] = x[ok]
            i, x, hv, on_lo, lx, lh, hx, hh, lw, hw, moved = (
                v[~ok] for v in (i, x, hv, on_lo, lx, lh, hx, hh, lw, hw, moved))
        lw, hw = (np.where(on_lo, hv, np.where(moved < 0, 0.5 * lw, lw)),
                  np.where(on_lo, np.where(moved > 0, 0.5 * hw, hw), hv))
        lx, lh = np.where(on_lo, x, lx), np.where(on_lo, hv, lh)
        hx, hh = np.where(on_lo, hx, x), np.where(on_lo, hh, hv)
        moved = np.where(on_lo, 1.0, -1.0)

    # An unresolved bracket passes with its better end if both criteria hold.
    i, lx, lh, hx, hh = (np.concatenate(v) for v in zip(*ended, (i, lx, lh, hx, hh)))
    nearer = np.abs(lh) < np.abs(hh)
    best_x, best_h = np.where(nearer, lx, hx), np.where(nearer, lh, hh)
    ok = (np.abs(best_h) <= target[i]) & (hx - lx <= xtol(best_x))
    root[i[ok]] = best_x[ok]
    if not ok.all():
        f = np.flatnonzero(~ok)[np.argmin(i[~ok])]
        raise InversionError(
            f"residual {float(best_h[f])!r} or x error above tolerance after "
            f"{_MAX_ITER} iterations", bracket=(float(lx[f]), float(hx[f])),
            index=int(i[f]))
    return root.reshape(shape)


def _bracket_lost(h, probes, lost, u, tol):
    """(x, h) bracket ends for the sorted elements ``lost``, whose hunts met
    no rising crossing: the first sign change among their ``probes`` sorted
    by x, else a golden-section search for a point of the other sign around
    the probe of least |h|, an extremum of h."""
    idx = np.concatenate([p[0] for p in probes])
    keep = np.isin(idx, lost)
    x, hx = (np.concatenate([p[k] for p in probes])[keep] for k in (1, 2))
    idx = idx[keep]
    order = np.lexsort((x, idx))
    idx, pairs = idx[order], np.stack([x[order], hx[order]])
    first = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
    last = np.r_[first[1:], idx.size] - 1
    # A falling crossing is still a root.
    flip = np.flatnonzero((idx[1:] == idx[:-1])
                          & ((pairs[1, 1:] < 0) != (pairs[1, :-1] < 0)))
    j = np.append(flip, idx.size)[np.searchsorted(flip, first)]
    crossed = j < last
    lo, hi = np.empty((2, lost.size)), np.empty((2, lost.size))
    lo[:, crossed], hi[:, crossed] = pairs[:, j[crossed]], pairs[:, j[crossed] + 1]

    # Each element's probe of least |h|, the first of equals (lexsort is stable).
    best = np.lexsort((np.abs(pairs[1]), idx))[first]
    g = np.flatnonzero(~crossed & ((best == first) | (best == last)))
    if g.size:
        raise InversionError(
            f"no sign change within {_MAX_EXPANSIONS} expansions each way "
            "from the seed, and no interior extremum between the probes",
            bracket=(float(pairs[0, first[g[0]]]), float(pairs[0, last[g[0]]])),
            index=int(lost[g[0]]))
    g = np.flatnonzero(~crossed)
    A, B, C = pairs[:, best[g] - 1], pairs[:, best[g]], pairs[:, best[g] + 1]
    below = B[1] < 0    # every probe lies below u: search for a maximum
    found, live = np.zeros(g.size, bool), np.arange(g.size)
    for _ in range(_MAX_ITER):
        live = live[C[0, live] - A[0, live]
                    > tol * np.maximum(1.0, np.abs(B[0, live]))]
        if not live.size:
            break
        a, b, c = A[:, live], B[:, live], C[:, live]
        x = np.where(b[0] - a[0] > c[0] - b[0], b[0] - _GOLDEN * (b[0] - a[0]),
                     b[0] + _GOLDEN * (c[0] - b[0]))
        p = np.stack([x, h(lost[g[live]], x)])
        hit = (p[1] < 0) != below[live]
        # fn rises through u left of a maximum and right of a minimum
        lo[:, g[live[hit]]] = np.where(below[live], a, p)[:, hit]
        hi[:, g[live[hit]]] = np.where(below[live], p, c)[:, hit]
        found[live[hit]] = True
        better, left = np.abs(p[1]) < np.abs(b[1]), x < b[0]
        A[:, live] = np.where(better, np.where(left, a, b), np.where(left, p, a))
        B[:, live] = np.where(better, p, b)
        C[:, live] = np.where(better, np.where(left, b, c), np.where(left, c, p))
        live = live[~hit]
    if not found.all():
        f = np.argmin(found)
        e = lost[g[f]]
        raise InversionError(
            f"u={float(u[e])!r} lies outside the map's range: its "
            f"{'maximum' if below[f] else 'minimum'} near x={float(B[0, f])!r} "
            f"is {float(B[1, f] + u[e])!r}", bracket=(float(A[0, f]), float(C[0, f])),
            index=int(e))
    return lo, hi
