"""Inversion of rising maps for the drift-implicit schemes.

:func:`solve_monotone` solves a whole batch at once, each element with its
own bracket and state; :func:`invert_monotone` solves for one float.  A map
given with its closed-form slope is solved by safeguarded Newton first; a
map without one, or an element Newton leaves unsettled, by a bracket hunt
and regula falsi.  A map that is not monotone is the caller's to restrict
to one rising branch.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, InversionError, NumericError

_MAX_EXPANSIONS = 60
_MAX_ITER = 100
_NEWTON_ITER = 20   # safeguarded Newton steps before the hunt takes over
STEP_TOL = 1e-13    # what each drift-implicit scheme step solves to


@dataclass
class MonotoneSpec:
    """A function to invert on an open interval, rising through the target.

    ``fn`` maps an array of x to their values, element by element, on
    (``lo``, ``hi``) with 0 <= lo < hi <= inf; any other interval raises
    ConfigurationError.  fn rises through the target at the wanted root
    (invert a falling map as its negative), which sets which way a bracket
    hunt goes first; a crossing where fn falls is never a root.
    ``slope``, if set, maps x to fn'(x) the same way; it only guides the
    search, so it may fall to 0 or below (a step there bisects instead), and
    the acceptance criteria stay those of fn alone.
    """

    fn: Callable
    lo: float = 0.0
    hi: float = math.inf
    slope: Optional[Callable] = None

    def __post_init__(self):
        if not 0.0 <= self.lo < self.hi:    # False for a NaN end
            raise ConfigurationError(
                f"interval ({self.lo!r}, {self.hi!r}) is not 0 <= lo < hi <= inf")


def _toward(endpoint: float, x):
    """Next probes when expanding from the positive array x toward an
    interval endpoint: doubling toward +inf, else halving the distance."""
    return x * 2.0 if endpoint == math.inf else endpoint + (x - endpoint) / 2.0


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
    then toward the other, and stops only at a crossing where fn rises.  An
    element with no such crossing within ``_MAX_EXPANSIONS`` probes each way
    fails.  Illinois regula falsi (Dowell & Jarratt 1971) then tightens the
    bracket, halving the value of an end kept twice in a row.

    With a ``slope``, Newton's method runs first from the seed (Press et al.,
    *Numerical Recipes* §9.4, ``rtsafe``), keeping each element's bracket
    from the sign of every residual: a step where fn' <= 0 or outside the
    bracket bisects it, or doubles toward an infinite end.  A Newton step
    shorter than the x bound is stretched to it, a probe; x is accepted once
    such a probe changes sign and x or the probe, whichever has the smaller
    residual, meets the residual bound.  An element unsettled after
    ``_NEWTON_ITER`` steps goes through the hunt above from its seed.  Where
    fn has several rising preimages of u the two routes may return different
    ones.

    ``fn`` (and ``slope``) is called once per iteration on the elements still
    at work, each taking the steps it would alone, so no result depends on
    its batch.
    InversionError (no rising crossing, its bracket the span searched; or
    the criteria unmet in ``_MAX_ITER`` iterations, its bracket the last
    one) and NumericError (a non-finite u, found before fn is called, or fn
    gave NaN) name as ``index`` the first failing element of the flattened
    batch.
    """
    shape, u = np.shape(u), np.ravel(np.asarray(u, float))
    bad = ~np.isfinite(u)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericError(f"non-finite target u={float(u[k])!r}", index=k)
    target = tol * np.maximum(1.0, np.abs(u))

    def xtol(x):
        return tol * np.maximum(1.0, np.abs(x))

    def h(idx, x):
        """fn(x) - u on the elements ``idx``; fn never sees the others."""
        if not idx.size:
            return x
        val = np.asarray(spec.fn(x), float)
        nan = np.isnan(val)
        if nan.any():
            k = int(np.argmax(nan))
            raise NumericError(f"non-finite function value at x={float(x[k])!r}",
                               index=int(idx[k]))
        return val - u[idx]

    start = (max(1.0, 2.0 * spec.lo) if math.isinf(spec.hi)
             else 0.5 * (spec.lo + spec.hi))
    seed = np.broadcast_to(start if seed is None else seed, shape).ravel()
    seed = np.where((spec.lo < seed) & (seed < spec.hi), seed, start)
    seed_h = h(np.arange(u.size), seed)
    # Root lies toward hi iff the function still needs to grow there.
    up = seed_h < 0
    root = np.full(u.size, np.nan)
    if spec.slope is not None:
        _newton(spec, h, target, tol, seed, seed_h, root)
        if not np.isnan(root).any():
            return root.reshape(shape)
    else:
        # A seed within the residual meets the x criterion if the root is
        # within the bound of it, which one probe that far toward the root
        # shows.
        i = np.flatnonzero(np.abs(seed_h) <= target)
        probe = seed[i] + np.where(up[i], xtol(seed[i]), -xtol(seed[i]))
        inside = (spec.lo < probe) & (probe < spec.hi)
        i, probe = i[inside], probe[inside]
        i = i[(h(i, probe) < 0) != (seed_h[i] < 0)]
        root[i] = seed[i]

    # Hunt from the seed toward one endpoint, then from it toward the other,
    # until fn rises through u.  lo and hi hold each bracket's (x, h) ends;
    # far holds the first hunt's last probe.
    lo, hi = np.empty((2, u.size)), np.empty((2, u.size))
    x0, h0, heading, far = seed.copy(), seed_h.copy(), up.copy(), seed.copy()
    expansions, second = np.zeros(u.size, int), np.zeros(u.size, bool)
    hunting, lost = np.isnan(root), np.zeros(u.size, bool)
    ai = np.flatnonzero(hunting)
    while ai.size:
        xa = x0[ai]
        x1 = np.where(heading[ai], _toward(spec.hi, xa), _toward(spec.lo, xa))
        stop = (x1 == xa) | (expansions[ai] == _MAX_EXPANSIONS)
        if stop.any():
            s = ai[stop]
            spent = s[second[s]]    # both hunts over: no rising crossing
            lost[spent], hunting[spent] = True, False
            s = s[~second[s]]    # back to the seed for the other hunt
            far[s], x0[s], h0[s], expansions[s] = x0[s], seed[s], seed_h[s], 0
            heading[s], second[s] = ~heading[s], True
            ai, x1 = ai[~stop], x1[~stop]
        h1 = h(ai, x1)
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
    if lost.any():
        e = int(np.argmax(lost))
        raise InversionError(
            f"no rising crossing of u={float(u[e])!r} within {_MAX_EXPANSIONS} "
            "expansions each way from the seed",
            bracket=(float(min(far[e], x0[e])), float(max(far[e], x0[e]))), index=e)

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


def _newton(spec, h, target, tol, x, hx, root):
    """Safeguarded Newton from each seed x, whose residual is hx, as
    :func:`solve_monotone` describes; writes the roots it settles into
    ``root`` and leaves the others NaN.  The bracket (a, b) starts as
    (lo, hi), and each residual's sign moves one end of it to its x."""
    i = np.arange(x.size)
    a, b = np.full(x.size, float(spec.lo)), np.full(x.size, float(spec.hi))
    for _ in range(_NEWTON_ITER):
        neg = hx < 0    # the root lies above x
        a, b = np.where(neg, x, a), np.where(neg, b, x)
        d = spec.slope(x)
        tx = tol * np.maximum(1.0, np.abs(x))
        xn = x - hx / np.where(d > 0, d, np.nan)
        probe = np.abs(xn - x) < tx
        xn = np.where(probe, x - np.copysign(tx, hx), xn)
        inside = (a < xn) & (xn < b)
        if not inside.all():
            # A probe past an evaluated bracket end probes that end instead;
            # any other step out of the bracket bisects it.
            end = np.where(neg, b, a)
            probe &= inside | np.where(neg, b < spec.hi, a > spec.lo)
            mid = 0.5 * (a + b)
            if math.isinf(spec.hi):
                mid = np.where(mid == spec.hi, _toward(spec.hi, x), mid)
            xn = np.where(inside, xn, np.where(probe, end, mid))
        hn = h(i, xn)
        ok = probe & ((hn < 0) != neg)
        if ok.any():
            # x and its probe straddle the root: take the end of least
            # residual if that is within the target.
            nearer = np.abs(hn) < np.abs(hx)
            ok &= np.abs(np.where(nearer, hn, hx)) <= target[i]
            root[i[ok]] = np.where(nearer, xn, x)[ok]
            i, xn, hn, a, b = (v[~ok] for v in (i, xn, hn, a, b))
            if not i.size:
                return
        x, hx = xn, hn
