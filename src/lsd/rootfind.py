"""Inversion of rising maps for the drift-implicit schemes.

:func:`solve_monotone` solves a whole batch at once, each element with its
own bracket and state; :func:`invert_monotone` solves for one float.  Every
element runs one iteration: safeguarded Newton, guided by the map's
closed-form slope where the caller gives one and by the secant through the
element's last two points where not, and bisection for an element that is
still at work after ``_NEWTON_ITER`` steps.  The map need only change sign
through the target across its interval; a map that does not is the
caller's to restrict to an interval where it does.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, InversionError, NumericError

_MAX_ITER = 100
_NEWTON_ITER = 20   # Newton or secant steps before an element bisects
STEP_TOL = 1e-13    # what each drift-implicit scheme step solves to
# The loop's constant operands as 0-d arrays: numpy 2 promotes a Python
# scalar operand on every call, at more cost.
_ONE, _ZERO, _NAN = np.array(1.0), np.array(0.0), np.array(np.nan)


@dataclass
class MonotoneSpec:
    """A function to invert on an open interval that brackets the target.

    ``fn`` maps an array of x to their values, element by element, on
    (``lo``, ``hi``) with 0 <= lo < hi <= inf; any other interval raises
    ConfigurationError.  fn - u is negative near lo and positive near hi,
    so the sign of each residual tells on which side of x a root lies
    (invert a falling map as its negative).  Where fn crosses u more than
    once, the root found is one of the crossings.
    ``slope``, if set, maps x to fn'(x) the same way; it only guides the
    search, so it may fall to 0 or below (a step there bisects instead), and
    the acceptance criteria stay those of fn alone.  Without it, the secant
    through each element's last two points takes its place.
    """

    fn: Callable
    lo: float = 0.0
    hi: float = math.inf
    slope: Optional[Callable] = None

    def __post_init__(self):
        if not 0.0 <= self.lo < self.hi:    # False for a NaN end
            raise ConfigurationError(
                f"interval ({self.lo!r}, {self.hi!r}) is not 0 <= lo < hi <= inf")


def implicit_step(spec: MonotoneSpec, noise) -> Callable:
    """The drift-implicit step map(y, dw): solve fn(y') = t, t = y + noise *
    dw, for every path to ``STEP_TOL``.

    Each path is seeded at s2, the second pass of the fixed-point iteration
    s <- s + (t - fn(s)) from s0 = t: one explicit step, then one
    correction.  The state y lies O(sqrt(dt)) from the root, s2 much
    nearer.  The seed is y wherever s2 does not qualify: t, s1 or s2
    outside (lo, hi), or a second correction t - fn(s1) longer than the
    first, t - fn(t).  fn sees only points inside (lo, hi): where a pass
    has left the interval, fn is evaluated at an interior point instead and
    its value is not used.  The map looks
    :func:`solve_monotone` up at each call, so what replaces that one name
    reaches every drift-implicit row.
    """
    lo, hi, mid, noise = (np.array(v) for v in
                          (spec.lo, spec.hi, _interior(spec), noise))

    def step(y, dw):
        t = y + noise * dw
        inside = (lo < t) & (t < hi)
        r0 = t - spec.fn(np.where(inside, t, mid))
        s1 = t + r0
        inside &= (lo < s1) & (s1 < hi)
        r1 = t - spec.fn(np.where(inside, s1, mid))
        s2 = s1 + r1
        inside &= (lo < s2) & (s2 < hi) & (np.abs(r1) <= np.abs(r0))
        return solve_monotone(spec, t, tol=STEP_TOL, seed=np.where(inside, s2, y))

    return step


def _interior(spec: MonotoneSpec) -> float:
    """A point inside (lo, hi), where a solve without a seed starts."""
    return (max(1.0, 2.0 * spec.lo) if math.isinf(spec.hi)
            else 0.5 * (spec.lo + spec.hi))


def invert_monotone(spec: MonotoneSpec, u: float, tol: float = 1e-12,
                    seed: Optional[float] = None) -> float:
    """:func:`solve_monotone` for one float u; ``fn`` maps floats to floats."""
    scalar = replace(spec, fn=lambda xs: [spec.fn(float(x)) for x in xs])
    return float(solve_monotone(scalar, u, tol, seed))


def solve_monotone(spec: MonotoneSpec, u, tol: float = 1e-12,
                   seed=None) -> np.ndarray:
    """Solve fn(x) = u on (lo, hi) for each element of u; x is shaped like u.

    x meets ``|fn(x) - u| <= tol * max(1, |u|)`` and ``|x - root| <= tol *
    max(1, |x|)``, the latter shown by a sign change within that bound of
    x.  On a flat map the residual alone allows a large error in x.

    Each element runs Newton's method from its seed (Press et al., *Numerical
    Recipes* §9.4, ``rtsafe``): for a drift-implicit step the explicit
    predictor of :func:`implicit_step`, and where no seed is given or it lies
    outside (lo, hi), a point inside the interval.  It keeps a bracket from
    the sign of every residual: a step where the slope is <= 0 or outside
    the bracket bisects it, or doubles toward an infinite end.  Without a
    ``slope``, the secant through the element's last two points gives it,
    and the first step is 0.  A step shorter than the x bound is stretched
    to it, a probe; x is accepted once such a probe changes sign and x or
    the probe, whichever has the smaller residual, meets the residual bound.
    Where neither does, the chord point between them is the next x.  An
    element still at work after ``_NEWTON_ITER`` steps bisects its bracket,
    and x is accepted once the bracket it leaves is within the x bound and
    x meets the residual bound.  A midpoint that rounds onto lo or hi takes
    the float next to it inside the bracket, so fn is called only inside
    (lo, hi).

    ``fn`` (and ``slope``) is called once per iteration on the elements still
    at work, fn once more on those that take a chord point, each element
    taking the steps it would alone, so no result depends on its batch.
    InversionError (the criteria unmet in ``_MAX_ITER`` iterations, its
    bracket the last one) and NumericError (a non-finite u, found before fn
    is called, or fn gave NaN) name as ``index`` the first failing element
    of the flattened batch.
    """
    shape, u = np.shape(u), np.ravel(np.asarray(u, float))
    bad = ~np.isfinite(u)
    if np.count_nonzero(bad):
        k = int(np.argmax(bad))
        raise NumericError(f"non-finite target u={float(u[k])!r}", index=k)
    tol = np.array(tol)
    target = tol * np.maximum(_ONE, np.abs(u))

    def h(idx, x, u):
        """fn(x) - u on the elements ``idx``; fn never sees the others."""
        val = np.asarray(spec.fn(x), float)
        bad = np.isnan(val)
        if np.count_nonzero(bad):
            k = int(np.argmax(bad))
            raise NumericError(f"non-finite function value at x={float(x[k])!r}",
                               index=int(idx[k]))
        return val - u

    start = _interior(spec)
    x = start if seed is None else seed
    x = np.ravel(x if np.shape(x) == shape else np.broadcast_to(x, shape))
    x = np.where((spec.lo < x) & (x < spec.hi), x, start)
    i = np.arange(u.size)
    hx = h(i, x, u)
    root = np.empty(u.size)    # every element is written before the return
    # The bracket (a, b) starts as (lo, hi), and each residual's sign moves
    # one end of it to its x.  u and its residual bound travel with the
    # elements still at work.
    a, b = np.full(u.size, float(spec.lo)), np.full(u.size, float(spec.hi))
    k = 0
    while i.size:
        neg = hx < _ZERO    # the root lies above x
        np.copyto(a, x, where=neg)
        np.copyto(b, x, where=~neg)
        if k == _MAX_ITER:
            raise InversionError(
                f"residual {float(hx[0])!r} or x error above tolerance after "
                f"{_MAX_ITER} iterations", bracket=(float(a[0]), float(b[0])),
                index=int(i[0]))
        if k >= _NEWTON_ITER:
            d = _NAN    # no step, so a bisection
        elif spec.slope is not None:
            d = spec.slope(x)
        elif k:
            with np.errstate(divide="ignore", invalid="ignore"):
                d = (hx - hp) / (x - xp)
        else:
            d = np.inf    # a step of 0, stretched to a probe
        tx = tol * np.maximum(_ONE, np.abs(x))
        xn = x - hx / np.where(d > _ZERO, d, _NAN)
        probe = np.abs(xn - x) < tx
        probing = np.count_nonzero(probe)
        if probing:
            np.copyto(xn, x - np.copysign(tx, hx), where=probe)
        inside = (a < xn) & (xn < b)
        if np.count_nonzero(inside) < i.size:
            # A probe past an evaluated bracket end probes that end instead;
            # any other step out of the bracket bisects it.
            mid = np.where(b == math.inf, 2.0 * a, 0.5 * (a + b))
            # a midpoint that rounds onto lo or hi steps inside
            mid = np.where(mid >= spec.hi, np.nextafter(b, a),
                           np.where(mid <= spec.lo, np.nextafter(a, b), mid))
            if probing:
                probe &= inside | np.where(neg, b < spec.hi, a > spec.lo)
                mid = np.where(probe, np.where(neg, b, a), mid)
            np.copyto(xn, mid, where=~inside)
        hn = h(i, xn, u)
        ok = None
        if k >= _NEWTON_ITER:
            # xn bisected the bracket: it settles once the half it leaves is
            # within the x bound.
            left = np.where(hn < _ZERO, b - xn, xn - a)
            ok = ((left <= tol * np.maximum(_ONE, np.abs(xn)))
                  & (np.abs(hn) <= target))
            settled = xn
        elif probing:
            cross = probe & ((hn < _ZERO) != neg)
            if np.count_nonzero(cross):
                # x and its probe straddle the root: take the end of least
                # residual if that is within the target.
                nearer = np.abs(hn) < np.abs(hx)
                ok = cross & (np.abs(np.where(nearer, hn, hx)) <= target)
                settled = np.where(nearer, xn, x)
        if ok is not None:
            n = np.count_nonzero(ok)
            if n == i.size:
                root[i] = settled
                break
            # a bisection takes no chord; a probe's unsettled crossings do
            m = np.flatnonzero(cross & ~ok) if probing else []
            if len(m):
                # Neither end meets the target.  The pair becomes the
                # bracket and its chord point the next x: a Newton step
                # from the probe, stretched to the x bound, would land
                # back on x, and x on the probe, until the steps run out.
                a[m], b[m] = (np.where(neg[m], x[m], xn[m]),
                              np.where(neg[m], xn[m], x[m]))
                xn[m] = x[m] - hx[m] * (xn[m] - x[m]) / (hn[m] - hx[m])
                hn[m] = h(i[m], xn[m], u[m])
            if n:
                root[i[ok]] = settled[ok]
                keep = np.flatnonzero(~ok)
                i, xn, hn, a, b, u, target = (
                    v[keep] for v in (i, xn, hn, a, b, u, target))
                if spec.slope is None:    # the secant's previous point
                    x, hx = x[keep], hx[keep]
        xp, hp, x, hx = x, hx, xn, hn
        k += 1
    return root.reshape(shape)
