"""Scalar inversion of monotone maps for the drift-implicit schemes."""

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InversionError, NumericError

_MAX_EXPANSIONS = 60
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass
class MonotoneSpec:
    """A function to invert on an open interval, monotone where it matters.

    ``lo``/``hi`` may be infinite.  ``increasing`` gives the direction in
    which the function crosses the target at the root that is wanted; it
    decides which way to expand when hunting for a bracket.  The function
    needs to be monotone only on the branch that holds the root: an interior
    extremum between the hunt's probes (say on a map that runs to -inf at
    both ends of a finite interval) is found and searched past.  Enable
    ``check_monotone`` to sample-check global monotonicity.
    """

    fn: Callable[[float], float]
    lo: float = 0.0
    hi: float = math.inf
    increasing: bool = True
    check_monotone: bool = False

    def sample_check(self, n: int = 64) -> bool:
        lo = self.lo if math.isfinite(self.lo) else 1e-8
        hi = self.hi if math.isfinite(self.hi) else 1e8
        xs = [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]
        vals = [self.fn(x) for x in xs]
        pairs = zip(vals, vals[1:])
        if self.increasing:
            return all(u < v for u, v in pairs)
        return all(u > v for u, v in pairs)


def _toward(endpoint: float, x: float) -> float:
    """Next probe when expanding from x toward an interval endpoint."""
    if math.isinf(endpoint):
        if x == 0.0 or (x > 0) != (endpoint > 0):
            return math.copysign(max(1.0, abs(x)), endpoint)
        return x * 2.0
    if endpoint == 0.0:
        return x / 2.0
    return endpoint + (x - endpoint) / 2.0


def invert_monotone(spec: MonotoneSpec, u: float, tol: float = 1e-12,
                    max_iter: int = 100, seed: Optional[float] = None) -> float:
    """Solve fn(x) = u on (lo, hi) for an x that meets two criteria.

    - Residual: ``|fn(x) - u| <= tol * max(1, |u|)``.
    - Error in x: ``|x - root| <= tol * max(1, |x|)``.  The error is
      bounded by ``|fn(x) - u|`` over the smaller of two chord slopes from
      x: to the bracket end that x replaced and to the far end.  The bound
      holds wherever fn is convex or concave between those points.  A
      bracket no wider than the tolerance also meets the criterion.

    On a flat map a small residual allows a large error in x, so the solver
    goes on until both criteria hold, the seed included.

    A bracket is found by geometric expansion from an interior seed (the
    previous state, when the caller has one): first toward the endpoint
    where a map monotone in the declared direction has its root, then
    toward the other.  A hunt stops only at a sign change in the declared
    direction, so when u has two preimages on either side of an extremum
    the one on the declared branch is returned.  If neither hunt finds one,
    a sign change the other way between the probes is used.  If there is
    none either, the probe with the smallest ``|fn(x) - u|`` and its two
    neighbours straddle an interior extremum.  A golden-section search of
    that span either reaches a point beyond u, and brackets the root on the
    declared side of it, or converges on the extremum, which shows that u
    lies outside the map's range.

    The bracket is tightened by regula falsi with the Illinois modification
    (Dowell & Jarratt 1971): when the same end is kept twice in a row, its
    function value is halved for the next secant step, so both ends move
    and the bracket cannot stall at a fixed end.

    Raises InversionError, carrying the last bracket examined, when no root
    is found or the criteria are not met in ``max_iter`` iterations, and
    NumericError if fn returns NaN.
    """
    if spec.check_monotone and not spec.sample_check():
        raise NumericError("function is not monotone on the given interval")

    u = float(u)
    target = tol * max(1.0, abs(u))

    def xtol(x: float) -> float:
        return tol * max(1.0, abs(x))

    def h(x: float) -> float:
        val = spec.fn(x)
        if math.isnan(val):
            raise NumericError(f"non-finite function value at x={x!r}")
        return val - u

    if seed is None or not spec.lo < seed < spec.hi:
        if math.isinf(spec.hi):
            seed = max(1.0, 2.0 * spec.lo)
        elif math.isinf(spec.lo):
            seed = min(-1.0, 2.0 * spec.hi)
        else:
            seed = 0.5 * (spec.lo + spec.hi)

    seed_h = h(seed)
    # Root lies toward hi iff the function still needs to grow there.
    go_up = (seed_h < 0) == spec.increasing
    if abs(seed_h) <= target:
        # The seed meets the x criterion if the root is within the bound of
        # it, which one probe that far toward the root shows.
        probe = seed + xtol(seed) if go_up else seed - xtol(seed)
        if spec.lo < probe < spec.hi and (h(probe) < 0) != (seed_h < 0):
            return seed

    probes = [(seed, seed_h)]

    def hunt(endpoint):
        """Expand from the seed toward one endpoint until fn crosses u in
        the declared direction."""
        # Moving this way, a crossing in the declared direction takes h from
        # negative to non-negative iff this is True, and back otherwise.
        from_negative = spec.increasing == (endpoint > seed)
        x0, h0 = seed, seed_h
        for _ in range(_MAX_EXPANSIONS):
            x1 = _toward(endpoint, x0)
            if x1 == x0:
                break
            h1 = h(x1)
            probes.append((x1, h1))
            if (h0 < 0) == from_negative and (h1 < 0) != from_negative:
                if x0 < x1:
                    return (x0, h0), (x1, h1)
                return (x1, h1), (x0, h0)
            x0, h0 = x1, h1
        return None

    first, second = (spec.hi, spec.lo) if go_up else (spec.lo, spec.hi)
    bracket = hunt(first) or hunt(second)
    if bracket is None:
        probes.sort()
        # A crossing against the declared direction is still a root.
        bracket = next(((a, b) for a, b in zip(probes, probes[1:])
                        if (a[1] < 0) != (b[1] < 0)), None)
    if bracket is None:
        bracket = _past_extremum(h, probes, u, spec.increasing, tol, max_iter)
    (lo_x, lo_h), (hi_x, hi_h) = bracket

    # Secant weights: the true values, except that the Illinois step halves
    # the weight of an end kept twice in a row.
    lo_w, hi_w = lo_h, hi_h
    replaced = 0    # +1 after the lo end was replaced, -1 after the hi end
    for _ in range(max_iter):
        x = hi_x - hi_w * (hi_x - lo_x) / (hi_w - lo_w)
        if not lo_x < x < hi_x:
            x = 0.5 * (lo_x + hi_x)
            if not lo_x < x < hi_x:
                break    # the bracket is down to adjacent floats
        hx = h(x)
        on_lo = (hx < 0) == (lo_h < 0)
        if abs(hx) <= target:
            # Both chord slopes from x, to the end it replaces and to the
            # far end, must be at least |hx| / xtol(x).
            (old_x, old_h), (far_x, far_h) = (
                ((lo_x, lo_h), (hi_x, hi_h)) if on_lo
                else ((hi_x, hi_h), (lo_x, lo_h)))
            bound = abs(hx) / xtol(x)
            if (bound * abs(x - old_x) <= abs(hx - old_h)
                    and bound * abs(far_x - x) <= abs(far_h - hx)):
                return x
        if on_lo:
            lo_x, lo_h, lo_w = x, hx, hx
            if replaced > 0:
                hi_w *= 0.5
            replaced = 1
        else:
            hi_x, hi_h, hi_w = x, hx, hx
            if replaced < 0:
                lo_w *= 0.5
            replaced = -1

    best_x, best_h = (lo_x, lo_h) if abs(lo_h) < abs(hi_h) else (hi_x, hi_h)
    if abs(best_h) <= target and hi_x - lo_x <= xtol(best_x):
        return best_x
    raise InversionError(
        f"residual {float(best_h)!r} or x error above tolerance after "
        f"{max_iter} iterations", bracket=(lo_x, hi_x))


def _past_extremum(h, probes, u, increasing, tol, max_iter):
    """Bracket a root that the hunt stepped over, beside an interior extremum.

    ``probes`` are the hunt's (x, h(x)) pairs sorted by x, all of one sign.
    The one with the smallest |h| and its neighbours straddle an extremum of
    h; a golden-section search of that span either finds a point of the
    other sign or shrinks onto the extremum and raises InversionError.
    """
    best = min(range(len(probes)), key=lambda i: abs(probes[i][1]))
    if not 0 < best < len(probes) - 1:
        raise InversionError(
            f"no sign change within {_MAX_EXPANSIONS} expansions each way "
            "from the seed, and no interior extremum between the probes",
            bracket=(probes[0][0], probes[-1][0]))
    a, b, c = probes[best - 1:best + 2]
    below = b[1] < 0    # every probe lies below u: search for a maximum
    for _ in range(max_iter):
        if c[0] - a[0] <= tol * max(1.0, abs(b[0])):
            break
        if b[0] - a[0] > c[0] - b[0]:
            x = b[0] - _GOLDEN * (b[0] - a[0])
        else:
            x = b[0] + _GOLDEN * (c[0] - b[0])
        p = (x, h(x))
        if (p[1] < 0) != below:
            return (a, p) if below == increasing else (p, c)
        if abs(p[1]) < abs(b[1]):
            a, b, c = (a, p, b) if x < b[0] else (b, p, c)
        else:
            a, b, c = (p, b, c) if x < b[0] else (a, b, p)
    kind = "maximum" if below else "minimum"
    raise InversionError(
        f"u={u!r} lies outside the map's range: its {kind} near x={b[0]!r} "
        f"is {float(b[1] + u)!r}", bracket=(a[0], c[0]))
