"""One-step maps for the Wright-Fisher model.

The transformed state y = 2 arcsin(sqrt(x)) lives in (0, pi) with drift
a cot(y/2) - b tan(y/2) and diffusion k3.  Updates that can land outside
(0, pi) are folded back through y -> 2 arcsin(|sin(y/2)|), which leaves the
original-space value sin^2(y/2) untouched; the fold is counted as a clamp.
The drift-implicit competitor runs the backward-Euler map of that drift; the
map as printed in its source, which has the wrong sign on the tangent term,
is kept as the separate ``implicit_printed`` row.
"""

import math

import numpy as np

from ..closedform import wf_cosine_solution
from ..errors import InversionError, StepSizeError
from ..rootfind import MonotoneSpec, implicit_step

_DENOMINATOR_TOL = 1e-12


def _fold(y_raw):
    """Map an arbitrary real angle to its representative in (0, pi).

    An angle that lands on 0 or pi, where cot or tan is infinite, raises.
    """
    raw = np.asarray(y_raw, float)
    inside = (raw > 0.0) & (raw < np.pi)
    if np.all(inside):
        return y_raw, np.zeros(raw.shape, dtype=bool)
    folded = 2.0 * np.arcsin(np.abs(np.sin(0.5 * raw)))
    _require(inside | ((folded > 0.0) & (folded < np.pi)),
             "fold reached the boundary of (0, pi)")
    return np.where(inside, raw, folded), ~inside


def _require(ok, what):
    """Raise StepSizeError naming the first path where ``ok`` is false."""
    if not np.all(ok):
        raise StepSizeError(f"{what}; decrease the step size",
                            index=int(np.flatnonzero(np.logical_not(ok))[0]))


def lsd1_bind(p, dt):
    """Cosine-decay variant; maps to (y', clamp_mask)."""
    a, b, k3 = np.array(p.a), np.array(p.b), np.array(p.k3)

    def step(y, dw):
        denom = 1.0 + (b / y) * np.tan(0.5 * y) * dt
        phi = (k3 * dw + y) / denom
        decay = wf_cosine_solution(phi, a / denom, dt)
        clipped = np.minimum(decay, 1.0)
        clamped = decay > 1.0
        return 2.0 * np.arccos(clipped), clamped
    return step


def lsd2_bind(p, dt):
    """Fully frozen-ratio variant; raises where the denominator is not positive."""
    a, b, k3 = np.array(p.a), np.array(p.b), np.array(p.k3)

    def step(y, dw):
        t = np.tan(0.5 * y)
        cot = 1.0 / t
        denom = 1.0 - (a / y) * cot * dt + (b / y) * t * dt
        _require(denom >= _DENOMINATOR_TOL, "update denominator is not positive")
        return _fold((k3 * dw + y) / denom)
    return step


def lsd3_bind(p, dt):
    a, b, k3 = np.array(p.a), np.array(p.b), np.array(p.k3)

    def step(y, dw):
        t = np.tan(0.5 * y)
        cot = 1.0 / t
        num = k3 * dw + y + a * cot * dt
        denom = 1.0 + (b / y) * t * dt
        return _fold(num / denom)
    return step


def lsd4_bind(p, dt):
    a, b, k3 = np.array(p.a), np.array(p.b), np.array(p.k3)

    def step(y, dw):
        t = np.tan(0.5 * y)
        cot = 1.0 / t
        phi = k3 * dw + y - dt / y + (a * cot - b * t) * dt
        root = (phi + np.sqrt(phi * phi + 4.0 * dt)) / 2.0
        return _fold(root)
    return step


def _clip_unit(value):
    clipped = np.clip(value, 0.0, 1.0)
    clamped = (value < 0.0) | (value > 1.0)
    return clipped, clamped


def _rotated(x, half_k3, dw):
    """sin^2(k3 dw/2 + arcsin(sqrt(x))), the noise's rotation of x."""
    return np.sin(half_k3 * dw + np.arcsin(np.sqrt(x))) ** 2


def sd_bind(p, dt):
    """Semi-discrete step in the original coordinate; clamps the arcsin root."""
    a, beta, half_k3 = np.array(p.a), np.array(p.beta), np.array(0.5 * p.k3)

    def step(x, dw):
        inner, clamped = _clip_unit(x + (a + beta * x) * dt)
        return _rotated(inner, half_k3, dw), clamped
    return step


def sd_alt_bind(p, dt):
    """Alternative semi-discrete step with the prestabilised inner value."""
    a, beta, half_k3 = np.array(p.a), np.array(p.beta), np.array(0.5 * p.k3)

    def step(x, dw):
        inner = (x * (1.0 + beta * dt) + a * dt) / (1.0 + (a + beta) * dt)
        inner, clamped = _clip_unit(inner)
        return _rotated(inner, half_k3, dw), clamped
    return step


def biss_bind(p, dt):
    """Balance implicit split step; result clipped to [0, 1] if it escapes."""
    k1, k2, k3 = p.k1, p.k2, p.k3
    eps = min(k1 * dt, (k2 - k1) * dt, 1.0 - k1 * dt, 1.0 - (k2 - k1) * dt)
    if eps <= 0.0:
        raise StepSizeError("balance control width collapsed; decrease the step size")
    top, damp = np.array(1.0 - eps), np.array(1.0 - k2 * dt)

    def step(x, dw):
        xa = np.asarray(x, float)
        low = np.clip(xa, eps, None)
        high = np.clip(xa, None, top)
        d1 = np.where(xa < 0.5,
                      k3 * np.sqrt((1.0 - low) / low),
                      k3 * np.sqrt(high / (1.0 - high)))
        noise = k3 * np.sqrt(np.clip(xa * (1.0 - xa), 0.0, None)) * dw
        out = xa + (k1 - k2 * xa) * dt + noise / (1.0 + d1 * np.abs(dw)) * damp
        return _clip_unit(out)
    return step


def hyb_bind(p, dt):
    """Splitting scheme: exact linear flow composed with the rotated noise."""
    growth = np.exp(p.beta * dt)
    shift, half_k3 = np.array((p.a / p.beta) * (growth - 1.0)), np.array(0.5 * p.k3)
    return lambda x, dw: shift + growth * _rotated(x, half_k3, dw)


def implicit_map(p, dt, sign_mode):
    """Drift-implicit map on (0, pi).

    ``corrected`` is y - (a cot(y/2) - b tan(y/2)) dt, the backward-Euler map
    of the transformed drift and globally monotone; the ``wf:implicit`` row
    runs it.  ``printed`` is the map as printed in its source, which
    subtracts the tangent term as well; the ``wf:implicit_printed`` row runs
    it, and its drift does not match the SDE.

    The printed map is concave: it rises from -inf at 0 to a single maximum
    at :func:`printed_peak` and falls to -inf at pi (for k1, k2, k3 = 1, 2,
    0.20101 at dt = 1e-2 the maximum is about 2.8597, near y = 3.0011).  A
    target below the maximum has two preimages, one on each side of it; a
    target above has none.
    """
    tan_sign = -1.0 if sign_mode == "printed" else 1.0

    def g(y):
        t = np.tan(0.5 * y)
        return y - p.a / t * dt + tan_sign * p.b * t * dt

    return g


def implicit_slope(p, dt):
    """g' of the corrected map, 1 + (dt/2) (a (1 + cot^2(y/2)) + b (1 +
    tan^2(y/2))): above 1 everywhere on (0, pi)."""
    ha, hb = 0.5 * p.a * dt, 0.5 * p.b * dt

    def dg(y):
        t2 = np.tan(0.5 * y) ** 2
        return (1.0 + ha + hb) + ha / t2 + hb * t2

    return dg


def printed_peak(p, dt):
    """Where the printed map peaks in (0, pi).  With t = tan^2(y/2), g' = 0
    is (b dt/2) t^2 - (1 + (a - b) dt/2) t - a dt/2 = 0, whose roots
    multiply to -a/b < 0; the positive one is taken in the form free of
    cancellation."""
    c = 1.0 + 0.5 * (p.a - p.b) * dt
    s = math.sqrt(c * c + p.a * p.b * dt * dt)
    t = (c + s) / (p.b * dt) if c >= 0.0 else p.a * dt / (s - c)
    return 2.0 * math.atan(math.sqrt(t))


def implicit_bind(p, dt, sign_mode):
    """The step map(y, dw) at dt: solve g(y') = y + k3 dw for y' in (0, pi),
    g the ``sign_mode`` map, for all paths at once.

    The corrected map is solved with its slope.  The printed map is solved
    on its rising branch, (0, :func:`printed_peak`): of two preimages, the
    one left of the maximum tends to the target as dt -> 0.  The paper does
    not say which it means.  A target at or above the maximum raises
    InversionError, whose bracket holds the peak and whose ``index`` is the
    first such path.
    """
    g = implicit_map(p, dt, sign_mode)
    if sign_mode == "corrected":
        spec = MonotoneSpec(g, lo=0.0, hi=np.pi, slope=implicit_slope(p, dt))
        return implicit_step(spec, p.k3)
    peak = printed_peak(p, dt)
    solve, top = implicit_step(MonotoneSpec(g, lo=0.0, hi=peak), p.k3), float(g(peak))

    def step(y, dw):
        u = y + p.k3 * dw
        above = np.ravel(u >= top)
        if above.any():
            k = int(np.argmax(above))
            raise InversionError(
                f"u={float(np.ravel(u)[k])!r} lies outside the map's range: its "
                f"maximum near x={peak!r} is {top!r}", index=k,
                bracket=(math.nextafter(peak, 0.0), math.nextafter(peak, math.pi)))
        return solve(y, dw)

    return step
