"""One-step maps for the Wright-Fisher model.

The transformed state y = 2 arcsin(sqrt(x)) lives in (0, pi) with drift
a cot(y/2) - b tan(y/2) and diffusion k3.  Updates that can land outside
(0, pi) are folded back through y -> 2 arcsin(|sin(y/2)|), which leaves the
original-space value sin^2(y/2) untouched; the fold is counted as a clamp.
The drift-implicit competitor runs the backward-Euler map of that drift; the
map as printed in its source, which has the wrong sign on the tangent term,
is kept as the separate ``implicit_printed`` row.
"""

import numpy as np

from ..closedform import wf_cosine_solution
from ..errors import StepSizeError
from ..rootfind import STEP_TOL, MonotoneSpec, solve_monotone

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


def lsd1_step(p, y, dw, dt):
    """Cosine-decay variant; returns (y', clamp_mask)."""
    denom = 1.0 + (p.b / y) * np.tan(0.5 * y) * dt
    phi = (p.k3 * dw + y) / denom
    decay = wf_cosine_solution(phi, p.a / denom, dt)
    clipped = np.minimum(decay, 1.0)
    clamped = decay > 1.0
    return 2.0 * np.arccos(clipped), clamped


def lsd2_step(p, y, dw, dt):
    """Fully frozen-ratio variant; raises where the denominator is not positive."""
    cot = 1.0 / np.tan(0.5 * y)
    denom = 1.0 - (p.a / y) * cot * dt + (p.b / y) * np.tan(0.5 * y) * dt
    _require(denom >= _DENOMINATOR_TOL, "update denominator is not positive")
    return _fold((p.k3 * dw + y) / denom)


def lsd3_step(p, y, dw, dt):
    cot = 1.0 / np.tan(0.5 * y)
    num = p.k3 * dw + y + p.a * cot * dt
    denom = 1.0 + (p.b / y) * np.tan(0.5 * y) * dt
    return _fold(num / denom)


def lsd4_step(p, y, dw, dt):
    cot = 1.0 / np.tan(0.5 * y)
    phi = p.k3 * dw + y - dt / y + (p.a * cot - p.b * np.tan(0.5 * y)) * dt
    root = (phi + np.sqrt(phi * phi + 4.0 * dt)) / 2.0
    return _fold(root)


def _clip_unit(value):
    clipped = np.clip(value, 0.0, 1.0)
    clamped = (value < 0.0) | (value > 1.0)
    return clipped, clamped


def sd_step(p, x, dw, dt):
    """Semi-discrete step in the original coordinate; clamps the arcsin root."""
    inner = x + (p.a + p.beta * x) * dt
    inner, clamped = _clip_unit(inner)
    out = np.sin(0.5 * p.k3 * dw + np.arcsin(np.sqrt(inner))) ** 2
    return out, clamped


def sd_alt_step(p, x, dw, dt):
    """Alternative semi-discrete step with the prestabilised inner value."""
    inner = (x * (1.0 + p.beta * dt) + p.a * dt) / (1.0 + (p.a + p.beta) * dt)
    inner, clamped = _clip_unit(inner)
    out = np.sin(0.5 * p.k3 * dw + np.arcsin(np.sqrt(inner))) ** 2
    return out, clamped


def biss_step(p, x, dw, dt):
    """Balance implicit split step; result clipped to [0, 1] if it escapes."""
    k1, k2, k3 = p.k1, p.k2, p.k3
    eps = min(k1 * dt, (k2 - k1) * dt, 1.0 - k1 * dt, 1.0 - (k2 - k1) * dt)
    if eps <= 0.0:
        raise StepSizeError("balance control width collapsed; decrease the step size")
    xa = np.asarray(x, float)
    low = np.clip(xa, eps, None)
    high = np.clip(xa, None, 1.0 - eps)
    d1 = np.where(xa < 0.5,
                  k3 * np.sqrt((1.0 - low) / low),
                  k3 * np.sqrt(high / (1.0 - high)))
    noise = k3 * np.sqrt(np.clip(xa * (1.0 - xa), 0.0, None)) * dw
    out = xa + (k1 - k2 * xa) * dt + noise / (1.0 + d1 * np.abs(dw)) * (1.0 - k2 * dt)
    return _clip_unit(out)


def hyb_step(p, x, dw, dt):
    """Splitting scheme: exact linear flow composed with the rotated noise."""
    growth = np.exp(p.beta * dt)
    rotated = np.sin(0.5 * p.k3 * dw + np.arcsin(np.sqrt(x))) ** 2
    return (p.a / p.beta) * (growth - 1.0) + growth * rotated


def implicit_map(p, dt, sign_mode):
    """Drift-implicit map on (0, pi).

    ``corrected`` is y - (a cot(y/2) - b tan(y/2)) dt, the backward-Euler map
    of the transformed drift and globally monotone; the ``wf:implicit`` row
    runs it.  ``printed`` is the map as printed in its source, which
    subtracts the tangent term as well; the ``wf:implicit_printed`` row runs
    it, and its drift does not match the SDE.

    The printed map is concave: it rises from -inf at 0 to a single maximum
    and falls to -inf at pi (for k1, k2, k3 = 1, 2, 0.20101 at dt = 1e-2 the
    maximum is about 2.8597, near y = 3.0011).  A target below the maximum
    has two preimages, one on each side of it; a target above has none.
    """
    tan_sign = -1.0 if sign_mode == "printed" else 1.0

    def g(y):
        return (y - p.a / np.tan(0.5 * y) * dt
                + tan_sign * p.b * np.tan(0.5 * y) * dt)

    return g


def implicit_step(p, y, dw, dt, sign_mode):
    """Solve g(y') = y + k3 dw for y' in (0, pi), g the ``sign_mode`` map.

    All paths are solved at once.  Of two preimages of the printed map, the
    one on its increasing branch, left of the maximum, is returned: it tends
    to the target as dt -> 0.  The paper does not say which it means.  A
    target above the maximum raises InversionError, whose bracket is the
    span searched around the maximum and whose ``index`` is such a path.
    """
    target = y + p.k3 * dw
    spec = MonotoneSpec(implicit_map(p, dt, sign_mode), lo=0.0, hi=np.pi)
    return solve_monotone(spec, target, tol=STEP_TOL, seed=y)
