"""One-step maps for the Ait-Sahalia interest-rate model.

The transformed state y = x**(1-rho) has drift
-Km1 y^e1 + K0 y^e2 - K1 y + K2 y^e5 + K4 / y and diffusion -K3.  Both LSD
variants solve a quadratic whose constant term is strictly negative, so the
returned root is positive for every noise value.  The drift-implicit
competitor exists in two readings: the backward-Euler map implied by the
transformed drift, which the ``implicit`` row runs, and the map exactly as
printed in its source (with a constant 1 inside the dt bracket and +K4/y),
which the ``implicit_printed`` row runs and whose drift does not match the
SDE.
"""

import numpy as np

from ..errors import ConfigurationError
from ..rootfind import MonotoneSpec, implicit_step


def _positive_root(phi, c1, c2):
    """The positive root of c1 v^2 - phi v - c2 = 0, for c1, c2 > 0."""
    return (phi + np.sqrt(phi * phi + 4.0 * c1 * c2)) / (2.0 * c1)


def lsd1_bind(p, dt):
    neg_K3, K0, Km1 = np.array(-p.K3), np.array(p.K0), np.array(p.Km1)
    K1dt, K2, K4 = np.array(p.K1 * dt), np.array(p.K2), np.array(p.K4)
    e2, e3, e4 = p.e2, p.e3, p.e4

    def step(y, dw):
        phi = neg_K3 * dw + y + K0 * y**e2 * dt
        c1 = 1.0 + Km1 * y**e4 * dt + K1dt
        return _positive_root(phi, c1, (K2 * y**e3 + K4) * dt)
    return step


def lsd2_bind(p, dt):
    neg_K3, K0, Km1 = np.array(-p.K3), np.array(p.K0), np.array(p.Km1)
    c1, K2, K4 = np.array(1.0 + p.K1 * dt), np.array(p.K2), np.array(p.K4)
    e1, e2, e3 = p.e1, p.e2, p.e3

    def step(y, dw):
        phi = neg_K3 * dw + y + K0 * y**e2 * dt - Km1 * y**e1 * dt
        return _positive_root(phi, c1, (K2 * y**e3 + K4) * dt)
    return step


def implicit_map(p, dt, variant):
    """Drift-implicit map on (0, inf): ``drift`` or ``printed`` reading."""
    one, k4 = (1.0, p.K4) if variant == "printed" else (0.0, -p.K4)

    def g(y):
        bracket = (one + p.Km1 * y**p.e1 - p.K0 * y**p.e2 + p.K1 * y
                   - p.K2 * y**p.e5 + k4 / y)
        return y + bracket * dt

    return g


def check_printed_bracket(p):
    """The printed map must change sign through every target on (0, inf).

    As y -> inf its bracket grows like Km1 y^e1, e1 = (rho+1)/(rho-1) > 1,
    so g -> inf for any dt.  As y -> 0 the terms in y^e1, y^e2 and y vanish
    and g behaves as dt (K4/y - K2 y^e5), e5 = (rho-r)/(rho-1).  For
    e5 < -1, that is r > 2 rho - 1, the y^e5 term outgrows 1/y and g -> -inf;
    for e5 = -1 the two are (K4 - K2)/y, so g -> -inf iff K2 > K4.
    Otherwise g -> +inf at 0 as well: it falls to an interior minimum and
    rises again, so a target below that minimum has no preimage and one
    above it has two, and no interval brackets the root by sign.
    """
    if not (p.e5 < -1.0 or (p.e5 == -1.0 and p.K2 > p.K4)):
        raise ConfigurationError(
            "ait:implicit_printed needs its map to fall to -inf at 0: "
            f"r > 2*rho - 1, or r = 2*rho - 1 with K2 > K4; got r={p.r}, "
            f"rho={p.rho}, K2={p.K2}, K4={p.K4}")


def implicit_slope(p, dt):
    """g' of the ``drift`` map; it can fall below 0 where K0 y^e2 grows
    faster than the rest, at a large dt."""
    c1, c2, c5 = p.Km1 * p.e1 * dt, p.K0 * p.e2 * dt, p.K2 * p.e5 * dt
    c0, c4 = 1.0 + p.K1 * dt, p.K4 * dt
    e1, e2, e5 = p.e1 - 1.0, p.e2 - 1.0, p.e5 - 1.0

    def dg(y):
        return c0 + c1 * y**e1 - c2 * y**e2 - c5 * y**e5 + c4 / (y * y)

    return dg


def implicit_bind(p, dt, variant):
    """The step map(y, dw) at dt: solve g(y') = y - K3 dw, y' > 0, for all
    paths; g is per ``variant``, and the ``drift`` map is solved with its
    slope."""
    slope = implicit_slope(p, dt) if variant == "drift" else None
    return implicit_step(MonotoneSpec(implicit_map(p, dt, variant), slope=slope),
                         -p.K3)
