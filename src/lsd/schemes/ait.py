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

from ..rootfind import STEP_TOL, MonotoneSpec, solve_monotone


def lsd1_step(p, y, dw, dt):
    phi = -p.K3 * dw + y + p.K0 * y**p.e2 * dt
    c1 = 1.0 + p.Km1 * y**p.e4 * dt + p.K1 * dt
    c2 = (p.K2 * y**p.e3 + p.K4) * dt
    return (phi + np.sqrt(phi * phi + 4.0 * c1 * c2)) / (2.0 * c1)


def lsd2_step(p, y, dw, dt):
    phi = -p.K3 * dw + y + p.K0 * y**p.e2 * dt - p.Km1 * y**p.e1 * dt
    c1 = 1.0 + p.K1 * dt
    c2 = (p.K2 * y**p.e3 + p.K4) * dt
    return (phi + np.sqrt(phi * phi + 4.0 * c1 * c2)) / (2.0 * c1)


def implicit_map(p, dt, variant):
    """Drift-implicit map on (0, inf): ``drift`` or ``printed`` reading."""
    one, k4 = (1.0, p.K4) if variant == "printed" else (0.0, -p.K4)

    def g(y):
        bracket = (one + p.Km1 * y**p.e1 - p.K0 * y**p.e2 + p.K1 * y
                   - p.K2 * y**p.e5 + k4 / y)
        return y + bracket * dt

    return g


def implicit_step(p, y, dw, dt, variant):
    """Solve g(y') = y - K3 dw, y' > 0, for all paths; g is per ``variant``."""
    target = y - p.K3 * dw
    spec = MonotoneSpec(implicit_map(p, dt, variant), lo=0.0, hi=np.inf)
    return solve_monotone(spec, target, tol=STEP_TOL, seed=y)
