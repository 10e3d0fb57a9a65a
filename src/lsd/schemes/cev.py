"""One-step maps for the mean-reverting CEV model.

The transformed state is y = x**(1-q) / (k3 (1-q)) with drift
a y**(-q/(1-q)) - b/y - c y.  The drift-implicit competitor runs in the
unscaled power coordinate u = x**(1-q), matching the map it inverts.
"""

import numpy as np

from ..closedform import bernoulli_power
from ..rootfind import STEP_TOL, MonotoneSpec, solve_monotone
from ._complex import sqrt_with_fallback


def lsd1_step(p, y, dw, dt):
    """Exponential variant built on the frozen Bernoulli equation."""
    q = p.q
    denom = 1.0 + p.b * dt / (y * y)
    phi = (y + dw) / denom
    B = p.a / (y ** ((2.0 * q - 1.0) / (1.0 - q)) * denom)
    C = -p.c / denom
    return np.sqrt(bernoulli_power(phi, B, C, 1.0, dt))


def lsd2_step(p, y, dw, dt):
    """Algebraic variant with the power term frozen at the step start."""
    q = p.q
    phi = dw + y - p.b * dt / y
    c1 = 1.0 + p.c * dt
    disc = phi * phi + 4.0 * p.a * dt * c1 * y ** ((1.0 - 2.0 * q) / (1.0 - q))
    return (phi + np.sqrt(disc)) / (2.0 * c1)


def lsd3_step(p, y, dw, dt):
    """Algebraic variant keeping only the 1/y term implicit."""
    q = p.q
    phi = dw + y + p.a * y ** (-q / (1.0 - q)) * dt - p.b * dt / y
    c1 = 1.0 + p.c * dt
    disc = phi * phi + 4.0 * dt * c1
    return (phi + np.sqrt(disc)) / (2.0 * c1)


def sd_theta_step(p, x, dw, dt, theta):
    """Theta-semi-discrete step in the original coordinate, complex-capable."""
    q = p.q
    d = 1.0 + p.k2 * theta * dt
    inner = (x * (1.0 - p.k2 * dt / d) + p.k1 * dt / d
             - (p.k3**2 * dt / (4.0 * d * d)) * x ** (2.0 * q - 1.0))
    root, nonreal = sqrt_with_fallback(inner)
    out = (root + (p.k3 / (2.0 * d)) * x ** (q - 0.5) * dw) ** 2
    return out, nonreal


def implicit_map(p, dt):
    """The drift-implicit map G on the power coordinate u = x**(1-q)."""
    q = p.q

    def g(u):
        drift = p.k1 * u ** (-q / (1.0 - q)) - p.k2 * u - 0.5 * q * p.k3**2 / u
        return u - (1.0 - q) * drift * dt

    return g


def implicit_slope(p, dt):
    """G' in closed form; it falls below 0 only where 0.5 q (1-q) k3^2 / u^2
    outweighs the rest, which needs a large dt."""
    q = p.q
    c1, c2 = q * p.k1 * dt, 1.0 + (1.0 - q) * p.k2 * dt
    c3 = 0.5 * q * (1.0 - q) * p.k3**2 * dt

    def dg(u):
        return c1 * u ** (-1.0 / (1.0 - q)) + c2 - c3 / (u * u)

    return dg


def implicit_bind(p, dt):
    """The step map(u, dw) at dt: one batch inversion of G, guided by G'."""
    spec = MonotoneSpec(implicit_map(p, dt), lo=0.0, hi=np.inf,
                        slope=implicit_slope(p, dt))
    scale = p.k3 * (1.0 - p.q)

    def step(u, dw):
        return solve_monotone(spec, u + scale * dw, tol=STEP_TOL, seed=u)

    return step
