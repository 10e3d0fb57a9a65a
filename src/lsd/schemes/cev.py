"""One-step maps for the mean-reverting CEV model.

The transformed state is y = x**(1-q) / (k3 (1-q)) with drift
a y**(-q/(1-q)) - b/y - c y.  The drift-implicit competitor runs in the
unscaled power coordinate u = x**(1-q), matching the map it inverts.

The LSD binds take (a, b, c, q), which the scheme table reads from the
parameters.
"""

import numpy as np

from ..closedform import bernoulli_power
from ..rootfind import MonotoneSpec, implicit_step
from ._complex import sqrt_with_fallback


def lsd1_bind(a, b, c, q, dt):
    """Exponential variant built on the frozen Bernoulli equation."""
    bdt, e = np.array(b * dt), np.array((2.0 * q - 1.0) / (1.0 - q))
    a, neg_c = np.array(a), np.array(-c)

    def step(y, dw):
        denom = 1.0 + bdt / (y * y)
        phi = (y + dw) / denom
        B = a / (y ** e * denom)
        C = neg_c / denom
        return np.sqrt(bernoulli_power(phi, B, C, 1.0, dt))

    return step


def lsd2_bind(a, b, c, q, dt):
    """Algebraic variant with the power term frozen at the step start."""
    bdt, e = np.array(b * dt), np.array((1.0 - 2.0 * q) / (1.0 - q))
    c1 = 1.0 + c * dt
    k, d = np.array(4.0 * a * dt * c1), np.array(2.0 * c1)

    def step(y, dw):
        phi = dw + y - bdt / y
        disc = phi * phi + k * y ** e
        return (phi + np.sqrt(disc)) / d

    return step


def lsd3_bind(a, b, c, q, dt):
    """Algebraic variant keeping only the 1/y term implicit."""
    bdt, e = np.array(b * dt), np.array(-q / (1.0 - q))
    c1 = 1.0 + c * dt
    k, d = np.array(4.0 * dt * c1), np.array(2.0 * c1)
    a, dt = np.array(a), np.array(dt)

    def step(y, dw):
        phi = dw + y + a * y ** e * dt - bdt / y
        disc = phi * phi + k
        return (phi + np.sqrt(disc)) / d

    return step


def sd_theta_bind(p, dt):
    """The θ = 1 semi-discrete step in x itself, complex-capable."""
    d = 1.0 + p.k2 * dt
    decay, shift = np.array(1.0 - p.k2 * dt / d), np.array(p.k1 * dt / d)
    c, gain = np.array(p.k3**2 * dt / (4.0 * d * d)), np.array(p.k3 / (2.0 * d))
    e_inner, e_noise = 2.0 * p.q - 1.0, p.q - 0.5

    def step(x, dw):
        root, nonreal = sqrt_with_fallback(x * decay + shift - c * x ** e_inner)
        return (root + gain * x ** e_noise * dw) ** 2, nonreal
    return step


def implicit_map(p, dt):
    """The drift-implicit map G on the power coordinate u = x**(1-q)."""
    q = p.q
    k1, k2, e = np.array(p.k1), np.array(p.k2), np.array(-q / (1.0 - q))
    c, one_q, dt = np.array(0.5 * q * p.k3**2), np.array(1.0 - q), np.array(dt)

    def g(u):
        drift = k1 * u ** e - k2 * u - c / u
        return u - one_q * drift * dt

    return g


def implicit_slope(p, dt):
    """G' in closed form; it falls below 0 only where 0.5 q (1-q) k3^2 / u^2
    outweighs the rest, which needs a large dt."""
    q = p.q
    c1, c2 = np.array(q * p.k1 * dt), np.array(1.0 + (1.0 - q) * p.k2 * dt)
    c3, e = np.array(0.5 * q * (1.0 - q) * p.k3**2 * dt), np.array(-1.0 / (1.0 - q))

    def dg(u):
        return c1 * u ** e + c2 - c3 / (u * u)

    return dg


def implicit_bind(p, dt):
    """The step map(u, dw) at dt: one batch inversion of G, guided by G'."""
    spec = MonotoneSpec(implicit_map(p, dt), slope=implicit_slope(p, dt))
    return implicit_step(spec, p.k3 * (1.0 - p.q))
