"""One-step maps for the Heston 3/2 volatility model.

The transformed state y = (2/k3) x**(-1/2) has drift (2 k2/k3^2 + 3)/y
- (k1/2) y and unit diffusion; the dt coefficient inside the squared updates
is c_star = 4 k2/k3^2 + 6.  The LSD updates are CIR's Bernoulli steps with
(a, b) = (c_star/2, k1/2), so their rows in the scheme table bind
:func:`cir.lsd1_bind` and :func:`cir.lsd2_bind` to that pair.  The
drift-implicit competitor runs in the unscaled inverse-root coordinate
v = x**(-1/2), for which its map has a closed-form positive root, and reports
x = v**(-2).
"""

import numpy as np


def sd_exp_bind(p, dt):
    """Exponential semi-discrete step; positive by construction."""

    def step(x, dw):
        exponent = (p.k1 - p.k2 * x - 0.5 * p.k3**2 * x) * dt + p.k3 * np.sqrt(x) * dw
        return x * np.exp(exponent)
    return step


def implicit_map(p, dt):
    """G(v) = (1 + k1 dt/2) v - c_impl dt / v on (0, inf)."""

    def g(v):
        return (1.0 + 0.5 * p.k1 * dt) * v - p.c_impl * dt / v

    return g


def implicit_bind(p, dt):
    """Advance v = x**(-1/2) through the closed-form inverse of G."""
    c1 = 1.0 + 0.5 * p.k1 * dt
    q, d = np.array(4.0 * c1 * p.c_impl * dt), np.array(2.0 * c1)

    def step(v, dw):
        u = v - 0.5 * p.k3 * dw
        return (u + np.sqrt(u * u + q)) / d
    return step
