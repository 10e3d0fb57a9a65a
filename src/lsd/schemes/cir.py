"""One-step maps for the square-root (CIR) model.

LSD variants advance the transformed state y = 2 sqrt(x) / k3, whose drift is
a/y - b y with a = 2 k1/k3^2 and b = k2/2 + k3^2/8.  Companion schemes advance
the original state (or its square root for the drift-implicit variant) and may
leave the real line; they then continue in the complex plane and the real part
is what gets reported.
"""

import numpy as np

from ..closedform import bernoulli_power
from ..errors import ConfigurationError
from ._complex import sqrt_with_fallback

_EXACT_OU_DIMENSION_TOL = 1e-12


def lsd1_step(p, y, dw, dt):
    """Linear drift part frozen: y' = sqrt((dw + (1 - b dt) y)^2 + 2 a dt)."""
    A = dw + (1.0 - p.b * dt) * y
    return np.sqrt(bernoulli_power(A, p.a, 0.0, 1.0, dt))


def lsd2_step(p, y, dw, dt):
    """Full drift kept: y' = sqrt((dw + y)^2 e^(-2b dt) + a(1 - e^(-2b dt))/b)."""
    return np.sqrt(bernoulli_power(dw + y, p.a, -p.b, 1.0, dt))


def lsd3_step(p, y, dw, dt):
    """Algebraic variant: positive root of (1+b dt) v^2 - (dw+y) v - a dt = 0."""
    s = dw + y
    c1 = 1.0 + p.b * dt
    return (s + np.sqrt(s * s + 4.0 * c1 * p.a * dt)) / (2.0 * c1)


def sd_theta_step(p, x, dw, dt, theta):
    """Theta-semi-discrete step in the original coordinate.

    Negative values under the square root continue in the complex plane; the
    returned mask marks where that happened this step.
    """
    d = 1.0 + p.k2 * theta * dt
    inner = x * (1.0 - p.k2 * dt / d) + (dt / d) * (p.k1 - p.k3**2 / (4.0 * d))
    root, nonreal = sqrt_with_fallback(inner)
    out = (root + (p.k3 / (2.0 * d)) * dw) ** 2
    return out, nonreal


def alf_step(p, x, dw, dt):
    """Drift-implicit square-root step in the original coordinate."""
    c1 = 1.0 + p.k2 * dt
    rad = 4.0 * (x + (p.k1 - p.k3**2 / 2.0) * dt) * c1 + p.k3**2 * dw * dw
    root, nonreal = sqrt_with_fallback(rad)
    out = ((root + p.k3 * dw) / (2.0 * c1)) ** 2
    return out, nonreal


def ns_step(p, v, dw, dt):
    """Drift-implicit step for the square-root coordinate v = sqrt(x).

    The recursion stays in v; report x as the real part of v**2.
    """
    s = v + 0.5 * p.k3 * dw
    rad = s * s + (p.k1 - p.k3**2 / 4.0) * dt
    root, nonreal = sqrt_with_fallback(rad)
    return (root + s) / (2.0 + p.k2 * dt), nonreal


def check_exact_ou_dimension(p):
    """The squared-OU construction needs 4 k1 / k3^2 = 2."""
    d = 4.0 * p.k1 / p.k3**2
    if abs(d - 2.0) > _EXACT_OU_DIMENSION_TOL:
        raise ConfigurationError(
            f"squared-OU construction needs 4*k1/k3^2 = 2, got {d}")


def exact_ou_step(p, x1, x2, dw1, dw2, dt):
    """Advance the two independent OU components whose squares sum to x.

    Each component solves dX = -(k2/2) X dt + (k3/2) dW exactly over dt: it
    decays by e^(-k2 dt/2) and gains noise of variance
    (k3^2/4)(1 - e^(-k2 dt))/k2, carried here by the increment dw ~ N(0, dt).
    """
    decay = np.exp(-0.5 * p.k2 * dt)
    gain = 0.5 * p.k3 * np.sqrt(-np.expm1(-p.k2 * dt) / (p.k2 * dt))
    return decay * x1 + gain * dw1, decay * x2 + gain * dw2
