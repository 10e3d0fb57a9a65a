"""One-step maps for the square-root (CIR) model.

LSD variants advance the transformed state y = 2 sqrt(x) / k3, whose drift is
a/y - b y with a = 2 k1/k3^2 and b = k2/2 + k3^2/8; their binds take (a, b),
which each row of the scheme table states, as Heston 3/2's rows share them.
Companion schemes advance the original state (or its square root for the
drift-implicit variant) and may leave the real line; they then continue in
the complex plane and the real part is what gets reported.
"""

import numpy as np

from ..closedform import bernoulli_power
from ..errors import ConfigurationError
from ._complex import sqrt_with_fallback

_EXACT_OU_DIMENSION_TOL = 1e-12


def lsd1_bind(a, b, dt):
    """Linear drift part frozen: y' = sqrt((dw + (1 - b dt) y)^2 + 2 a dt)."""
    # C = 0 takes bernoulli_power's linear branch, whose growth is 1.0
    decay = np.array(1.0 - b * dt)
    shift = bernoulli_power(0.0, a, 0.0, 1.0, dt)
    return lambda y, dw: np.sqrt(shift + np.square(dw + decay * y))


def lsd2_bind(a, b, dt):
    """Full drift kept: y' = sqrt((dw + y)^2 e^(-2b dt) + a(1 - e^(-2b dt))/b)."""
    # bernoulli_power(A, a, -b, 1, dt) = shift + growth A^2, bit for bit on
    # both branches for 0-d a and b
    shift = bernoulli_power(0.0, a, -b, 1.0, dt)
    growth = bernoulli_power(1.0, 0.0, -b, 1.0, dt)
    return lambda y, dw: np.sqrt(shift + growth * np.square(dw + y))


def lsd3_bind(a, b, dt):
    """Algebraic variant: positive root of (1+b dt) v^2 - (dw+y) v - a dt = 0."""
    c1 = 1.0 + b * dt
    q, d = np.array(4.0 * c1 * a * dt), np.array(2.0 * c1)
    return lambda y, dw: ((s := dw + y) + np.sqrt(s * s + q)) / d


def sd_theta_bind(p, dt):
    """The θ = 1 semi-discrete step in x itself.

    Negative values under the square root continue in the complex plane; the
    returned mask marks where that happened this step.
    """
    d = 1.0 + p.k2 * dt
    decay = np.array(1.0 - p.k2 * dt / d)
    shift = np.array((dt / d) * (p.k1 - p.k3**2 / (4.0 * d)))
    gain = np.array(p.k3 / (2.0 * d))

    def step(x, dw):
        root, nonreal = sqrt_with_fallback(x * decay + shift)
        return (root + gain * dw) ** 2, nonreal
    return step


def alf_bind(p, dt):
    """Drift-implicit square-root step in the original coordinate."""
    c1 = np.array(1.0 + p.k2 * dt)
    drift = np.array((p.k1 - p.k3**2 / 2.0) * dt)
    k3, k3sq, d = np.array(p.k3), np.array(p.k3**2), np.array(2.0 * c1)

    def step(x, dw):
        root, nonreal = sqrt_with_fallback(4.0 * (x + drift) * c1 + k3sq * dw * dw)
        return ((root + k3 * dw) / d) ** 2, nonreal
    return step


def ns_bind(p, dt):
    """Drift-implicit step for the square-root coordinate v = sqrt(x).

    The recursion stays in v; report x as the real part of v**2.
    """
    half_k3 = np.array(0.5 * p.k3)
    drift = np.array((p.k1 - p.k3**2 / 4.0) * dt)
    d = np.array(2.0 + p.k2 * dt)

    def step(v, dw):
        s = v + half_k3 * dw
        root, nonreal = sqrt_with_fallback(s * s + drift)
        return (root + s) / d, nonreal
    return step


def check_exact_ou_dimension(p):
    """The squared-OU construction needs 4 k1 / k3^2 = 2."""
    d = 4.0 * p.k1 / p.k3**2
    if abs(d - 2.0) > _EXACT_OU_DIMENSION_TOL:
        raise ConfigurationError(
            f"squared-OU construction needs 4*k1/k3^2 = 2, got {d}")


def exact_ou_bind(p, dt):
    """Advance the two independent OU components whose squares sum to x.

    Each component solves dX = -(k2/2) X dt + (k3/2) dW exactly over dt: it
    decays by e^(-k2 dt/2) and gains noise of variance
    (k3^2/4)(1 - e^(-k2 dt))/k2, carried here by the increment dw ~ N(0, dt).
    The map takes the pair ``(x1, x2)`` and the increments ``(dw1, dw2)``,
    stacked along a first axis of two; ``decay`` and ``gain`` are 0-d arrays,
    so a pair passed as a tuple is converted inside the multiplication.
    """
    decay = np.array(np.exp(-0.5 * p.k2 * dt))
    gain = np.array(0.5 * p.k3 * np.sqrt(-np.expm1(-p.k2 * dt) / (p.k2 * dt)))
    return lambda x, dw: decay * x + gain * dw
