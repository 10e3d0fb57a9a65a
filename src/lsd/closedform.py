"""Closed-form solutions of the per-step auxiliary ODEs.

Two families appear inside the semi-discrete updates: a Bernoulli equation
``y' = B y**(-l) + C y`` solved through ``r = y**(1+l)``, and the tangent-type
equation ``y' = rate * cot(y/2)`` whose solution decays in ``|cos(y/2)|``.
Both are exposed here so schemes can build on them and tests can check them
against independent ODE integration.
"""

import numpy as np

from .errors import DomainError

# Below this magnitude of the exponent, the exponential branch and the linear
# branch of the Bernoulli solution agree to roundoff; switch to linear.
_LINEAR_BRANCH_CUTOFF = 1e-12


def bernoulli_power(A, B, C, l, dt):
    """Return r(dt) = y(dt)**(1+l) for y' = B y**(-l) + C y, y(0) = A.

    The exponential branch is evaluated through expm1 so that C -> 0 is
    continuous; |(1+l) C dt| below 1e-12 falls through to the exact linear
    branch r = (1+l) B dt + A**(1+l).  Vectorized over any argument; returns
    an array of the broadcast shape (0-d when every argument is a scalar).
    """
    A, B, C = np.asarray(A, float), np.asarray(B, float), np.asarray(C, float)
    power = 1.0 + l
    if np.any(A < 0) and not float(power).is_integer():
        raise DomainError("negative initial value with fractional power 1+l")
    k = power * C * dt
    linear = np.abs(k) < _LINEAR_BRANCH_CUTOFF
    c_safe = np.where(linear, 1.0, C)
    growth = np.exp(k)
    exact = (B / c_safe) * np.expm1(k) + A**power * growth
    approx = power * B * dt + A**power
    return np.where(linear, approx, exact)


def wf_cosine_solution(A, rate, dt):
    """Return |cos(y(dt)/2)| for y' = rate * cot(y/2), y(0) = A.

    Equals |cos(A/2)| * exp(-rate*dt/2): the cosine of the half-angle decays
    exponentially at half the drift rate.
    """
    return np.abs(np.cos(np.asarray(A, float) / 2.0)) * np.exp(-rate * dt / 2.0)
