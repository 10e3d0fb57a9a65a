"""One-step maps for the Heston 3/2 volatility model.

Its LSD and drift-implicit rows run CIR's maps on the reciprocal, with the
(a, b) of :class:`lsd.models.Heston32Params` and -dw; a > 3/2 keeps every
such step positive.  This module keeps the companion that steps x itself.
"""

import numpy as np


def sd_exp_bind(p, dt):
    """Exponential semi-discrete step; positive by construction."""

    def step(x, dw):
        exponent = (p.k1 - p.k2 * x - 0.5 * p.k3**2 * x) * dt + p.k3 * np.sqrt(x) * dw
        return x * np.exp(exponent)
    return step
