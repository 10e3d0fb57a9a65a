"""Complex-plane continuation for companion schemes.

Some of the competitor schemes take square roots of quantities that can go
negative under stressed parameters.  Rather than abort, the computation
continues in the complex plane and the caller reports the real part and raises
a non-real flag, which is how those schemes are diagnosed.  States are numpy
arrays (0-d for a lone state), so the results are arrays or numpy scalars.
"""

import numpy as np


def sqrt_with_fallback(radicand):
    """Square root that promotes to complex when the radicand leaves [0, inf).

    Returns ``(root, nonreal)`` where ``nonreal`` is a boolean mask shaped
    like the radicand, marking entries that were negative or already had an
    imaginary part.  One such entry makes the whole root complex.
    """
    rad = np.asarray(radicand)
    if np.iscomplexobj(rad):
        nonreal = (rad.imag != 0) | (rad.real < 0)
        return np.sqrt(rad), nonreal
    nonreal = rad < 0
    if np.any(nonreal):
        return np.sqrt(rad.astype(complex)), nonreal
    return np.sqrt(rad), nonreal
