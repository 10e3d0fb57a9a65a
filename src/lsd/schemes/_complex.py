"""Complex-plane continuation for companion schemes.

Some of the competitor schemes take square roots of quantities that can go
negative under stressed parameters.  Rather than abort, the computation
continues in the complex plane and the caller reports the real part and raises
a non-real flag, which is how those schemes are diagnosed.  States are numpy
arrays (0-d for a lone state), so the results are arrays or numpy scalars.
"""

import numpy as np


def sqrt_with_fallback(radicand):
    """Complex square root of the radicand, whatever its values.

    Returns ``(root, nonreal)``: ``root`` is always complex, so a path runs
    the same arithmetic whether or not its batch-mates leave the real line,
    and ``nonreal`` is a boolean mask shaped like the radicand, marking
    entries that were negative or already had an imaginary part.
    """
    rad = np.asarray(radicand)
    nonreal = (rad.imag != 0) | (rad.real < 0)
    return np.sqrt(np.asarray(rad, complex)), nonreal
