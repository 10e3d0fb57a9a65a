"""Complex-plane continuation for companion schemes.

Some of the competitor schemes take square roots of quantities that can go
negative under stressed parameters.  Rather than abort, the computation
continues in the complex plane and the caller reports the real part and raises
a non-real flag, which is how those schemes are diagnosed.  States are numpy
arrays (0-d for a lone state), so the results are arrays or numpy scalars.
The non-real mask, taken on every step, casts the imaginary part to bool:
it marks the roots that ``imag != 0`` marks (NaN does, neither zero does)
at about half the cost per call of that comparison.
"""

import numpy as np


def sqrt_with_fallback(radicand):
    """Complex square root of the radicand, whatever its values.

    Returns ``(root, nonreal)``: ``root`` is always complex, so a path runs
    the same arithmetic whether or not its batch-mates leave the real line,
    and ``nonreal`` is a boolean mask shaped like the radicand, marking the
    roots with a non-zero imaginary part: a negative, complex or NaN radicand's.
    """
    root = np.sqrt(np.asarray(radicand, complex))
    return root, root.imag.astype(bool)
