"""Seeded Brownian increments on a dyadic multi-resolution lattice.

A lattice holds the increments of one or two independent Wiener processes at
the finest resolution ``base_steps * 2**levels``; the caller that drew it
knows its seed, horizon and step count, so the lattice stores only the
increments.  Coarser resolutions are obtained by summing adjacent fine
increments, so simulations run at different step sizes all see the same
underlying Brownian path.  That coupling is what makes pathwise strong-error
estimates possible.

Gaussian draws come from numpy's PCG64 generator (ziggurat normal sampling),
which is fixed for this build; all statistical acceptance checks are tolerant
of the sampler as long as it is exact.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateStateError


@dataclass(frozen=True, eq=False)
class WienerLattice:
    """Increments of one or two Wiener processes over [0, horizon].

    ``increments`` has shape ``(n,)`` for one driver and ``(2, n)`` for two,
    where ``n = base_steps * 2**levels``; a tile of P paths puts a path axis
    of P first.  Each entry is N(0, horizon / n).  Instances are immutable.
    """

    increments: np.ndarray


def generate_lattice(seed, horizon, base_steps, levels, drivers=1) -> WienerLattice:
    """Draw a fresh lattice; the same seed always yields identical increments.

    Increments are generated once at the finest level only; coarser levels are
    derived by exact summation in :func:`halve_increments`.  ``seed`` is a
    non-negative integer or a ``numpy.random.Generator``, which the draw
    advances: consecutive draws from one generator continue one stream, so
    2^j draws of ``(horizon / 2**j, n >> j)`` join into the lattice
    ``(horizon, n)`` that its integer seed gives, bit for bit.  A sequence
    of P of them draws a tile: row i is the lattice of ``seed[i]``, bit for
    bit.  Each generator fills its own row, and the tile is scaled once.
    """
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    if base_steps < 1:
        raise ConfigurationError(f"base_steps must be >= 1, got {base_steps}")
    if levels < 0:
        raise ConfigurationError(f"levels must be >= 0, got {levels}")
    if drivers not in (1, 2):
        raise ConfigurationError(f"drivers must be 1 or 2, got {drivers}")
    n = base_steps << levels
    one = isinstance(seed, (int, np.integer, np.random.Generator))
    paths = () if one else (len(seed),)
    shape = (*paths, n) if drivers == 1 else (*paths, 2, n)
    out = np.empty(shape)
    for s, row in zip([seed] if one else seed, out[np.newaxis] if one else out):
        if not isinstance(s, np.random.Generator) and s < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {s}")
        np.random.default_rng(s).standard_normal(out=row)
    out *= np.sqrt(horizon / n)
    return WienerLattice(out)


def halve_increments(increments: np.ndarray, times: int) -> np.ndarray:
    """Sum adjacent pairs along the last axis ``times`` times.

    Halving a lattice's increments ``L - l`` times gives them at level ``l``:
    entry k sums fine increments ``2**(L-l)*k .. 2**(L-l)*(k+1)-1`` pairwise.
    Halvings compose bit for bit: halving a times and then b more gives the
    floats of halving a + b times, so a ladder can be coarsened finest-first.
    The last axis must have a multiple of ``2**times`` entries.
    """
    n = increments.shape[-1]
    if times < 0 or n % (1 << times):
        raise ConfigurationError(f"cannot halve {n} increments {times} times")
    out = increments
    for _ in range(times):
        out = out[..., 0::2] + out[..., 1::2]
    return out


def path_seed(master_seed: int, path_index: int) -> int:
    """Derive the per-path stream seed from a master seed and a path index.

    The mixing goes through ``numpy.random.SeedSequence`` so the result does
    not depend on execution order, thread count, or platform.
    """
    state = np.random.SeedSequence(entropy=(int(master_seed), int(path_index)))
    lo, hi = state.generate_state(2, np.uint32)
    return (int(hi) << 32) | int(lo)


def cir_effective_increment(x1, x2, dw1, dw2):
    """One-dimensional driving increment reconstructed from two drivers.

    Returns ``(x1*dw1 + x2*dw2) / sqrt(x1**2 + x2**2)``.  For fixed (x1, x2)
    and i.i.d. N(0, dt) inputs the result is again N(0, dt), which is why the
    sum-of-squared-OU construction and the one-dimensional schemes can share a
    driving path.
    """
    norm_sq = x1 * x1 + x2 * x2
    if not np.asarray(norm_sq).all():
        raise DegenerateStateError("effective increment undefined at x1 = x2 = 0")
    return (x1 * dw1 + x2 * dw2) / np.sqrt(norm_sq)
