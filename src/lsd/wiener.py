"""Seeded Brownian increments on a dyadic multi-resolution lattice.

A lattice holds the increments of one or two independent Wiener processes at
the finest resolution ``base_steps * 2**levels``.  Coarser resolutions are
obtained by summing adjacent fine increments, so simulations run at different
step sizes all see the same underlying Brownian path.  That coupling is what
makes pathwise strong-error estimates possible.

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
    where ``n = base_steps * 2**finest_level``.  Each entry is N(0, fine_dt).
    Instances are immutable.
    """

    seed: int
    horizon: float
    base_steps: int
    finest_level: int
    increments: np.ndarray

    @property
    def drivers(self) -> int:
        return 1 if self.increments.ndim == 1 else self.increments.shape[0]

    @property
    def fine_steps(self) -> int:
        return self.base_steps << self.finest_level

    @property
    def fine_dt(self) -> float:
        return self.horizon / self.fine_steps


def generate_lattice(seed, horizon, base_steps, levels, drivers=1) -> WienerLattice:
    """Draw a fresh lattice; the same seed always yields identical increments.

    Increments are generated once at the finest level only; coarser levels are
    derived by exact summation in :func:`halve_increments`.
    """
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    if base_steps < 1:
        raise ConfigurationError(f"base_steps must be >= 1, got {base_steps}")
    if levels < 0:
        raise ConfigurationError(f"levels must be >= 0, got {levels}")
    if drivers not in (1, 2):
        raise ConfigurationError(f"drivers must be 1 or 2, got {drivers}")
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    n = base_steps << levels
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    shape = (n,) if drivers == 1 else (2, n)
    increments = rng.standard_normal(shape) * np.sqrt(horizon / n)
    return WienerLattice(seed=int(seed), horizon=float(horizon),
                         base_steps=int(base_steps), finest_level=int(levels),
                         increments=increments)


def halve_increments(increments: np.ndarray, times: int) -> np.ndarray:
    """Sum adjacent pairs along the last axis ``times`` times.

    Halving a lattice's increments ``L - l`` times gives them at level ``l``:
    entry k is the sum of fine increments ``2**(L-l)*k .. 2**(L-l)*(k+1)-1``,
    accumulated by pairwise halving so the association tree is identical no
    matter which intermediate levels are materialised.  The last axis must
    have a multiple of ``2**times`` entries.
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
    if np.any(norm_sq == 0.0):
        raise DegenerateStateError("effective increment undefined at x1 = x2 = 0")
    return (x1 * dw1 + x2 * dw2) / np.sqrt(norm_sq)
