import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsd.errors import ConfigurationError, DegenerateStateError
from lsd.wiener import (cir_effective_increment, generate_lattice,
                        halve_increments, path_seed)


def _at_level(lat, finest, level):
    """The increments of a lattice drawn ``finest`` levels deep at a coarser level."""
    return halve_increments(lat.increments, finest - level)


class TestGenerate:
    def test_shape_and_variance_scale(self):
        lat = generate_lattice(1, 1.0, 4, 0)
        assert lat.increments.shape == (4,)
        assert 1.0 / lat.increments.size == 0.25
        # increments are standard normals scaled by sqrt(dt), nothing else
        ref = np.random.default_rng(np.random.SeedSequence(1)).standard_normal(4) * 0.5
        np.testing.assert_array_equal(lat.increments, ref)

    def test_deterministic(self):
        a = generate_lattice(7, 2.0, 8, 3, drivers=2)
        b = generate_lattice(7, 2.0, 8, 3, drivers=2)
        np.testing.assert_array_equal(a.increments, b.increments)
        assert a.increments.shape == (2, 64)

    @pytest.mark.parametrize("n", [1, 7, 100, 2**14])
    def test_first_of_two_drivers_is_the_one_driver_lattice(self, n):
        # simulate_paths hands a one-driver scheme the first driver
        for seed in (0, 1, 7, path_seed(3, 2), 2**63):
            one = generate_lattice(seed, 1.0, n, 0).increments
            two = generate_lattice(seed, 1.0, n, 0, drivers=2).increments
            assert two[0].tobytes() == one.tobytes()

    @pytest.mark.parametrize("j", range(11))
    def test_chunks_from_one_generator_join_into_the_lattice(self, j):
        # T = 0.7 is not dyadic; dividing T and n by 2^j keeps sqrt(T / n)
        T, n, seed = 0.7, 3 << 10, path_seed(5, 1)
        rng = np.random.default_rng(seed)
        chunks = [generate_lattice(rng, T / 2**j, n >> j, 0).increments
                  for _ in range(2**j)]
        whole = generate_lattice(seed, T, n, 0).increments
        assert np.concatenate(chunks).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("drivers", [1, 2])
    @pytest.mark.parametrize("paths", [1, 3])
    def test_tile_rows_are_the_per_seed_lattices(self, drivers, paths):
        # tiles of two paths: a tile of one, or a whole tile and a partial one
        seeds = [path_seed(5, i) for i in range(paths)]
        rngs = [np.random.default_rng(s) for s in seeds]
        tiles = [generate_lattice(rngs[g:g + 2], 0.7, 3, 1,
                                  drivers=drivers).increments
                 for g in range(0, paths, 2)]
        shape = (6,) if drivers == 1 else (2, 6)
        assert [t.shape for t in tiles] == [(len(seeds[g:g + 2]), *shape)
                                           for g in range(0, paths, 2)]
        rows = np.concatenate(tiles)
        for s, row in zip(seeds, rows):
            one = generate_lattice(s, 0.7, 3, 1, drivers=drivers).increments
            assert row.tobytes() == one.tobytes()
        # integer seeds draw the same rows
        whole = generate_lattice(seeds, 0.7, 3, 1, drivers=drivers).increments
        assert whole.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("kwargs", [
        dict(horizon=0.0, base_steps=4, levels=0),
        dict(horizon=1.0, base_steps=0, levels=0),
        dict(horizon=1.0, base_steps=4, levels=-1),
        dict(horizon=1.0, base_steps=4, levels=0, drivers=3),
    ])
    def test_invalid_sizes_for_a_tile(self, kwargs):
        rngs = [np.random.default_rng(s) for s in (1, 2)]
        with pytest.raises(ConfigurationError):
            generate_lattice(rngs, **kwargs)
        # no generator was advanced
        assert rngs[0].standard_normal() == np.random.default_rng(1).standard_normal()

    def test_negative_seed_in_a_tile_is_rejected_by_name(self):
        with pytest.raises(ConfigurationError,
                           match=r"^seed must be a non-negative integer, got -3$"):
            generate_lattice([2, -3], 1.0, 4, 0)

    def test_negative_seed_is_rejected_by_name(self):
        with pytest.raises(ConfigurationError,
                           match=r"^seed must be a non-negative integer, got -3$"):
            generate_lattice(-3, 1.0, 4, 0)

    def test_distinct_seeds_decorrelated(self):
        n = 10_000
        a = generate_lattice(1, 1.0, n, 0).increments
        b = generate_lattice(2, 1.0, n, 0).increments
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.1

    @pytest.mark.parametrize("kwargs", [
        dict(seed=1, horizon=0.0, base_steps=4, levels=0),
        dict(seed=1, horizon=1.0, base_steps=0, levels=0),
        dict(seed=1, horizon=1.0, base_steps=4, levels=-1),
        dict(seed=1, horizon=1.0, base_steps=4, levels=0, drivers=3),
        dict(seed=-1, horizon=1.0, base_steps=4, levels=0),
    ])
    def test_invalid_sizes(self, kwargs):
        with pytest.raises(ConfigurationError):
            generate_lattice(**kwargs)


class TestCoarsen:
    def test_pairwise_definition(self):
        lat = generate_lattice(3, 1.0, 2, 1)
        a, b, c, d = lat.increments
        np.testing.assert_array_equal(_at_level(lat, 1, 0), [a + b, c + d])

    def test_identity_at_finest(self):
        lat = generate_lattice(3, 1.0, 2, 2)
        np.testing.assert_array_equal(_at_level(lat, 2, 2), lat.increments)

    def test_level_out_of_range(self):
        lat = generate_lattice(3, 1.0, 2, 1)
        with pytest.raises(ConfigurationError):
            _at_level(lat, 1, 2)
        with pytest.raises(ConfigurationError):
            halve_increments(lat.increments, 3)

    def test_total_sum_preserved(self):
        # telescoping: exact block sums reassemble to the same total; allow
        # only representation error of the coarse entries
        lat = generate_lattice(11, 1.0, 16, 6)
        total_fine = math.fsum(lat.increments)
        for level in range(6 + 1):
            total = math.fsum(_at_level(lat, 6, level))
            tol = 4 * np.spacing(np.abs(lat.increments).sum())
            assert abs(total - total_fine) <= tol

    def test_block_sums_exact(self):
        # each coarse entry is the block sum up to summation-tree roundoff;
        # ulp is measured at the magnitude the summation works at, so blocks
        # that nearly cancel are still judged fairly
        lat = generate_lattice(5, 2.0, 8, 8)
        fine = lat.increments
        for level in (0, 3, 7):
            coarse = _at_level(lat, 8, level)
            width = 2 ** (8 - level)
            for k in range(coarse.size):
                block = fine[k * width:(k + 1) * width]
                exact = math.fsum(block)
                tol = 4 * np.spacing(np.abs(block).sum())
                assert abs(coarse[k] - exact) <= tol

    def test_two_driver_coarsening(self):
        lat = generate_lattice(9, 1.0, 4, 2, drivers=2)
        coarse = _at_level(lat, 2, 1)
        assert coarse.shape == (2, 8)
        np.testing.assert_array_equal(
            coarse, lat.increments[:, 0::2] + lat.increments[:, 1::2])

    @given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2,
                    max_size=64).filter(lambda v: len(v) % 2 == 0))
    def test_single_halving_is_exact_pair_sum(self, values):
        arr = np.array(values)
        out = halve_increments(arr, 1)
        for k in range(out.size):
            assert out[k] == arr[2 * k] + arr[2 * k + 1]

    @given(st.data(), st.sampled_from([(), (2,)]), st.integers(0, 3),
           st.integers(0, 3))
    def test_halvings_compose(self, data, drivers, a, b):
        # halving a times and then b more gives the floats of halving a + b
        # times, for one driver and for two: the ladder is coarsened
        # finest-first, each level from the one before it
        n = data.draw(st.integers(1, 4)) << (a + b)
        inc = data.draw(arrays(np.float64, drivers + (n,),
                               elements=st.floats(-1e3, 1e3)))
        twice = halve_increments(halve_increments(inc, a), b)
        once = halve_increments(inc, a + b)
        assert twice.shape == once.shape == drivers + (n >> (a + b),)
        assert twice.tobytes() == once.tobytes()

    def test_variance_scaling(self):
        # pool several lattices so every level has >= 10^4 samples
        T, base, levels = 2.0, 4096, 2
        pooled = {lv: [] for lv in range(levels + 1)}
        for seed in (101, 102, 103):
            lat = generate_lattice(seed, T, base, levels)
            for lv in range(levels + 1):
                pooled[lv].append(_at_level(lat, levels, lv))
        for lv, chunks in pooled.items():
            samples = np.concatenate(chunks)
            assert samples.size >= 10_000
            expected = T / (base << lv)
            assert abs(samples.var() - expected) <= 0.05 * expected


class TestEffectiveIncrement:
    def test_symmetric(self):
        assert cir_effective_increment(1.0, 1.0, 0.3, 0.3) == pytest.approx(
            math.sqrt(2.0) * 0.3, rel=1e-15)

    def test_single_driver_collapse(self):
        assert cir_effective_increment(2.0, 0.0, 0.17, 0.9) == pytest.approx(0.17)

    def test_direct_arithmetic(self):
        assert cir_effective_increment(3.0, 4.0, 0.1, -0.2) == pytest.approx(
            -0.1, abs=1e-16)

    def test_degenerate(self):
        with pytest.raises(DegenerateStateError):
            cir_effective_increment(0.0, 0.0, 0.1, 0.1)
        # one zero pair among non-zero pairs of a batch
        x1, x2 = np.array([1.0, 0.0, 3.0]), np.array([2.0, 0.0, 0.0])
        with pytest.raises(DegenerateStateError):
            cir_effective_increment(x1, x2, np.ones(3), np.ones(3))
        with pytest.raises(DegenerateStateError):
            cir_effective_increment(-0.0, 0.0, 0.1, 0.1)

    def test_standard_normal_law(self, rng):
        # fixed direction, i.i.d. N(0, dt) inputs -> output is N(0, dt)
        n, dt = 10_000, 0.01
        dw = rng.standard_normal((2, n)) * math.sqrt(dt)
        out = cir_effective_increment(0.6, 2.2, dw[0], dw[1])
        mean_tol = 3.0 * math.sqrt(dt / n)
        var_tol = 3.0 * dt * math.sqrt(2.0 / (n - 1))
        assert abs(out.mean()) <= mean_tol
        assert abs(out.var() - dt) <= var_tol


class TestPathSeed:
    def test_deterministic_and_distinct(self):
        s1 = path_seed(42, 0)
        s2 = path_seed(42, 1)
        assert s1 == path_seed(42, 0)
        assert s1 != s2
        assert 0 <= s1 < 2**64
