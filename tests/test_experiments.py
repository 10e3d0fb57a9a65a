import math
import re

import numpy as np
import pytest

import lsd.experiments
from lsd.errors import (ConfigurationError, DataError, DegenerateStateError,
                        InversionError, NumericError)
from lsd.experiments import (_terminal_batch, difference_trajectories,
                             domain_violation_scan, exact_cir_error_decay,
                             exact_cir_experiment, fit_order, simulate_path,
                             strong_error)
from lsd.models import CirParams
from lsd.schemes import SCHEMES, SchemeId, make_stepper
from lsd.wiener import (cir_effective_increment, generate_lattice,
                        halve_increments, path_seed)
from test_scheme_table import FIXTURE, X0

CIR_LSD1 = SchemeId("cir", "lsd1")
CIR_LSD2 = SchemeId("cir", "lsd2")
SINGLE_DRIVER_ROWS = [k for k, row in SCHEMES.items() if row.drivers == 1]
# Feller badly violated: alf's radicand goes negative and x with it.
STRESSED_CIR = CirParams(1.0, 2.0, 20.0)


def _outcome(run):
    """``(run(), None)``, or ``(None, j)`` if it raises InversionError at step j."""
    try:
        return run(), None
    except InversionError as exc:
        return None, int(re.search(r"at step (\d+)", exc.args[0]).group(1))


class TestSimulatePath:
    def test_empty_grid(self, cir_params):
        res = simulate_path(CIR_LSD1, cir_params, 4.0, 1.0, 0, np.empty(0))
        assert res.values.tolist() == [4.0]
        assert res.times.tolist() == [0.0]

    def test_zero_noise_wf_steady_state(self, wf_params):
        res = simulate_path(SchemeId("wf", "lsd3"), wf_params, 0.5, 1.0, 100,
                            np.zeros(100))
        assert np.all(np.abs(res.values - 0.5) <= 1e-5)

    def test_cir_lsd1_positivity_at_textbook_params(self, cir_params):
        lat = generate_lattice(path_seed(1, 0), 1.0, 10_000, 0)
        res = simulate_path(CIR_LSD1, cir_params, 4.0, 1.0, 10_000,
                            lat.increments)
        assert np.all(res.values > 0)
        assert res.values[0] == 4.0

    def test_driver_too_short(self, cir_params):
        with pytest.raises(ConfigurationError):
            simulate_path(CIR_LSD1, cir_params, 4.0, 1.0, 10, np.zeros(5))

    def test_error_carries_step_index(self, wf_params):
        # force the vanishing-denominator error mid-path
        y = 0.05
        x0 = wf_params.inverse(y)
        cot = 1.0 / math.tan(0.5 * y)
        c = (wf_params.a / y) * cot - (wf_params.b / y) * math.tan(0.5 * y)
        with pytest.raises(Exception, match="at step 0"):
            simulate_path(SchemeId("wf", "lsd2"), wf_params, x0, 1.0 / c, 1,
                          np.zeros(1))

    def test_error_keeps_its_type_and_bracket(self, wf_params):
        # from x0 = 0.999 the target lies above the printed map's maximum
        with pytest.raises(
                InversionError,
                match=r"wf:implicit_printed, dt=0\.01, at step 0: ") as excinfo:
            simulate_path(SchemeId("wf", "implicit_printed"), wf_params, 0.999,
                          0.01, 1, np.array([5.0]))
        assert excinfo.value.bracket is not None

    @pytest.mark.parametrize("key", SINGLE_DRIVER_ROWS,
                             ids=lambda k: f"{k[0]}:{k[1]}")
    def test_batch_matches_single_path(self, key, request):
        # simulate_path runs its path as a batch of one, so every recorded x
        # equals, to the last bit, that path's column in a batch of eight.
        # The wf:implicit_printed map has no preimage for some targets; there
        # the batch must stop at the first step at which a lone path stops.
        model, variant = key
        scheme = SchemeId(model, variant)
        params = request.getfixturevalue(FIXTURE[model])
        x0, n = X0[model], 256
        inc = np.stack([generate_lattice(path_seed(9, i), 1.0, n, 0).increments
                        for i in range(8)])
        batch = np.empty((n + 1, 8))
        batch[0] = x0
        _, stop = _outcome(lambda: _terminal_batch(
            make_stepper(scheme, params), x0, 1.0 / n, inc, values=batch))
        recorded = n + 1 if stop is None else stop + 1
        stops = []
        for row, column in zip(inc, batch.T):
            single, at = _outcome(
                lambda: simulate_path(scheme, params, x0, 1.0, n, row))
            if single is not None:
                np.testing.assert_array_equal(single.values[:recorded],
                                              column[:recorded])
            stops.append(at)
        assert stop == min((s for s in stops if s is not None), default=None)

    def test_complex_fallback_does_not_depend_on_batch_mates(self):
        alf = SchemeId("cir", "alf")
        inc = np.stack([generate_lattice(path_seed(6, i), 1.0, 100, 0).increments
                        for i in range(64)])
        batch = _terminal_batch(make_stepper(alf, STRESSED_CIR), 4.0, 0.01, inc)
        alone = [simulate_path(alf, STRESSED_CIR, 4.0, 1.0, 100, row).values[-1]
                 for row in inc]
        np.testing.assert_array_equal(batch, alone)

    def test_counts_negative_states(self):
        lat = generate_lattice(path_seed(6, 0), 1.0, 100, 0)
        res = simulate_path(SchemeId("cir", "alf"), STRESSED_CIR, 4.0, 1.0,
                            100, lat.increments)
        assert res.negative_count == np.count_nonzero(res.values < 0) == 85

    def test_two_driver_batch_matches_single_paths(self, cir_ou_params):
        exact_ou = SchemeId("cir", "exact_ou")
        inc = np.stack([generate_lattice(path_seed(9, i), 1.0, 64, 0,
                                         drivers=2).increments
                        for i in range(3)])
        batch = _terminal_batch(make_stepper(exact_ou, cir_ou_params), 4.0,
                                1.0 / 64, inc)
        for i in range(3):
            single = simulate_path(exact_ou, cir_ou_params, 4.0, 1.0, 64, inc[i])
            assert batch[i] == single.values[-1]


class TestFitOrder:
    def test_exact_linear(self):
        dts = np.array([0.1, 0.05, 0.025, 0.0125])
        slope, intercept = fit_order(dts, dts)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)

    def test_half_order_with_prefactor(self):
        dts = np.array([0.1, 0.05, 0.025])
        slope, intercept = fit_order(dts, 3.0 * np.sqrt(dts))
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_two_point_slope(self):
        slope, _ = fit_order([1e-2, 1e-3], [1e-2, 1.1e-3])
        assert slope == pytest.approx(0.95860731484177496, abs=1e-12)

    def test_synthetic_injection_recovers_unit_slope(self):
        # pretend every terminal value sits exactly dt above the reference
        dts = np.array([2.0**-k for k in range(4, 10)])
        rms = dts.copy()
        slope, _ = fit_order(dts, rms)
        assert abs(slope - 1.0) <= 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            fit_order([0.1, 0.05], [0.0, 0.01])
        with pytest.raises(DataError):
            fit_order([0.1], [0.01])


class TestStrongError:
    def test_zero_error_against_self(self, cir_params):
        rep = strong_error(CIR_LSD1, CIR_LSD1, cir_params, 4.0, 1.0, [0.25],
                           0.25, M=4, seed=3)
        assert rep.rms_errors[0] == 0.0
        assert math.isnan(rep.slope)

    def test_non_finite_level_raises(self, cir_params):
        # from x0 near the largest float both terminal values overflow
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match=r"cir:lsd1 .*dt=\[.*0\.25\]"):
            strong_error(CIR_LSD1, CIR_LSD2, cir_params, 1.7e308, 1.0,
                         [0.5, 0.25], 0.125, M=4, seed=3)

    def test_rerun_is_identical(self, cir_params):
        # M = 300 spans two batches of paths
        kwargs = dict(x0=4.0, T=1.0, step_sizes=[2.0**-4, 2.0**-5],
                      ref_step=2.0**-8, M=300, seed=12)
        a = strong_error(CIR_LSD2, CIR_LSD1, cir_params, **kwargs)
        b = strong_error(CIR_LSD2, CIR_LSD1, cir_params, **kwargs)
        np.testing.assert_array_equal(a.rms_errors, b.rms_errors)
        np.testing.assert_array_equal(a.stderrs, b.stderrs)

    def test_batches_are_summed_in_path_order(self, cir_params):
        # the rms is built from per-batch sums over paths 0..255 and
        # 256..299, added in that order; at this seed one sum over all 300
        # paths differs in the last bits at both levels
        T, ref_step, M, seed = 1.0, 2.0**-8, 300, 2
        rep = strong_error(CIR_LSD2, CIR_LSD1, cir_params, 4.0, T,
                           [2.0**-4, 2.0**-5], ref_step, M=M, seed=seed)
        run = make_stepper(CIR_LSD2, cir_params)
        ref = make_stepper(CIR_LSD1, cir_params)
        for dt, rms in zip(rep.step_sizes, rep.rms_errors):
            sum2 = 0.0
            for lo, hi in ((0, 256), (256, 300)):
                inc = np.stack([generate_lattice(path_seed(seed, i), T, 16,
                                                 4).increments
                                for i in range(lo, hi)])
                x_ref = _terminal_batch(ref, 4.0, ref_step, inc)
                inc_dt = halve_increments(inc, round(math.log2(dt / ref_step)))
                x_dt = _terminal_batch(run, 4.0, dt, inc_dt)
                sum2 += float(np.sum((x_dt - x_ref) ** 2))
            assert rms == math.sqrt(sum2 / M)

    def test_error_names_scheme_dt_step_and_paths(self, wf_params):
        # from x0 = 0.999 the first reference step's target lies above the
        # printed map's maximum
        wf_printed = SchemeId("wf", "implicit_printed")
        with pytest.raises(
                InversionError,
                match=r"wf:implicit_printed, dt=0\.125, at step 0, paths 0\.\.3: ",
        ) as excinfo:
            strong_error(wf_printed, wf_printed, wf_params, 0.999, 1.0,
                         [0.5, 0.25], 0.125, M=4, seed=3)
        assert excinfo.value.bracket is not None

    def test_non_dyadic_ladder_rejected(self, cir_params):
        with pytest.raises(ConfigurationError):
            strong_error(CIR_LSD1, CIR_LSD1, cir_params, 4.0, 1.0, [0.3],
                         0.1, M=4, seed=1)
        with pytest.raises(ConfigurationError):
            strong_error(CIR_LSD1, CIR_LSD1, cir_params, 4.0, 1.0, [0.25],
                         0.25 / 3.0, M=4, seed=1)

    def test_empty_ladder_rejected(self, cir_params, cir_ou_params):
        with pytest.raises(ConfigurationError, match="empty"):
            strong_error(CIR_LSD1, CIR_LSD1, cir_params, 4.0, 1.0, [], 0.125,
                         M=4, seed=1)
        with pytest.raises(ConfigurationError, match="empty"):
            exact_cir_error_decay(cir_ou_params, 4.0, 0.5, [], 1.0, M=4,
                                  seed=1, scheme=CIR_LSD1)

    def test_requires_two_paths(self, cir_params):
        with pytest.raises(ConfigurationError):
            strong_error(CIR_LSD1, CIR_LSD1, cir_params, 4.0, 1.0, [0.25],
                         0.125, M=1, seed=1)

    def test_desk_scale_order_near_one(self, cir_params):
        rep = strong_error(CIR_LSD2, CIR_LSD1, cir_params, 4.0, 1.0,
                           [2.0**-k for k in range(5, 9)], 2.0**-12, M=100,
                           seed=5)
        assert 0.7 <= rep.slope <= 1.3

    @pytest.mark.parametrize("model_case", [
        ("cir", "lsd1", "lsd2"),
        ("cev", "lsd1", "lsd2"),
        ("wf", "lsd1", "lsd2"),
        ("heston32", "lsd1", "lsd2"),
        ("ait", "lsd1", "lsd2"),
    ], ids=lambda c: c[0])
    def test_cross_variant_difference_halves(self, model_case, cir_params,
                                             cev_params, wf_params,
                                             heston_params, ait_params):
        model, va, vb = model_case
        params = {"cir": cir_params, "cev": cev_params, "wf": wf_params,
                  "heston32": heston_params, "ait": ait_params}[model]
        x0 = {"cir": 4.0, "cev": 1.0 / 16.0, "wf": 0.5, "heston32": 1.0,
              "ait": 4.0}[model]
        sa = make_stepper(SchemeId(model, va), params)
        sb = make_stepper(SchemeId(model, vb), params)
        M, T = 200, 1.0
        inc = np.stack([generate_lattice(path_seed(5, i), T, 64, 1).increments
                        for i in range(M)])
        rms = {}
        for level, halvings in ((1, 0), (0, 1)):
            inc_l = halve_increments(inc, halvings)
            dt = T / (64 << level)
            xa = _terminal_batch(sa, x0, dt, inc_l)
            xb = _terminal_batch(sb, x0, dt, inc_l)
            rms[level] = math.sqrt(float(np.mean((xa - xb) ** 2)))
        ratio = rms[0] / rms[1]
        assert 1.5 <= ratio <= 3.0


class TestDifferenceTrajectories:
    def test_identical_schemes_give_zero(self, cir_params):
        series = difference_trajectories(CIR_LSD1, CIR_LSD1, cir_params, 4.0,
                                         1.0, [1e-2], seed=2)
        assert np.all(series[0].diffs == 0.0)

    def test_model_mismatch(self, cir_params):
        with pytest.raises(ConfigurationError):
            difference_trajectories(CIR_LSD1, SchemeId("cev", "lsd1"),
                                    cir_params, 4.0, 1.0, [1e-2], seed=2)

    def test_zero_noise_gap_scales_with_dt(self, cir_params):
        # both variants discretise the same transformed flow to first order
        peaks = {}
        for dt in (1e-2, 1e-3):
            n = round(1.0 / dt)
            pa = simulate_path(CIR_LSD1, cir_params, 4.0, 1.0, n, np.zeros(n))
            pb = simulate_path(CIR_LSD2, cir_params, 4.0, 1.0, n, np.zeros(n))
            peaks[dt] = np.max(np.abs(pa.values - pb.values)) / dt
        assert max(peaks.values()) <= 2.0 * min(peaks.values())

    def test_lsd_vs_companion_stays_sane(self, cir_params):
        series = difference_trajectories(CIR_LSD1, SchemeId("cir", "sd_theta"),
                                         cir_params, 4.0, 1.0, [1e-4], seed=2)
        pa = simulate_path(
            CIR_LSD1, cir_params, 4.0, 1.0, 10_000,
            generate_lattice(path_seed(2, 0), 1.0, 10_000, 0).increments)
        assert np.max(np.abs(series[0].diffs)) < np.max(pa.values)


class TestExactCir:
    def test_identity_holds_exactly(self):
        p = CirParams(2.0, 2.0, 2.0)
        res = exact_cir_experiment(p, 4.0, 0.5, 1e-2, 1.0, seed=4,
                                   schemes=[CIR_LSD1])
        np.testing.assert_array_equal(res.x1**2 + res.x2**2, res.exact)

    def test_split_symmetry(self):
        p = CirParams(2.0, 2.0, 2.0)
        a = exact_cir_experiment(p, 4.0, 0.5, 1e-2, 1.0, seed=4, schemes=[])
        b = exact_cir_experiment(p, 4.0, 0.25, 1e-2, 1.0, seed=4, schemes=[])
        assert a.exact[0] == pytest.approx(4.0, rel=1e-15)
        assert b.exact[0] == pytest.approx(4.0, rel=1e-15)
        assert a.x1[0] != b.x1[0]

    def test_dimension_guard(self, cir_params):
        with pytest.raises(ConfigurationError):
            exact_cir_experiment(cir_params, 4.0, 0.5, 1e-2, 1.0, seed=4,
                                 schemes=[])

    def test_schemes_ride_the_effective_increments(self, cir_ou_params):
        # each scheme path is the single path driven by the increments
        # rebuilt from the OU pair at the left end of every step
        ids = [CIR_LSD1, SchemeId("cir", "alf")]
        res = exact_cir_experiment(cir_ou_params, 4.0, 0.5, 1e-2, 1.0, seed=4,
                                   schemes=ids)
        inc = generate_lattice(path_seed(4, 0), 1.0, 100, 0,
                               drivers=2).increments
        dw = cir_effective_increment(res.x1[:-1], res.x2[:-1], *inc)
        for s in ids:
            path = simulate_path(s, cir_ou_params, 4.0, 1.0, 100, dw)
            np.testing.assert_array_equal(res.schemes[s.variant], path.values)

    def test_decay_error_names_scheme_dt_step_and_paths(self, cir_ou_params,
                                                        monkeypatch):
        real, calls = cir_effective_increment, [0]

        def failing(*args):
            calls[0] += 1
            if calls[0] == 6:   # dt = 0.25 takes the first four calls
                raise DegenerateStateError("forced")
            return real(*args)

        monkeypatch.setattr(lsd.experiments, "cir_effective_increment", failing)
        with pytest.raises(
                DegenerateStateError,
                match=r"^cir:exact_ou \+ cir:lsd1, dt=0\.125, at step 1, "
                      r"paths 0\.\.3: forced$"):
            exact_cir_error_decay(cir_ou_params, 4.0, 0.5, [0.25, 0.125], 1.0,
                                  M=4, seed=1, scheme=CIR_LSD1)

    @pytest.mark.parametrize("M", [0, -3])
    def test_decay_requires_a_path(self, cir_ou_params, M):
        with pytest.raises(ConfigurationError, match=rf"M={M}\b"):
            exact_cir_error_decay(cir_ou_params, 4.0, 0.5, [1e-2], 1.0, M=M,
                                  seed=1, scheme=CIR_LSD1)

    def test_decay_is_deterministic(self):
        # M = 300 spans two batches of paths
        p = CirParams(2.0, 2.0, 2.0)
        kwargs = dict(x0=4.0, m_split=0.5, step_sizes=[1e-2, 5e-3], T=1.0,
                      M=300, seed=9, scheme=CIR_LSD1)
        a = exact_cir_error_decay(p, **kwargs)
        b = exact_cir_error_decay(p, **kwargs)
        assert a == b


class TestScan:
    def test_lsd_clean_under_feller(self, cir_params):
        ids = [SchemeId("cir", v) for v in ("lsd1", "lsd2", "lsd3")]
        scan = domain_violation_scan(ids, cir_params, [1e-2], 1.0, 20, seed=6,
                                     x0=4.0)
        for s in ids:
            counters = scan[str(s)][1e-2]
            assert counters.negative_states == 0
            assert counters.non_real_events == 0
            assert counters.clamp_events == 0

    def test_rerun_is_identical(self):
        # M = 300 spans two batches of paths
        p = CirParams(1.0, 2.0, 10.0)
        ids = [SchemeId("cir", "alf")]
        a = domain_violation_scan(ids, p, [1e-2], 1.0, 300, seed=6, x0=4.0)
        b = domain_violation_scan(ids, p, [1e-2], 1.0, 300, seed=6, x0=4.0)
        assert a[str(ids[0])][1e-2] == b[str(ids[0])][1e-2]

    @pytest.mark.parametrize("M", [0, -3])
    def test_requires_a_path(self, cir_params, M):
        with pytest.raises(ConfigurationError, match=rf"M={M}\b"):
            domain_violation_scan([CIR_LSD1], cir_params, [1e-2], 1.0, M,
                                  seed=6)
