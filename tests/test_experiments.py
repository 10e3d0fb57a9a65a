import math
import re
import weakref

import numpy as np
import pytest

import lsd.experiments
from lsd.errors import (ConfigurationError, DataError, DegenerateStateError,
                        DomainError, InversionError, NumericError,
                        StepSizeError)
from lsd.experiments import (_BATCH, _CHUNK, _TALLY, ScanCounters, _blocks,
                             _stack, _steps_for, _terminal_batch,
                             domain_violation_scan, exact_cir_error_decay,
                             exact_cir_experiment, fit_order, simulate_path,
                             simulate_paths, strong_error)
from lsd.models import CevParams, CirParams, WfParams
from lsd.schemes import SCHEMES, SchemeId, make_stepper
from lsd.wiener import (cir_effective_increment, generate_lattice,
                        halve_increments, path_seed)
from test_scheme_table import FIXTURE, X0

CIR_LSD1 = SchemeId("cir", "lsd1")
CIR_LSD2 = SchemeId("cir", "lsd2")
CIR_EXACT_OU = SchemeId("cir", "exact_ou")
SINGLE_DRIVER_ROWS = [k for k, row in SCHEMES.items() if row.drivers == 1]
# Feller badly violated: alf's radicand goes negative and x with it.
STRESSED_CIR = CirParams(1.0, 2.0, 20.0)
# Every row whose step returns a mask, with params and x0 under which most
# of them mark paths: cir's and cev's leave the real line, cir's x goes
# negative too, and wf's lsd2-lsd4 fold from x0 near 1.
_WF_NEAR_ONE = (WfParams(0.2, 0.4, 0.6), 0.98)
MASKED_ROWS = {
    **{SchemeId("cir", v): (STRESSED_CIR, 4.0) for v in ("sd_theta", "alf", "ns")},
    SchemeId("cev", "sd_theta"): (CevParams(1e-4, 1.0, 2.0, 0.6), 1.0 / 16.0),
    **{SchemeId("wf", v): _WF_NEAR_ONE
       for v in ("lsd1", "lsd2", "lsd3", "lsd4", "sd", "sd_alt", "biss")},
}


def _to_horizon(stepper, x0, dt, inc, **kwargs):
    """x after a batch run from x0 over the whole lattice ``inc``."""
    state = stepper.init(x0, size=len(inc))
    return stepper.x_of(_terminal_batch(stepper, state, dt, inc, **kwargs))


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

    @pytest.mark.parametrize("variant, error, match", [
        ("lsd2", Exception, "at step 0"),
        ("biss", StepSizeError,
         r"^wf:biss, dt=1\.0, at step 0: balance control width collapsed")],
        ids=["lsd2", "biss"])
    def test_error_carries_step_index(self, wf_params, variant, error, match):
        # lsd2: force the vanishing-denominator error mid-path; biss refuses
        # dt = 1/k1 when it binds, and is named like a step's error
        y = 0.05
        cot = 1.0 / math.tan(0.5 * y)
        c = (wf_params.a / y) * cot - (wf_params.b / y) * math.tan(0.5 * y)
        x0, T = {"lsd2": (wf_params.inverse(y), 1.0 / c),
                 "biss": (0.5, 1.0 / wf_params.k1)}[variant]
        with pytest.raises(error, match=match):
            simulate_path(SchemeId("wf", variant), wf_params, x0, T, 1,
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
        _, stop = _outcome(lambda: _to_horizon(
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
        batch = _to_horizon(make_stepper(alf, STRESSED_CIR), 4.0, 0.01, inc)
        alone = [simulate_path(alf, STRESSED_CIR, 4.0, 1.0, 100, row).values[-1]
                 for row in inc]
        np.testing.assert_array_equal(batch, alone)

    def test_counts_negative_states(self):
        lat = generate_lattice(path_seed(6, 0), 1.0, 100, 0)
        res = simulate_path(SchemeId("cir", "alf"), STRESSED_CIR, 4.0, 1.0,
                            100, lat.increments)
        assert res.counters.negative_states == np.count_nonzero(res.values < 0) == 85

    def test_two_driver_batch_matches_single_paths(self, cir_ou_params):
        exact_ou = SchemeId("cir", "exact_ou")
        inc = np.stack([generate_lattice(path_seed(9, i), 1.0, 64, 0,
                                         drivers=2).increments
                        for i in range(3)])
        batch = _to_horizon(make_stepper(exact_ou, cir_ou_params), 4.0,
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
        rep = strong_error([CIR_LSD1], CIR_LSD1, cir_params, 4.0, 1.0, [0.25],
                           0.25, M=4, seed=3)[0]
        assert rep.rms_errors[0] == 0.0
        assert math.isnan(rep.slope)

    def test_zero_error_level_is_named_as_dropped(self, cir_params):
        rep = strong_error([CIR_LSD1], None, cir_params, 4.0, 1.0,
                           [0.5, 0.25, 0.125], 0.125, M=4, seed=3)[0]
        assert rep.rms_errors[-1] == 0.0 and np.all(rep.rms_errors[:-1] > 0)
        assert rep.dropped_from_fit == [0.125]
        assert rep.slope == fit_order([0.5, 0.25], rep.rms_errors[:-1])[0]

    def test_non_finite_level_raises(self, cir_params):
        # from x0 near the largest float every terminal value overflows; the
        # reference, run first, is checked at the horizon
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError,
                match=r"^cir:lsd2, dt=0\.125, at step 7, paths 0\.\.3: path 0: "
                      r"x is not finite at the horizon$"):
            strong_error([CIR_LSD1], CIR_LSD2, cir_params, 1.7e308, 1.0,
                         [0.5, 0.25], 0.125, M=4, seed=3)

    def test_non_finite_error_raises(self, cir_params):
        # from x0 = 1e200 every x is finite but the squared differences
        # overflow, so the error of every level is infinite
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match=r"^cir:lsd1 against cir:lsd1: non-finite "
                                    r"error at dt=\[0\.5, 0\.25\]$"):
            strong_error([CIR_LSD1], None, cir_params, 1e200, 1.0,
                         [0.5, 0.25], 0.125, M=2, seed=3)

    @pytest.mark.parametrize("dt, steps", [(1e-12, "1e\\+12"),
                                           (1e-300, "1e\\+300")])
    def test_unrunnable_step_count_is_rejected(self, cir_params, dt, steps):
        # one path's lattice would not fit in memory: rejected by name
        # before anything is allocated
        with pytest.raises(ConfigurationError,
                           match=rf"^step {dt} over the horizon 1\.0 gives "
                                 rf"{steps} steps, whose lattice of .* bytes "
                                 rf"exceeds physical memory"):
            strong_error([CIR_LSD1], None, cir_params, 4.0, 1.0, [dt], dt,
                         M=2, seed=0)

    @pytest.mark.parametrize("ref_step", [0.0, -0.001])
    def test_non_positive_reference_step_is_rejected(self, cir_params, ref_step):
        with pytest.raises(ConfigurationError,
                           match=rf"^step {ref_step} is not positive$"):
            strong_error([CIR_LSD1], None, cir_params, 4.0, 1.0, [0.25],
                         ref_step, M=2, seed=0)

    def test_rerun_is_identical(self, cir_params):
        # M = 300 spans two batches of paths
        kwargs = dict(x0=4.0, T=1.0, step_sizes=[2.0**-4, 2.0**-5],
                      ref_step=2.0**-8, M=300, seed=12)
        a = strong_error([CIR_LSD2], CIR_LSD1, cir_params, **kwargs)[0]
        b = strong_error([CIR_LSD2], CIR_LSD1, cir_params, **kwargs)[0]
        np.testing.assert_array_equal(a.rms_errors, b.rms_errors)
        np.testing.assert_array_equal(a.stderrs, b.stderrs)

    def test_batches_are_summed_in_path_order(self, cir_params):
        # the rms is built from per-slice sums over paths 0..255 and
        # 256..299, added in that order; at this seed one sum over all 300
        # paths differs in the last bits at both levels
        T, ref_step, M, seed = 1.0, 2.0**-8, 300, 2
        rep = strong_error([CIR_LSD2], CIR_LSD1, cir_params, 4.0, T,
                           [2.0**-4, 2.0**-5], ref_step, M=M, seed=seed)[0]
        run = make_stepper(CIR_LSD2, cir_params)
        ref = make_stepper(CIR_LSD1, cir_params)
        for dt, rms in zip(rep.step_sizes, rep.rms_errors):
            sum2 = 0.0
            for lo, hi in ((0, 256), (256, 300)):
                inc = np.stack([generate_lattice(path_seed(seed, i), T, 16,
                                                 4).increments
                                for i in range(lo, hi)])
                x_ref = _to_horizon(ref, 4.0, ref_step, inc)
                inc_dt = halve_increments(inc, round(math.log2(dt / ref_step)))
                x_dt = _to_horizon(run, 4.0, dt, inc_dt)
                sum2 += float(np.sum((x_dt - x_ref) ** 2))
            assert rms == math.sqrt(sum2 / M)

    @pytest.mark.parametrize("reference", [None, CIR_LSD1])
    def test_schemes_of_one_call_match_single_calls(self, cir_params,
                                                    reference):
        # M = 300 spans two batches; each batch is drawn once for both
        # schemes and, with a shared reference, runs that reference once
        kwargs = dict(x0=4.0, T=1.0, step_sizes=[2.0**-4, 2.0**-5],
                      ref_step=2.0**-7, M=300, seed=8)
        schemes = [CIR_LSD2, SchemeId("cir", "lsd3")]
        both = strong_error(schemes, reference, cir_params, **kwargs)
        for scheme, rep in zip(schemes, both):
            alone, = strong_error([scheme], reference, cir_params, **kwargs)
            assert rep.reference == (reference or scheme) == alone.reference
            assert rep.rms_errors.tobytes() == alone.rms_errors.tobytes()
            assert rep.stderrs.tobytes() == alone.stderrs.tobytes()
            assert (rep.slope, rep.intercept) == (alone.slope, alone.intercept)

    def test_error_names_scheme_dt_step_and_paths(self, wf_params):
        # from x0 = 0.999 the first reference step's target lies above the
        # printed map's maximum
        wf_printed = SchemeId("wf", "implicit_printed")
        with pytest.raises(
                InversionError,
                match=r"wf:implicit_printed, dt=0\.125, at step 0, paths 0\.\.3: ",
        ) as excinfo:
            strong_error([wf_printed], wf_printed, wf_params, 0.999, 1.0,
                         [0.5, 0.25], 0.125, M=4, seed=3)
        assert excinfo.value.bracket is not None

    def test_error_names_the_failing_path(self, wf_params):
        # only the third path's first increment lifts its target above the
        # printed map's maximum
        inc = np.zeros((4, 2))
        inc[2, 0] = 7.0
        stepper = make_stepper(SchemeId("wf", "implicit_printed"), wf_params)
        with pytest.raises(
                InversionError,
                match=r"^wf:implicit_printed, dt=0\.01, at step 0, "
                      r"paths 8\.\.11: path 10: u=") as excinfo:
            _to_horizon(stepper, 0.5, 0.01, inc, paths=range(8, 12))
        assert excinfo.value.index == 2

    def test_non_dyadic_ladder_rejected(self, cir_params):
        with pytest.raises(ConfigurationError):
            strong_error([CIR_LSD1], CIR_LSD1, cir_params, 4.0, 1.0, [0.3],
                         0.1, M=4, seed=1)
        with pytest.raises(ConfigurationError):
            strong_error([CIR_LSD1], CIR_LSD1, cir_params, 4.0, 1.0, [0.25],
                         0.25 / 3.0, M=4, seed=1)

    def test_empty_ladder_rejected(self, cir_params, cir_ou_params):
        with pytest.raises(ConfigurationError, match="empty"):
            strong_error([CIR_LSD1], CIR_LSD1, cir_params, 4.0, 1.0, [], 0.125,
                         M=4, seed=1)
        with pytest.raises(ConfigurationError, match="empty"):
            exact_cir_error_decay(cir_ou_params, 4.0, 0.5, [], 1.0, M=4,
                                  seed=1, schemes=[CIR_LSD1])

    def test_requires_two_paths(self, cir_params):
        with pytest.raises(ConfigurationError):
            strong_error([CIR_LSD1], CIR_LSD1, cir_params, 4.0, 1.0, [0.25],
                         0.125, M=1, seed=1)

    def test_desk_scale_order_near_one(self, cir_params):
        rep = strong_error([CIR_LSD2], CIR_LSD1, cir_params, 4.0, 1.0,
                           [2.0**-k for k in range(5, 9)], 2.0**-12, M=100,
                           seed=5)[0]
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
            xa = _to_horizon(sa, x0, dt, inc_l)
            xb = _to_horizon(sb, x0, dt, inc_l)
            rms[level] = math.sqrt(float(np.mean((xa - xb) ** 2)))
        ratio = rms[0] / rms[1]
        assert 1.5 <= ratio <= 3.0


class TestDifferenceTrajectories:
    """The differences ``compare`` writes: two schemes on one path per dt."""

    def test_identical_schemes_give_zero(self, cir_params):
        a, b = simulate_paths([CIR_LSD1, CIR_LSD1], cir_params, 4.0, 1.0,
                              [1e-2], seed=2)[1e-2]
        assert np.all(a.values - b.values == 0.0)

    def test_model_mismatch(self, cir_params):
        with pytest.raises(ConfigurationError):
            simulate_paths([CIR_LSD1, SchemeId("cev", "lsd1")], cir_params,
                           4.0, 1.0, [1e-2], seed=2)

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
        a, b = simulate_paths([CIR_LSD1, SchemeId("cir", "sd_theta")],
                              cir_params, 4.0, 1.0, [1e-4], seed=2)[1e-4]
        pa = simulate_path(
            CIR_LSD1, cir_params, 4.0, 1.0, 10_000,
            generate_lattice(path_seed(2, 0), 1.0, 10_000, 0).increments)
        assert a.values.tobytes() == pa.values.tobytes()
        assert np.max(np.abs(a.values - b.values)) < np.max(pa.values)


class TestSimulatePaths:
    def test_beside_exact_ou_a_scheme_keeps_its_path(self, cir_ou_params):
        exact_ou = SchemeId("cir", "exact_ou")
        dts = [0.01, 0.005]
        alone = simulate_paths([CIR_LSD1], cir_ou_params, 4.0, 1.0, dts, seed=3)
        beside = simulate_paths([exact_ou, CIR_LSD1], cir_ou_params, 4.0, 1.0,
                                dts, seed=3)
        for k, dt in enumerate(dts):
            assert beside[dt][1].values.tobytes() == alone[dt][0].values.tobytes()
            n = _steps_for(1.0, dt)
            dw = generate_lattice(path_seed(3, k), 1.0, n, 0, drivers=2)
            ou = simulate_path(exact_ou, cir_ou_params, 4.0, 1.0, n, dw.increments)
            assert beside[dt][0].values.tobytes() == ou.values.tobytes()

    def test_repeated_dt_is_rejected(self, cir_params):
        # dt number k draws path k, and the results are keyed by dt
        with pytest.raises(ConfigurationError, match="repeat"):
            simulate_paths([CIR_LSD1], cir_params, 4.0, 1.0, [0.1, 0.05, 0.1],
                           seed=1)

    def test_empty_scheme_list_is_rejected(self, cir_params):
        with pytest.raises(ConfigurationError, match="at least one scheme"):
            simulate_paths([], cir_params, 4.0, 1.0, [0.1], seed=1)


@pytest.mark.parametrize("T, dt", [(1.0, 1e-320), (1.0, math.nan),
                                   (math.inf, 0.1)])
def test_steps_for_rejects_a_non_finite_step_count(T, dt):
    with pytest.raises(ConfigurationError, match="no finite step count"):
        _steps_for(T, dt)


@pytest.mark.parametrize("run, lattice_bytes", [
    (lambda M, p: strong_error([CIR_LSD1], None, p, 4.0, 1.0, [2.0**-13, 2.0**-14],
                               2.0**-14, M=M, seed=0), "1.64e+06"),
    (lambda M, p: domain_violation_scan([CIR_LSD1], p, [2.0**-14], 1.0, M,
                                        seed=0, x0=4.0), "1.64e+06"),
    (lambda M, p: exact_cir_error_decay(p, 4.0, 0.5, [2.0**-13, 2.0**-14], 1.0,
                                        M, 0, [CIR_LSD1]), "1.23e+06"),
], ids=["strong_error", "scan", "exact_cir_error_decay"])
def test_memory_guard_counts_the_batch(monkeypatch, cir_ou_params, run,
                                       lattice_bytes):
    # with 1 MiB of memory, two paths' blocks of 2^14 steps fit; a batch of
    # 100 does not.  One driver takes 16 chunks of 1024 steps, 800 KiB for
    # 100 paths, and its draw tile of 100 paths is as large while it fills
    # the chunk, which outweighs the coarsened level; two drivers take 32
    # chunks of 512 steps, 800 KiB for both drivers of 100 paths, beside
    # which the coarsened level and the draw tile of one driver (400 KiB
    # each) weigh the same
    monkeypatch.setattr(lsd.experiments.os, "sysconf",
                        {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.get)
    run(2, cir_ou_params)
    with pytest.raises(ConfigurationError, match=(
            rf"^step {re.escape(str(2.0**-14))} over the horizon 1\.0 gives "
            rf"1\.64e\+04 steps, whose lattice of {re.escape(lattice_bytes)} "
            rf"bytes exceeds physical memory \(1\.05e\+06 bytes\)$")):
        run(100, cir_ou_params)


def test_memory_guard_counts_a_chunked_block(monkeypatch, cir_params):
    # 100 paths of 2^14 steps run in one block of 16 chunks of 1024 steps:
    # 800 KiB of increments and 800 KiB of tile fit in 2 MiB, although 100
    # whole lattices (1.31e+07 bytes) would not
    monkeypatch.setattr(lsd.experiments.os, "sysconf",
                        {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 512}.get)
    counts = domain_violation_scan([CIR_LSD1], cir_params, [2.0**-14], 1.0,
                                   100, seed=0, x0=4.0)
    assert counts == [{2.0**-14: ScanCounters()}]


def test_memory_guard_counts_a_chunked_two_driver_block(monkeypatch,
                                                       cir_ou_params):
    # 64 paths of 2^14 steps and two drivers run in one block of 32 chunks
    # of 512 steps: 512 KiB of finest increments, with 256 KiB of either
    # the coarsened level or a one-driver tile, fit in 1 MiB, although 64
    # whole two-driver lattices and their coarsened level (2.52e+07 bytes)
    # would not
    monkeypatch.setattr(lsd.experiments.os, "sysconf",
                        {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.get)
    means = exact_cir_error_decay(cir_ou_params, 4.0, 0.5,
                                  [2.0**-13, 2.0**-14], 1.0, 64, 0, [CIR_LSD1])
    assert all(math.isfinite(m) for m in means[0].values())


def test_memory_guard_counts_a_widened_block(monkeypatch, cir_params):
    # 2^9 steps are too few to chunk, so 600 paths run in blocks of 512
    # paths, whose 2 MiB of increments, with a tile of 256 paths, do not
    # fit in 1 MiB
    monkeypatch.setattr(lsd.experiments.os, "sysconf",
                        {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.get)
    with pytest.raises(ConfigurationError, match=(
            r"^step 0\.001953125 over the horizon 1\.0 gives 512 steps, whose "
            r"lattice of 3\.15e\+06 bytes exceeds physical memory")):
        strong_error([CIR_LSD1], None, cir_params, 4.0, 1.0, [2.0**-9],
                     2.0**-9, M=600, seed=0)


@pytest.mark.parametrize("run, few, many", [
    (lambda schemes, p: simulate_paths(schemes, p, 4.0, 1.0,
                                       [2.0**-13, 2.0**-14], seed=0),
     [CIR_LSD1], "2.49e+06"),
    (lambda schemes, p: exact_cir_experiment(p, 4.0, 0.5, 2.0**-14, 1.0, 0,
                                             schemes),
     [], "2.75e+06"),
], ids=["simulate_paths", "exact_cir_experiment"])
def test_memory_guard_counts_the_kept_paths(monkeypatch, cir_ou_params, run,
                                            few, many):
    # with 2 MiB of memory, few paths of 2^14 steps fit beside their lattice;
    # the recorded paths of six cir schemes do not
    monkeypatch.setattr(lsd.experiments.os, "sysconf",
                        {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 512}.get)
    run(few, cir_ou_params)
    six = [SchemeId("cir", v) for v in ("lsd1", "lsd2", "lsd3", "sd_theta",
                                        "alf", "ns")]
    with pytest.raises(ConfigurationError, match=(
            rf"^step {re.escape(str(2.0**-14))} over the horizon 1\.0 gives "
            rf"1\.64e\+04 steps, whose lattice of {re.escape(many)} "
            rf"bytes exceeds physical memory \(2\.1e\+06 bytes\)$")):
        run(six, cir_ou_params)


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

    def test_negative_start_is_rejected(self, cir_ou_params):
        with pytest.raises(DomainError):
            exact_cir_experiment(cir_ou_params, -1.0, 0.5, 0.25, 1.0, 1, [])

    def test_dimension_guard(self, cir_params):
        with pytest.raises(ConfigurationError):
            exact_cir_experiment(cir_params, 4.0, 0.5, 1e-2, 1.0, seed=4,
                                 schemes=[])

    def test_theta_other_than_one_is_rejected(self, cir_ou_params):
        # the keyword stays for old callers; every sd_theta row runs at 1
        with pytest.raises(ConfigurationError,
                           match=r"^theta is fixed at 1\.0, got 0\.5$"):
            exact_cir_experiment(cir_ou_params, 4.0, 0.5, 1e-2, 1.0, seed=4,
                                 schemes=[], theta=0.5)

    def test_schemes_ride_the_effective_increments(self, cir_ou_params):
        # each scheme path is the single path driven by the increments
        # rebuilt from the OU pair at the left end of every step
        ids = [CIR_LSD1, SchemeId("cir", "alf")]
        res = exact_cir_experiment(cir_ou_params, 4.0, 0.5, 1e-2, 1.0, seed=4,
                                   schemes=ids)
        inc = generate_lattice(path_seed(4, 0), 1.0, 100, 0,
                               drivers=2).increments
        dw = cir_effective_increment(res.x1[:-1], res.x2[:-1], *inc)
        for s, got in zip(ids, res.schemes, strict=True):
            path = simulate_path(s, cir_ou_params, 4.0, 1.0, 100, dw)
            np.testing.assert_array_equal(got, path.values)

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
                                  M=4, seed=1, schemes=[CIR_LSD1])

    @pytest.mark.parametrize("M", [0, -3])
    def test_decay_requires_a_path(self, cir_ou_params, M):
        with pytest.raises(ConfigurationError, match=rf"M={M}\b"):
            exact_cir_error_decay(cir_ou_params, 4.0, 0.5, [1e-2], 1.0, M=M,
                                  seed=1, schemes=[CIR_LSD1])

    def test_decay_is_deterministic(self):
        # M = 300 spans two batches of paths
        p = CirParams(2.0, 2.0, 2.0)
        kwargs = dict(x0=4.0, m_split=0.5, step_sizes=[1e-2, 5e-3], T=1.0,
                      M=300, seed=9, schemes=[CIR_LSD1])
        a = exact_cir_error_decay(p, **kwargs)
        b = exact_cir_error_decay(p, **kwargs)
        assert a == b


    def test_riders_of_one_call_match_single_calls(self, cir_ou_params):
        kwargs = dict(x0=4.0, m_split=0.5, step_sizes=[1e-2, 5e-3], T=1.0,
                      M=300, seed=9)
        lsd3 = SchemeId("cir", "lsd3")
        both = exact_cir_error_decay(cir_ou_params, schemes=[CIR_LSD1, lsd3],
                                     **kwargs)
        assert both == [
            exact_cir_error_decay(cir_ou_params, schemes=[s], **kwargs)[0]
            for s in (CIR_LSD1, lsd3)]

    def test_repeated_rider_keeps_its_own_path(self, cir_ou_params):
        alf = SchemeId("cir", "alf")
        res = exact_cir_experiment(cir_ou_params, 4.0, 0.5, 1e-2, 1.0, seed=4,
                                   schemes=[CIR_LSD1, alf, CIR_LSD1])
        assert len(res.schemes) == 3
        np.testing.assert_array_equal(res.schemes[2], res.schemes[0])
        assert not np.array_equal(res.schemes[1], res.schemes[0])


def _per_step_counts(scheme, params, x0, T, n, M, seed):
    """The counters of a scan at dt = T / n, taken by a plain loop over the
    stepper's steps, which counts every step as it is made."""
    stepper = make_stepper(scheme, params)
    field = {"non_real": "non_real_events", "clamped": "clamp_events"}[stepper.event]
    inc = np.stack([generate_lattice(path_seed(path_seed(seed, 0), i), T, n,
                                     0).increments for i in range(M)])
    counts = ScanCounters()
    state = stepper.init(x0, size=M)
    for t in range(n):
        state, mask = stepper.step(state, inc[:, t], T / n)
        setattr(counts, field, getattr(counts, field) + int(np.count_nonzero(mask)))
        counts.negative_states += int(np.count_nonzero(stepper.x_of(state) < 0))
    return counts


class TestScan:
    @pytest.mark.parametrize("n", [1, _TALLY - 1, _TALLY, _TALLY + 1, 10_000])
    def test_counters_equal_a_per_step_count(self, n):
        # the scan counts once per block of _TALLY steps; at 10,000 steps its
        # 100 paths run in time chunks of 1250 steps, which no block divides
        fired = set()
        for scheme, (params, x0) in MASKED_ROWS.items():
            scan = domain_violation_scan([scheme], params, [1.0 / n], 1.0, 100,
                                         seed=4, x0=x0)[0][1.0 / n]
            assert scan == _per_step_counts(scheme, params, x0, 1.0, n, 100, 4), scheme
            fired |= {(scheme.model, k) for k, v in vars(scan).items() if v}
        assert fired >= {("cir", "negative_states"), ("cir", "non_real_events"),
                         ("cev", "non_real_events")}
        if n > 1:
            assert ("wf", "clamp_events") in fired

    def test_lsd_clean_under_feller(self, cir_params):
        ids = [SchemeId("cir", v) for v in ("lsd1", "lsd2", "lsd3")]
        scan = domain_violation_scan(ids, cir_params, [1e-2], 1.0, 20, seed=6,
                                     x0=4.0)
        assert len(scan) == len(ids)
        for per_dt in scan:
            counters = per_dt[1e-2]
            assert counters.negative_states == 0
            assert counters.non_real_events == 0
            assert counters.clamp_events == 0

    def test_rerun_is_identical(self):
        # M = 300 spans two batches of paths
        p = CirParams(1.0, 2.0, 10.0)
        ids = [SchemeId("cir", "alf")]
        a = domain_violation_scan(ids, p, [1e-2], 1.0, 300, seed=6, x0=4.0)
        b = domain_violation_scan(ids, p, [1e-2], 1.0, 300, seed=6, x0=4.0)
        assert a[0][1e-2] == b[0][1e-2]

    def test_repeated_scheme_keeps_its_own_result(self):
        alf, ns = SchemeId("cir", "alf"), SchemeId("cir", "ns")
        scan = domain_violation_scan([alf, ns, alf], STRESSED_CIR, [1e-2, 1e-3],
                                     1.0, 100, seed=6, x0=4.0)
        assert len(scan) == 3
        assert scan[2] == scan[0] and scan[2] is not scan[0]
        assert scan[0][1e-2].non_real_events > 0

    @pytest.mark.parametrize("M", [0, -3])
    def test_requires_a_path(self, cir_params, M):
        with pytest.raises(ConfigurationError, match=rf"M={M}\b"):
            domain_violation_scan([CIR_LSD1], cir_params, [1e-2], 1.0, M,
                                  seed=6, x0=4.0)

    def test_repeated_dt_is_rejected(self):
        # dt number k is drawn from path_seed(seed, k): a repeat would shift
        # the later draws and overwrite the first one's counters
        with pytest.raises(ConfigurationError, match="repeat"):
            domain_violation_scan([SchemeId("cir", "alf")], STRESSED_CIR,
                                  [0.01, 0.01, 0.001], 1.0, 20, seed=6, x0=4.0)


def _stack_by_np_stack(states):
    """What ``_stack`` gives, by ``np.stack`` on each part."""
    if isinstance(states[0], (tuple, list)):
        return [_stack_by_np_stack(part) for part in zip(*states)]
    return np.stack(states, axis=-2)


def _leaves(stacked):
    if isinstance(stacked, list):
        return [leaf for part in stacked for leaf in _leaves(part)]
    return [stacked]


@pytest.mark.parametrize("kind", ["real", "complex", "squared_ou"])
def test_stack_equals_np_stack(kind, rng):
    # a held block of 5 steps of 7 paths: a scheme's real or complex
    # states, or the squared-OU pair with a real and a complex rider
    def state():
        x = rng.standard_normal(7)
        if kind == "real":
            return x
        if kind == "complex":
            return x + 1j * rng.standard_normal(7)
        return (rng.standard_normal((2, 7)), [x, np.sqrt(x + 0j)])

    states = [state() for _ in range(5)]
    got, want = _leaves(_stack(states)), _leaves(_stack_by_np_stack(states))
    assert len(got) == len(want) == (3 if kind == "squared_ou" else 1)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


class TestStepWrapper:
    """The engine takes each step through ``stepper.step``, once per step,
    so a wrapper set on the stepper that ``make_stepper`` returns sees every
    step: a tracer that times the schemes' steps wraps it that way."""

    @staticmethod
    def _wrap(monkeypatch):
        """Wrap every new stepper's step; returns {scheme: path-steps seen}."""
        seen, make = {}, lsd.experiments.make_stepper

        def wrapping(*args, **kwargs):
            stepper = make(*args, **kwargs)
            step, name = stepper.step, str(stepper.scheme_id)
            seen.setdefault(name, 0)

            def counted(state, dw, dt):
                seen[name] += np.size(dw) // stepper.drivers
                return step(state, dw, dt)

            stepper.step = counted
            return stepper

        monkeypatch.setattr(lsd.experiments, "make_stepper", wrapping)
        return seen

    def test_wrapper_sees_every_step_of_a_strong_error(self, cir_params,
                                                       monkeypatch):
        def run():
            return strong_error([CIR_LSD1, SchemeId("cir", "lsd3")], CIR_LSD2,
                                cir_params, 4.0, 1.0, [2.0**-3, 2.0**-4],
                                2.0**-6, M=300, seed=1)

        plain = run()
        seen = self._wrap(monkeypatch)
        wrapped = run()
        assert seen == {"cir:lsd2": 300 * 64, "cir:lsd1": 300 * (8 + 16),
                        "cir:lsd3": 300 * (8 + 16)}
        for a, b in zip(wrapped, plain):
            np.testing.assert_array_equal(a.rms_errors, b.rms_errors)

    def test_wrapper_sees_every_step_of_a_scan(self, monkeypatch):
        ids = [SchemeId("cir", "alf"), SchemeId("cir", "ns")]
        def run():
            return domain_violation_scan(ids, STRESSED_CIR, [1e-2, 1e-3], 1.0,
                                         30, seed=6, x0=4.0)

        plain = run()
        seen = self._wrap(monkeypatch)
        assert run() == plain
        assert seen == {"cir:alf": 30 * 1100, "cir:ns": 30 * 1100}


class TestBatches:
    """The block iterator: paths in blocks, each block drawn in time chunks."""

    @pytest.mark.parametrize("drivers", [1, 2])
    def test_path_order_levels_and_release(self, drivers):
        T, n, seed = 1.0, 32, 4
        yielded = []
        for paths, chunks in _blocks(seed, 300, T, n, (3, 0, 1), drivers=drivers):
            lattice = np.stack([generate_lattice(path_seed(seed, i), T, n, 0,
                                                 drivers=drivers).increments
                                for i in paths])
            for offset, inc in chunks:
                # the chunk before was released when this one was drawn
                assert all(not earlier for _, earlier in yielded)
                assert offset == 0
                assert sorted(inc) == [0, 1, 3]
                for h, level in inc.items():
                    direct = halve_increments(lattice, h)
                    assert level.shape == direct.shape
                    assert level.tobytes() == direct.tobytes()
                yielded.append((paths, inc))
        # 32 steps are too few to chunk: the block widens to hold all 300
        assert [p for p, _ in yielded] == [range(0, 300)]
        assert yielded[-1][1] == {}

    @pytest.mark.parametrize("drivers", [1, 2])
    def test_levels_are_time_major(self, drivers):
        # each step's increments for the block are one contiguous block
        for paths, chunks in _blocks(4, 40, 1.0, 32, (0, 2), drivers=drivers):
            for _, inc in chunks:
                for level in inc.values():
                    assert level.shape[0] == len(paths)
                    assert all(step.flags.c_contiguous for step in level.T)

    @pytest.mark.parametrize("M, n, halvings, drivers, steps, width", [
        (300, 4096, (0, 2, 5), 1, 1024, 300),      # one block of two slices
        (600, 2048, (0, 1, 4), 1, 1024, 512),      # two blocks
        (300, 3 << 10, (0, 1), 1, 1536, 300),      # no power of two
        (300, 4096, (0, 11), 1, 2048, 300),        # the deepest halving binds
        (300, 3 << 10, (0, 10), 1, 3 << 10, 256),  # its 3 steps stay whole
        (300, 4096, (0, 2), 2, 512, 300),          # two drivers: 2 x 512 steps
        (1024, 2048, (0, 1, 2), 2, 512, 1024),     # the exact_ou workload's
        (300, 3 << 10, (0, 1), 2, 768, 300),       # two drivers, no power of two
        (200, 4096, (0, 2), 1, 1024, 200),         # fewer paths than a slice
        (300, 1024, (0, 2), 1, 1024, 256),         # too short to chunk
        (600, 512, (0, 2), 1, 512, 512),           # widened: 512 and 88
        (1100, 300, (0, 2), 1, 300, 1024),         # widened, no power of two
        (1100, 256, (0, 1), 2, 256, 1024),         # two drivers, widened
    ])
    def test_chunks_are_slices_of_the_halved_lattice(self, M, n, halvings,
                                                     drivers, steps, width):
        T, seed = 0.7, 11
        # a block holds at most M whole lattices per driver, and at most
        # _BATCH paths of max(n, 2 _CHUNK) steps, at each level
        guarded = 8 * drivers * min(M * n, _BATCH * max(n, 2 * _CHUNK)) * sum(
            0.5**h for h in {0, *halvings})
        blocks, drawn = [], []
        for paths, chunks in _blocks(seed, M, T, n, halvings, drivers=drivers):
            lattice = np.stack([generate_lattice(path_seed(seed, i), T, n, 0,
                                                 drivers=drivers).increments
                                for i in paths])
            offsets = []
            for offset, inc in chunks:
                # the chunk before was released when this one was drawn
                assert all(not earlier for earlier in drawn)
                drawn.append(inc)
                assert sum(level.nbytes for level in inc.values()) <= guarded
                for h, level in inc.items():
                    whole = halve_increments(lattice, h)
                    part = whole[..., offset >> h:(offset + steps) >> h]
                    assert level.shape == part.shape
                    assert level.tobytes() == part.tobytes()
                    assert all(step.flags.c_contiguous for step in level.T)
                offsets.append(offset)
            assert offsets == list(range(0, n, steps))
            blocks.append(paths)
        assert blocks == [range(s, min(s + width, M)) for s in range(0, M, width)]
        # so the slices of the sums over paths do not depend on the blocks
        assert all(len(paths) % _BATCH == 0 for paths in blocks[:-1])

    def test_error_in_a_later_chunk_names_the_global_step(self, cir_params,
                                                          monkeypatch):
        # 2^12 reference steps for 300 paths run in four chunks of 1024; the
        # reference fails in the second chunk, at its step 5, on path 3
        real = lsd.experiments.make_stepper

        def failing(scheme, *args, **kwargs):
            stepper = real(scheme, *args, **kwargs)
            if scheme == CIR_LSD2:
                step, calls = stepper.step, [0]

                def step_or_fail(state, dw, dt):
                    calls[0] += 1
                    if calls[0] == 1024 + 6:
                        raise DomainError("forced", index=3)
                    return step(state, dw, dt)

                stepper.step = step_or_fail
            return stepper

        monkeypatch.setattr(lsd.experiments, "make_stepper", failing)
        with pytest.raises(DomainError, match=(
                r"^cir:lsd2, dt=0\.000244140625, at step 1029, paths 0\.\.299: "
                r"path 3: forced$")):
            strong_error([CIR_LSD1], CIR_LSD2, cir_params, 4.0, 1.0, [2.0**-4],
                         2.0**-12, M=300, seed=1)

    def test_error_in_a_later_two_driver_chunk_names_the_global_step(
            self, cir_ou_params, monkeypatch):
        # 2^12 steps of two drivers for 300 paths run in eight chunks of
        # 512; the ride fails in the second chunk, at its step 5, on path 3
        real, calls = cir_effective_increment, [0]

        def failing(*args):
            calls[0] += 1
            if calls[0] == 512 + 6:
                raise DegenerateStateError("forced", index=3)
            return real(*args)

        monkeypatch.setattr(lsd.experiments, "cir_effective_increment", failing)
        with pytest.raises(DegenerateStateError, match=(
                r"^cir:exact_ou \+ cir:lsd1, dt=0\.000244140625, at step 517, "
                r"paths 0\.\.299: path 3: forced$")):
            exact_cir_error_decay(cir_ou_params, 4.0, 0.5, [2.0**-12], 1.0,
                                  M=300, seed=1, schemes=[CIR_LSD1])

    @pytest.mark.parametrize("drivers", [1, 2])
    def test_previous_chunk_is_freed_before_the_next_is_drawn(self, drivers,
                                                              monkeypatch):
        # an emptied dict is not enough: no view of an earlier chunk, and no
        # array under one, may stay alive while the next chunk is drawn
        real, earlier, draws = generate_lattice, [], [0]

        def checked(*args, **kwargs):
            assert all(ref() is None for ref in earlier)
            draws[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(lsd.experiments, "generate_lattice", checked)
        for _, chunks in _blocks(3, 300, 1.0, 4096, (0, 2), drivers=drivers):
            for _, inc in chunks:
                earlier[:] = [weakref.ref(a) for level in inc.values()
                              for a in (level, level.base) if a is not None]
        assert all(ref() is None for ref in earlier)
        assert draws[0] >= 4 * drivers

    def test_each_driver_continues_the_path_stream(self):
        # driver d of path i takes normals d n .. (d + 1) n - 1 of the
        # path's generator, so three drivers chunk as two do
        T, n, seed = 1.0, 4096, 2
        for paths, chunks in _blocks(seed, 40, T, n, (0,), drivers=3):
            stream = np.stack([
                np.random.default_rng(path_seed(seed, i)).standard_normal(3 * n)
                for i in paths]).reshape(len(paths), 3, n) * np.sqrt(T / n)
            offsets = []
            for offset, inc in chunks:
                steps = inc[0].shape[-1]
                assert steps < n
                assert inc[0].tobytes() == stream[..., offset:offset + steps].tobytes()
                offsets.append(offset)
            assert offsets == list(range(0, n, steps))

    @pytest.mark.parametrize("fails_at", [300, 1024 + 300])
    def test_error_in_a_tallied_block_names_the_global_step(self, monkeypatch,
                                                            fails_at):
        # a scan of 2^12 steps runs its 100 paths in four chunks of 1024;
        # the step fails mid-block, in the first chunk or in the second
        real = lsd.experiments.make_stepper

        def failing(*args, **kwargs):
            stepper = real(*args, **kwargs)
            step, calls = stepper.step, [0]

            def step_or_fail(state, dw, dt):
                calls[0] += 1
                if calls[0] == fails_at + 1:
                    raise DomainError("forced", index=3)
                return step(state, dw, dt)

            stepper.step = step_or_fail
            return stepper

        monkeypatch.setattr(lsd.experiments, "make_stepper", failing)
        with pytest.raises(DomainError, match=(
                rf"^cir:alf, dt=0\.000244140625, at step {fails_at}, "
                rf"paths 0\.\.99: path 3: forced$")):
            domain_violation_scan([SchemeId("cir", "alf")], STRESSED_CIR,
                                  [2.0**-12], 1.0, 100, seed=1, x0=4.0)

    @pytest.mark.parametrize("fault, error, path", [
        ("nan", NumericError, "path 10: x is not finite"),
        ("raise", DomainError, "path 9: forced"),
    ])
    def test_values_run_names_the_first_bad_step_mid_block(self, cir_params,
                                                           fault, error, path):
        # at step 200, inside the second block, path 2's x turns NaN (and
        # path 1's at step 250) or the step raises on path 1; the x of every
        # step before it is recorded as it was made
        n, dt = 3 * _TALLY, 1.0 / (3 * _TALLY)
        inc = np.stack([generate_lattice(path_seed(5, i), 1.0, n, 0).increments
                        for i in range(4)])
        stepper = make_stepper(CIR_LSD1, cir_params)
        clean = np.empty((n + 1, 4))
        clean[0] = 4.0
        _to_horizon(stepper, 4.0, dt, inc, values=clean)
        step, calls = stepper.step, [0]

        def faulty(state, dw, dt):
            calls[0] += 1
            if fault == "raise" and calls[0] == 201:
                raise DomainError("forced", index=1)
            state, mask = step(state, dw, dt)
            for at, bad in ((201, 2), (251, 1)):
                if fault == "nan" and calls[0] == at:
                    state = state.copy()
                    state[bad] = np.nan
            return state, mask

        stepper.step = faulty
        values = np.full((n + 1, 4), -1.0)
        values[0] = 4.0
        with pytest.raises(error, match=(
                r"^cir:lsd1, dt=0\.0026041666666666665, at step 200, "
                rf"paths 8\.\.11: {path}$")):
            _to_horizon(stepper, 4.0, dt, inc, values=values,
                        paths=range(8, 12))
        assert values[:201].tobytes() == clean[:201].tobytes()
        if fault == "nan":
            assert np.isnan(values[201:, 2]).all()
            assert np.isnan(values[251:, 1]).all()
            assert np.isfinite(values[:, [0, 3]]).all()


@pytest.mark.parametrize("run, message", [
    pytest.param(
        lambda p: strong_error([CIR_EXACT_OU], None, p, 4.0, 1.0, [0.25],
                               0.125, M=2, seed=0),
        r"^strong_error supports single-driver schemes$", id="strong_error"),
    pytest.param(
        lambda p: domain_violation_scan([CIR_LSD1, CIR_EXACT_OU], p, [0.25],
                                        1.0, M=1, seed=0, x0=4.0),
        r"^scan supports single-driver schemes only$", id="scan"),
    pytest.param(
        lambda p: exact_cir_experiment(p, 4.0, 0.5, 0.25, 1.0, 0,
                                       [CIR_EXACT_OU]),
        r"^only one-driver square-root-model schemes can ride the "
        r"reconstructed increments, got cir:exact_ou$", id="ride-exact_ou"),
    pytest.param(
        lambda p: exact_cir_error_decay(p, 4.0, 0.5, [0.25], 1.0, 1, 0,
                                        [CIR_LSD1, SchemeId("cev", "lsd1")]),
        r"^only one-driver square-root-model schemes can ride the "
        r"reconstructed increments, got cev:lsd1$", id="ride-cev"),
    pytest.param(
        lambda p: strong_error([CIR_LSD1], None, p, 4.0, 1.0, [0.25, 0.25],
                               0.125, M=2, seed=0),
        r"^step sizes \[0\.25, 0\.25\] repeat a value$", id="strong_error-repeat"),
    pytest.param(
        lambda p: exact_cir_error_decay(p, 4.0, 0.5, [0.25, 0.5, 0.25], 1.0, 1,
                                        0, [CIR_LSD1]),
        r"^step sizes \[0\.25, 0\.5, 0\.25\] repeat a value$", id="decay-repeat"),
    pytest.param(
        lambda p: simulate_path(CIR_LSD1, p, 4.0, 1.0, -1, np.empty(0)),
        r"^step count must be >= 0, got -1$", id="negative-steps"),
    pytest.param(
        lambda p: simulate_path(CIR_EXACT_OU, p, 4.0, 1.0, 4, np.zeros(4)),
        r"^scheme cir:exact_ou needs a \(2, >= 4\) driver, got \(4,\)$",
        id="two-driver-shape"),
])
def test_rejects_with_its_message(cir_ou_params, run, message):
    with pytest.raises(ConfigurationError, match=message):
        run(cir_ou_params)
