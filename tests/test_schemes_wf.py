import math

import numpy as np
import pytest

from lsd.closedform import wf_cosine_solution
from lsd.errors import InversionError, StepSizeError
from lsd.experiments import domain_violation_scan
from lsd.models import WfParams
from lsd.schemes import SchemeId, make_stepper
from lsd.schemes import wf as wf_mod
from oracles import ulps_apart

HALF_PI = math.pi / 2.0


def _lsd(variant):
    return getattr(wf_mod, f"{variant}_step")


def _companion(variant, p, x, dw, dt):
    """One companion step from x, reported in x."""
    stepper = make_stepper(SchemeId("wf", variant), p)
    state, _ = stepper.step(stepper.init(x), dw, dt)
    return stepper.x_of(state)


class TestLsdValues:
    def test_lsd3_steady_state(self, wf_params):
        # a == b at these parameters, so pi/2 is an exact fixed point of the
        # drift-only update
        y = wf_mod.lsd3_step(wf_params, HALF_PI, 0.0, 0.01)[0]
        assert abs(y - HALF_PI) <= 1e-12
        assert wf_params.inverse(y) == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("variant", ["lsd1", "lsd2", "lsd3", "lsd4"])
    def test_identity_limit(self, wf_params, variant):
        y = _lsd(variant)(wf_params, 1.1, 0.0, 1e-12)[0]
        assert abs(y - 1.1) <= 1e-6

    @pytest.mark.parametrize("variant", ["lsd1", "lsd2", "lsd3", "lsd4"])
    def test_states_map_into_unit_interval(self, wf_params, variant, rng):
        y = rng.uniform(0.05, math.pi - 0.05, 10_000)
        dw = rng.standard_normal(10_000) * 0.5
        out = _lsd(variant)(wf_params, y, dw, 1e-3)[0]
        x = wf_params.inverse(out)
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert np.all((out >= 0.0) & (out <= math.pi))

    def test_lsd2_denominator_guard(self, wf_params):
        y = 0.05
        cot = 1.0 / math.tan(0.5 * y)
        c = (wf_params.a / y) * cot - (wf_params.b / y) * math.tan(0.5 * y)
        dt_critical = 1.0 / c
        with pytest.raises(StepSizeError):
            wf_mod.lsd2_step(wf_params, y, 0.0, dt_critical)

    def test_lsd2_negative_denominator_raises_in_a_scan(self):
        # a negative denominator used to flip a path to a state near 0,
        # whose fold later gave 0 and then NaN, with no error and no count
        with pytest.raises(
                StepSizeError,
                match=r"^wf:lsd2, dt=0\.03125, at step \d+, paths \d+\.\.\d+: "
                      r"path \d+: update denominator is not positive"):
            domain_violation_scan([SchemeId("wf", "lsd2")],
                                  WfParams(1.0, 2.0, 1.0), [2.0**-5], 8.0,
                                  2048, seed=1, x0=0.5)

    @pytest.mark.parametrize("raw, index", [([1.0, -0.0], 1),
                                            ([math.pi + 1e-9], 0)])
    def test_fold_never_returns_the_boundary(self, raw, index):
        # -0.0 folds onto 0 and pi + 1e-9 onto pi in floating point
        with pytest.raises(StepSizeError, match="boundary") as excinfo:
            wf_mod._fold(np.array(raw))
        assert excinfo.value.index == index

    def test_lsd1_matches_cosine_solution(self, wf_params, rng):
        p = wf_params
        for _ in range(300):
            y = rng.uniform(0.1, math.pi - 0.1)
            dw, dt = rng.normal() * 0.1, 10 ** rng.uniform(-5, -2)
            got = wf_mod.lsd1_step(p, y, dw, dt)[0]
            denom = 1.0 + (p.b / y) * math.tan(0.5 * y) * dt
            phi = (p.k3 * dw + y) / denom
            decay = wf_cosine_solution(phi, p.a / denom, dt)
            want = 2.0 * math.acos(min(1.0, decay))
            assert ulps_apart(got, want) <= 2

    def test_lsd4_root_satisfies_quadratic(self, wf_params, rng):
        p = wf_params
        for _ in range(300):
            y = rng.uniform(0.1, math.pi - 0.1)
            dw, dt = rng.normal() * 0.1, 10 ** rng.uniform(-5, -2)
            phi = (p.k3 * dw + y - dt / y
                   + (p.a / math.tan(0.5 * y) - p.b * math.tan(0.5 * y)) * dt)
            root = (phi + math.sqrt(phi * phi + 4.0 * dt)) / 2.0
            residual = root * root - phi * root - dt
            assert abs(residual) <= 1e-10 * (1.0 + abs(phi) + dt)


class TestCompanions:
    def test_sd_fixed_point(self, wf_params):
        # drift term a + beta*x vanishes identically at x = 1/2 here
        out = _companion("sd", wf_params, 0.5, 0.0, 0.01)
        assert out == pytest.approx(0.5, abs=1e-12)

    def test_sd_alt_stabilised_inner_value(self, wf_params):
        # the prestabilised variant divides the steady state by 1+(a+beta)dt
        p, dt = wf_params, 0.01
        out = _companion("sd_alt", p, 0.5, 0.0, dt)
        expected = (0.5 * (1.0 + p.beta * dt) + p.a * dt) / (1.0 + (p.a + p.beta) * dt)
        assert out == pytest.approx(expected, abs=1e-14)

    def test_biss_drift_only(self, wf_params):
        out = _companion("biss", wf_params, 0.5, 0.0, 0.01)
        assert out == pytest.approx(0.5 + (1.0 - 2.0 * 0.5) * 0.01, abs=1e-15)

    def test_hyb_fixed_point(self, wf_params):
        out = _companion("hyb", wf_params, 0.5, 0.0, 0.01)
        assert out == pytest.approx(0.5, abs=1e-7)

    def test_biss_rejects_a_step_of_one_over_k1(self, wf_params):
        with pytest.raises(StepSizeError, match=r"^balance control width "
                                                r"collapsed; decrease the step size$"):
            _companion("biss", wf_params, 0.5, 0.0, 1.0 / wf_params.k1)

    def test_sd_clamps_and_flags(self, wf_params):
        # a huge step drives the inner value below 0, forcing the clip
        value, clamped = wf_mod.sd_step(wf_params, 0.999, 0.0, 2.0)
        assert clamped
        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("variant", ["sd", "sd_alt", "biss", "hyb"])
    def test_outputs_stay_in_unit_interval(self, wf_params, variant, rng):
        x = rng.uniform(0.01, 0.99, 2000)
        dw = rng.standard_normal(2000) * 0.05
        out = _companion(variant, wf_params, x, dw, 1e-3)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_implicit_round_trip_printed(self, wf_params):
        g = wf_mod.implicit_map(wf_params, 1e-2, "printed")
        y0 = 2.0 * math.asin(math.sqrt(0.5))
        u = g(1.3)
        y = wf_mod.implicit_step(wf_params, y0, (u - y0) / wf_params.k3, 1e-2,
                                 sign_mode="printed")
        assert abs(g(y) - u) <= 1e-12 * max(1.0, abs(u))

    def test_implicit_corrected_is_globally_monotone(self, wf_params):
        g = wf_mod.implicit_map(wf_params, 1e-2, "corrected")
        grid = np.linspace(1e-3, math.pi - 1e-3, 2000)
        vals = np.array([g(t) for t in grid])
        assert np.all(np.diff(vals) > 0)

    def test_implicit_printed_not_globally_monotone_for_large_dt(self, wf_params):
        # the printed sign turns the map downward near pi once dt is sizable
        g = wf_mod.implicit_map(wf_params, 0.5, "printed")
        assert g(3.10) > g(3.14)

    def test_implicit_sign_modes_differ_by_order_dt(self, wf_params):
        gaps = []
        for dt in (1e-2, 1e-3, 1e-4):
            a = _companion("implicit_printed", wf_params, 0.31, 0.0, dt)
            b = _companion("implicit", wf_params, 0.31, 0.0, dt)
            gaps.append(abs(a - b) / dt)
        assert max(gaps) <= 3.0 * min(gaps)


class TestPrintedImplicitInversion:
    # At dt = 1e-2 the printed map rises to a maximum of about 2.8597 near
    # y = 3.0011 and falls to -inf at pi, so the window where it exceeds a
    # target just below the maximum is narrow.
    P = WfParams(1.0, 2.0, 0.20101)
    DT = 1e-2

    def test_root_in_narrow_window(self):
        g = wf_mod.implicit_map(self.P, self.DT, "printed")
        y0, dw = 2.795, 0.3
        u = y0 + self.P.k3 * dw
        y = wf_mod.implicit_step(self.P, y0, dw, self.DT, sign_mode="printed")
        assert abs(g(y) - u) <= 1e-12 * max(1.0, abs(u))
        # the preimage on the increasing branch, left of the maximum
        assert g(y + 1e-6) > g(y - 1e-6)

    def test_target_above_maximum_raises_with_bracket(self):
        with pytest.raises(InversionError) as excinfo:
            wf_mod.implicit_step(self.P, 2.86, 0.0, self.DT,
                                 sign_mode="printed")
        lo, hi = excinfo.value.bracket
        assert 2.99 < lo < hi < 3.01
        assert hi - lo <= 1e-6
        assert "maximum" in str(excinfo.value)
