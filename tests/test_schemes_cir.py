import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd.closedform import BernoulliCoeffs, bernoulli_solution
from lsd.errors import ConfigurationError
from lsd.models import CirParams
from lsd.schemes import SchemeId, make_stepper
from lsd.schemes import cir as cir_mod
from lsd.wiener import generate_lattice, path_seed
from lsd.experiments import simulate_path
from oracles import ulps_apart

STRESS_PARAMS = [CirParams(1.0, 2.0, k3) for k3 in (4.0, 10.0, 20.0)]


def _lsd(variant):
    return getattr(cir_mod, f"{variant}_step")


def _exact_ou(p, state, dw1, dw2, dt):
    """One squared-OU step; returns (x1', x2', x')."""
    stepper = make_stepper(SchemeId("cir", "exact_ou"), p)
    (x1, x2), _ = stepper.step(state, (dw1, dw2), dt)
    return x1, x2, stepper.x_of((x1, x2))


class TestLsdValues:
    def test_lsd1_worked_example(self, cir_params):
        y = cir_mod.lsd1_step(cir_params, 4.0, 0.05, 0.01)
        assert y == pytest.approx(4.0149750933224978, rel=1e-14)
        x = cir_params.inverse(y)
        assert x == pytest.approx(4.03000625, rel=1e-14)

    def test_lsd3_degenerates_to_shifted_state(self, cir_params):
        y = cir_mod.lsd3_step(cir_params, 4.0, 0.05, 1e-12)
        assert abs(y - 4.05) <= 1e-6

    @pytest.mark.parametrize("variant", ["lsd1", "lsd2", "lsd3"])
    def test_identity_limit(self, cir_params, variant):
        y = _lsd(variant)(cir_params, 3.3, 0.0, 1e-12)
        assert abs(y - 3.3) <= 1e-6


class TestLsdPositivity:
    @pytest.mark.parametrize("params", [CirParams(2.0, 2.0, 1.0)] + STRESS_PARAMS,
                             ids=lambda p: f"k3={p.k3}")
    @pytest.mark.parametrize("variant", ["lsd1", "lsd2", "lsd3"])
    def test_bulk_positivity(self, params, variant, rng):
        y = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), 10_000))
        dw = rng.standard_normal(10_000) * 3.0
        dt = np.exp(rng.uniform(np.log(1e-6), np.log(1e-1)))
        out = _lsd(variant)(params, y, dw, float(dt))
        assert np.all(out > 0)

    @settings(max_examples=200)
    @given(y=st.floats(1e-6, 1e3), dw=st.floats(-50.0, 50.0),
           dt=st.floats(1e-8, 1.0))
    def test_positivity_property(self, y, dw, dt):
        p = CirParams(1.0, 2.0, 10.0)
        for variant in ("lsd1", "lsd2", "lsd3"):
            assert _lsd(variant)(p, y, dw, dt) > 0


class TestClosedFormAgreement:
    def test_lsd1_equals_bernoulli(self, cir_params, rng):
        for _ in range(200):
            y = math.exp(rng.uniform(math.log(1e-3), math.log(1e2)))
            dw, dt = rng.normal() * 0.3, 10 ** rng.uniform(-6, -1)
            got = cir_mod.lsd1_step(cir_params, y, dw, dt)
            A = dw + (1.0 - cir_params.b * dt) * y
            want = math.sqrt(bernoulli_solution(
                BernoulliCoeffs(A=A, B=cir_params.a, C=0.0, l=1.0, dt=dt)))
            assert ulps_apart(got, want) <= 2

    def test_lsd2_equals_bernoulli(self, cir_params, rng):
        for _ in range(200):
            y = math.exp(rng.uniform(math.log(1e-3), math.log(1e2)))
            dw, dt = rng.normal() * 0.3, 10 ** rng.uniform(-6, -1)
            got = cir_mod.lsd2_step(cir_params, y, dw, dt)
            want = math.sqrt(bernoulli_solution(
                BernoulliCoeffs(A=dw + y, B=cir_params.a, C=-cir_params.b,
                                l=1.0, dt=dt)))
            assert ulps_apart(got, want) <= 2


class TestQuadraticResidual:
    def test_lsd3_root_satisfies_quadratic(self, cir_params, rng):
        p = cir_params
        for _ in range(500):
            y = math.exp(rng.uniform(math.log(1e-3), math.log(1e2)))
            dw, dt = rng.normal(), 10 ** rng.uniform(-5, -1)
            v = cir_mod.lsd3_step(p, y, dw, dt)
            c2, c1, c0 = 1.0 + p.b * dt, -(dw + y), -p.a * dt
            residual = c2 * v * v + c1 * v + c0
            scale = 1.0 + abs(c2) + abs(c1) + abs(c0)
            assert abs(residual) <= 1e-10 * scale


class TestCompanions:
    def test_alf_drift_only(self, cir_params):
        stepper = make_stepper(SchemeId("cir", "alf"), cir_params)
        state, events = stepper.step(stepper.init(4.0), 0.0, 0.01)
        assert stepper.x_of(state) == pytest.approx(3.9362745098039216, rel=1e-14)
        assert not events.non_real

    def test_sd_theta_drift_only(self, cir_params):
        stepper = make_stepper(SchemeId("cir", "sd_theta"), cir_params, theta=1.0)
        state, _ = stepper.step(stepper.init(4.0), 0.0, 0.01)
        assert stepper.x_of(state) == pytest.approx(3.9387735486351403, rel=1e-14)

    def test_ns_goes_nonreal_near_zero(self):
        p = CirParams(1.0, 2.0, 4.0)  # k1 - k3^2/4 = -3
        stepper = make_stepper(SchemeId("cir", "ns"), p)
        state, events = stepper.step(0.1, 0.0, 0.01)  # the state is v = sqrt(x)
        assert events.non_real
        assert isinstance(state, complex)

    def test_nonreal_is_sticky(self):
        # a complex state keeps the flag raised on the next step
        p = CirParams(1.0, 2.0, 4.0)
        stepper = make_stepper(SchemeId("cir", "ns"), p)
        state, _ = stepper.step(0.1, 0.0, 0.01)
        state, events = stepper.step(state, 0.3, 0.01)
        assert events.non_real

    def test_complex_fallback_frequency(self):
        # stressed parameters: both implicit competitors leave the real line
        p = CirParams(1.0, 2.0, 20.0)
        hits = {"alf": 0, "ns": 0}
        for variant in hits:
            for i in range(100):
                lat = generate_lattice(path_seed(3, i), 1.0, 100, 0)
                res = simulate_path(SchemeId("cir", variant), p, 4.0, 1.0, 100,
                                    lat.increments)
                hits[variant] += res.non_real_count
        assert hits["alf"] >= 1
        assert hits["ns"] >= 1


class TestExactOu:
    def test_dimension_check(self):
        with pytest.raises(ConfigurationError):
            _exact_ou(CirParams(2.0, 2.0, 1.0), (1.0, 1.0), 0.0, 0.0, 0.1)

    def test_deterministic_decay(self):
        p = CirParams(2.0, 2.0, 2.0)
        x1, x2, x = _exact_ou(p, (1.0, 0.0), 0.0, 0.0, 1.0)
        assert x1 == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert x2 == 0.0
        assert x == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_pure_noise_from_origin(self):
        p = CirParams(2.0, 2.0, 2.0)
        dt, dw1, dw2 = 0.01, 0.2, -0.1
        gain = (p.k3 / p.k2) * (1.0 - math.exp(-0.5 * p.k2 * dt))
        _, _, x = _exact_ou(p, (0.0, 0.0), dw1, dw2, dt)
        assert x == pytest.approx(gain**2 * (dw1**2 + dw2**2), rel=1e-13)

    def test_direct_arithmetic_step(self):
        p = CirParams(2.0, 2.0, 2.0)
        s = math.sqrt(2.0)
        x1, x2, x = _exact_ou(p, (s, s), 0.01, -0.01, 0.001)
        assert x1 == pytest.approx(1.4128100506835260, rel=1e-14)
        assert x2 == pytest.approx(1.4127900606801935, rel=1e-14)
        assert x == pytest.approx(3.9920079948691324, rel=1e-14)

    def test_state_identity(self):
        p = CirParams(2.0, 2.0, 2.0)
        stepper = make_stepper(SchemeId("cir", "exact_ou"), p, m_split=0.3)
        state = stepper.init(4.0)
        x1, x2 = state
        assert x1 * x1 + x2 * x2 == pytest.approx(4.0, rel=1e-15)
