import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd.closedform import bernoulli_power
from lsd.errors import ConfigurationError
from lsd.models import CirParams
from lsd.schemes import SchemeId, make_stepper
from lsd.schemes import cir as cir_mod
from lsd.wiener import generate_lattice, path_seed
from lsd.experiments import simulate_path
from oracles import ulps_apart

STRESS_PARAMS = [CirParams(1.0, 2.0, k3) for k3 in (4.0, 10.0, 20.0)]


def _lsd(variant):
    bind = getattr(cir_mod, f"{variant}_bind")
    return lambda p, y, dw, dt: bind(p.a, p.b, dt)(y, dw)


def _exact_ou(p, state, dw1, dw2, dt):
    """One squared-OU step; returns (x1', x2', x')."""
    stepper = make_stepper(SchemeId("cir", "exact_ou"), p)
    (x1, x2), _ = stepper.step(state, (dw1, dw2), dt)
    return x1, x2, stepper.x_of((x1, x2))


class TestLsdValues:
    def test_lsd1_worked_example(self, cir_params):
        y = cir_mod.lsd1_bind(cir_params.a, cir_params.b, 0.01)(4.0, 0.05)
        assert y == pytest.approx(4.0149750933224978, rel=1e-14)
        x = cir_params.inverse(y)
        assert x == pytest.approx(4.03000625, rel=1e-14)

    def test_lsd3_degenerates_to_shifted_state(self, cir_params):
        y = cir_mod.lsd3_bind(cir_params.a, cir_params.b, 1e-12)(4.0, 0.05)
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
            got = cir_mod.lsd1_bind(cir_params.a, cir_params.b, dt)(y, dw)
            A = dw + (1.0 - cir_params.b * dt) * y
            want = math.sqrt(bernoulli_power(A=A, B=cir_params.a, C=0.0,
                                             l=1.0, dt=dt))
            assert ulps_apart(got, want) <= 2

    def test_lsd2_equals_bernoulli(self, cir_params, rng):
        for _ in range(200):
            y = math.exp(rng.uniform(math.log(1e-3), math.log(1e2)))
            dw, dt = rng.normal() * 0.3, 10 ** rng.uniform(-6, -1)
            got = cir_mod.lsd2_bind(cir_params.a, cir_params.b, dt)(y, dw)
            want = math.sqrt(bernoulli_power(A=dw + y, B=cir_params.a,
                                             C=-cir_params.b, l=1.0, dt=dt))
            assert ulps_apart(got, want) <= 2


class TestPerDtBinding:
    # dt = 1e-13 puts lsd2 on the linear branch of the Bernoulli solution
    @pytest.mark.parametrize("dts", [(0.01, 2.0**-6), (1e-13, 0.01)])
    @pytest.mark.parametrize("variant", ["lsd1", "lsd2", "lsd3"])
    def test_alternating_dts_match_the_pure_map(self, cir_params, rng,
                                                variant, dts):
        stepper = make_stepper(SchemeId("cir", variant), cir_params)
        y = stepper.init(4.0, size=64)
        for j in range(6):
            dt = dts[j % 2]
            dw = rng.standard_normal(64) * math.sqrt(dt)
            want = _lsd(variant)(cir_params, y, dw, dt)
            y, _ = stepper.step(y, dw, dt)
            assert y.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dt", [1e-13, 1e-3, 0.5])
    def test_bound_maps_are_the_bernoulli_solution_bit_for_bit(
            self, cir_params, rng, dt):
        p = cir_params
        assert (abs(2.0 * p.b * dt) < 1e-12) == (dt == 1e-13)
        y = np.exp(rng.uniform(-5.0, 3.0, 256))
        dw = rng.standard_normal(256) * math.sqrt(dt)
        lsd1 = np.sqrt(bernoulli_power(dw + (1.0 - p.b * dt) * y, p.a, 0.0,
                                       1.0, dt))
        lsd2 = np.sqrt(bernoulli_power(dw + y, p.a, -p.b, 1.0, dt))
        assert cir_mod.lsd1_bind(p.a, p.b, dt)(y, dw).tobytes() == lsd1.tobytes()
        assert cir_mod.lsd2_bind(p.a, p.b, dt)(y, dw).tobytes() == lsd2.tobytes()


class TestQuadraticResidual:
    def test_lsd3_root_satisfies_quadratic(self, cir_params, rng):
        p = cir_params
        for _ in range(500):
            y = math.exp(rng.uniform(math.log(1e-3), math.log(1e2)))
            dw, dt = rng.normal(), 10 ** rng.uniform(-5, -1)
            v = cir_mod.lsd3_bind(p.a, p.b, dt)(y, dw)
            c2, c1, c0 = 1.0 + p.b * dt, -(dw + y), -p.a * dt
            residual = c2 * v * v + c1 * v + c0
            scale = 1.0 + abs(c2) + abs(c1) + abs(c0)
            assert abs(residual) <= 1e-10 * scale


class TestCompanions:
    def test_alf_drift_only(self, cir_params):
        stepper = make_stepper(SchemeId("cir", "alf"), cir_params)
        state, non_real = stepper.step(stepper.init(4.0), 0.0, 0.01)
        assert stepper.x_of(state) == pytest.approx(3.9362745098039216, rel=1e-14)
        assert not non_real

    def test_sd_theta_drift_only(self, cir_params):
        stepper = make_stepper(SchemeId("cir", "sd_theta"), cir_params, theta=1.0)
        state, _ = stepper.step(stepper.init(4.0), 0.0, 0.01)
        assert stepper.x_of(state) == pytest.approx(3.9387735486351403, rel=1e-14)

    def test_ns_goes_nonreal_near_zero(self):
        p = CirParams(1.0, 2.0, 4.0)  # k1 - k3^2/4 = -3
        stepper = make_stepper(SchemeId("cir", "ns"), p)
        state, non_real = stepper.step(0.1, 0.0, 0.01)  # the state is v = sqrt(x)
        assert non_real
        assert isinstance(state, complex)

    def test_nonreal_is_sticky(self):
        # a complex state keeps the flag raised on the next step
        p = CirParams(1.0, 2.0, 4.0)
        stepper = make_stepper(SchemeId("cir", "ns"), p)
        state, _ = stepper.step(0.1, 0.0, 0.01)
        state, non_real = stepper.step(state, 0.3, 0.01)
        assert non_real

    def test_complex_fallback_frequency(self):
        # stressed parameters: both implicit competitors leave the real line
        p = CirParams(1.0, 2.0, 20.0)
        hits = {"alf": 0, "ns": 0}
        for variant in hits:
            for i in range(100):
                lat = generate_lattice(path_seed(3, i), 1.0, 100, 0)
                res = simulate_path(SchemeId("cir", variant), p, 4.0, 1.0, 100,
                                    lat.increments)
                hits[variant] += res.counters.non_real_events
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
        # from the origin, each OU component is N(0, v) with
        # v = (k3^2/4)(1 - e^(-k2 dt))/k2, scaled here from dw ~ N(0, dt)
        v = 0.25 * p.k3**2 * (1.0 - math.exp(-p.k2 * dt)) / p.k2
        _, _, x = _exact_ou(p, (0.0, 0.0), dw1, dw2, dt)
        assert x == pytest.approx(v / dt * (dw1**2 + dw2**2), rel=1e-13)

    def test_direct_arithmetic_step(self):
        p = CirParams(2.0, 2.0, 2.0)
        s = math.sqrt(2.0)
        # e^(-k2 dt/2) s +- sqrt((k3^2/4)(1 - e^(-k2 dt))/(k2 dt)) * 0.01,
        # evaluated in 40-digit arithmetic
        x1, x2, x = _exact_ou(p, (s, s), 0.01, -0.01, 0.001)
        assert x1 == pytest.approx(1.4227950577645683, rel=1e-14)
        assert x2 == pytest.approx(1.4028050535991513, rel=1e-14)
        assert x == pytest.approx(3.992207794802599, rel=1e-14)

    def test_terminal_law_matches_cir(self):
        # X_T's sample mean and variance against the CIR law's, each to
        # within 4 standard errors
        p, x0, T, n, paths = CirParams(2.0, 2.0, 2.0), 4.0, 1.0, 256, 4000
        decay = math.exp(-p.k2 * T)
        mean = x0 * decay + p.k1 / p.k2 * (1.0 - decay)
        var = (x0 * p.k3**2 / p.k2 * (decay - decay**2)
               + p.k1 * p.k3**2 / (2.0 * p.k2**2) * (1.0 - decay) ** 2)
        assert (round(mean, 4), round(var, 4)) == (1.4060, 1.6838)
        stepper = make_stepper(SchemeId("cir", "exact_ou"), p)
        state = stepper.init(x0, size=paths)
        dws = np.random.default_rng(11).standard_normal((n, 2, paths))
        for dw in dws * math.sqrt(T / n):
            state, _ = stepper.step(state, tuple(dw), T / n)
        x = stepper.x_of(state)
        centred = x - x.mean()
        sample_var = np.mean(centred**2) * paths / (paths - 1)
        var_se = math.sqrt((np.mean(centred**4) - sample_var**2) / paths)
        assert abs(x.mean() - mean) <= 4.0 * math.sqrt(sample_var / paths)
        assert abs(sample_var - var) <= 4.0 * var_se

    def test_state_identity(self):
        p = CirParams(2.0, 2.0, 2.0)
        stepper = make_stepper(SchemeId("cir", "exact_ou"), p, m_split=0.3)
        state = stepper.init(4.0)
        x1, x2 = state
        assert x1 * x1 + x2 * x2 == pytest.approx(4.0, rel=1e-15)
