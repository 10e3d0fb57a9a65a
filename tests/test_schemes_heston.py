import math

import numpy as np
import pytest

from lsd.closedform import bernoulli_power
from lsd.schemes import SCHEMES, SchemeId, make_stepper
from lsd.schemes import cir as cir_mod
from lsd.schemes import heston as heston_mod
from oracles import bisect, ulps_apart


def _ab(p):
    # heston32's LSD rows run cir's maps with (a, b) = (c_star/2, k1/2)
    return 0.5 * p.c_star, 0.5 * p.k1


def _lsd(variant):
    bind = getattr(cir_mod, f"{variant}_bind")
    return lambda p, y, dw, dt: bind(*_ab(p), dt)(y, dw)


def _companion(variant, p, x, dw, dt):
    """One companion step from x, reported in x."""
    stepper = make_stepper(SchemeId("heston32", variant), p)
    state, _ = stepper.step(stepper.init(x), dw, dt)
    return stepper.x_of(state)


class TestLsdValues:
    def test_lsd1_worked_example(self, heston_params):
        y0 = heston_params.forward(1.0)
        assert y0 == pytest.approx(4.4721359549995794, rel=1e-14)
        y = SCHEMES["heston32", "lsd1_printed"].bind(heston_params, 1e-4)(y0, 0.0)
        assert y == pytest.approx(4.4878056999495867, rel=1e-12)
        assert heston_params.inverse(y) == pytest.approx(0.9930289368385675,
                                                         rel=1e-12)

    @pytest.mark.parametrize("variant", ["lsd1", "lsd2"])
    def test_identity_limit(self, heston_params, variant):
        y = _lsd(variant)(heston_params, 4.5, 0.0, 1e-12)
        assert abs(y - 4.5) <= 1e-6

    def test_lsd1_lower_bound(self, heston_params, rng):
        y = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), 5000))
        dw = rng.standard_normal(5000) * 2.0
        dt = 1e-3
        out = cir_mod.lsd1_bind(*_ab(heston_params), dt)(y, dw)
        assert np.all(out >= math.sqrt(heston_params.c_star * dt) - 1e-15)

    @pytest.mark.parametrize("variant", ["lsd1", "lsd2"])
    def test_bulk_positivity(self, heston_params, variant, rng):
        y = np.exp(rng.uniform(np.log(1e-4), np.log(1e3), 10_000))
        dw = rng.standard_normal(10_000) * 3.0
        out = _lsd(variant)(heston_params, y, dw, 1e-2)
        assert np.all(out > 0)


class TestClosedFormAgreement:
    def test_lsd1_equals_bernoulli(self, heston_params, rng):
        p = heston_params
        for _ in range(200):
            y = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            dw, dt = rng.normal() * 0.2, 10 ** rng.uniform(-6, -2)
            got = cir_mod.lsd1_bind(*_ab(p), dt)(y, dw)
            A = dw + (1.0 - 0.5 * p.k1 * dt) * y
            want = math.sqrt(bernoulli_power(A=A, B=0.5 * p.c_star, C=0.0,
                                             l=1.0, dt=dt))
            assert ulps_apart(got, want) <= 2

    def test_lsd2_equals_bernoulli(self, heston_params, rng):
        p = heston_params
        for _ in range(200):
            y = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            dw, dt = rng.normal() * 0.2, 10 ** rng.uniform(-6, -2)
            got = cir_mod.lsd2_bind(*_ab(p), dt)(y, dw)
            want = math.sqrt(bernoulli_power(A=dw + y, B=0.5 * p.c_star,
                                             C=-0.5 * p.k1, l=1.0, dt=dt))
            assert ulps_apart(got, want) <= 2


class TestCompanions:
    def test_sd_exp_drift_only(self, heston_params):
        out = _companion("sd_exp", heston_params, 1.0, 0.0, 1e-4)
        assert out == pytest.approx(0.9930244429332351, rel=1e-13)

    def test_sd_exp_positivity(self, heston_params, rng):
        x = np.exp(rng.uniform(np.log(1e-4), np.log(10.0), 5000))
        dw = rng.standard_normal(5000) * 0.5
        out = _companion("sd_exp", heston_params, x, dw, 1e-3)
        assert np.all(out > 0)

    def test_implicit_identity_limit(self, heston_params):
        out = _companion("implicit", heston_params, 1.0, 0.0, 1e-12)
        assert abs(out - 1.0) <= 1e-6

    def test_implicit_closed_form_matches_bisection(self, heston_params):
        p = heston_params
        dt = 1e-4
        g = heston_mod.implicit_map(p, dt)
        for u in (0.1, 1.0, 10.0):
            v = (u + math.sqrt(u * u + 4.0 * (1.0 + 0.5 * p.k1 * dt)
                               * p.c_impl * dt)) / (2.0 * (1.0 + 0.5 * p.k1 * dt))
            assert abs(g(v) - u) <= 1e-12 * max(1.0, abs(u))
            ref = bisect(lambda t: g(t) - u, 1e-8, 1e4, tol=1e-14)
            assert v == pytest.approx(ref, rel=1e-9)
