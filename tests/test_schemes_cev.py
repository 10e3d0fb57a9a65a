import math

import numpy as np
import pytest

from lsd.models import CevParams
from lsd.schemes import SCHEMES, SchemeId, make_stepper
from lsd.schemes import cev as cev_mod
from oracles import bisect


def _lsd(variant, p, dt):
    """The LSD row's map bound at dt, as the scheme table binds it."""
    return getattr(cev_mod, f"{variant}_bind")(p.a, p.b, p.c, p.q, dt)


def _companion(variant, p, x, dw, dt):
    """One companion step from x; returns (x', the step's mask)."""
    stepper = make_stepper(SchemeId("cev", variant), p)
    state, mask = stepper.step(stepper.init(x), dw, dt)
    return stepper.x_of(state), mask


class TestLsdValues:
    def test_lsd1_worked_example(self, cev_params):
        y = SCHEMES["cev", "lsd1_printed"].bind(cev_params, 0.01)(5.0, 0.0)
        assert y == pytest.approx(4.9865319703583006, rel=1e-12)
        x = cev_params.inverse(y)
        assert x == pytest.approx(0.0618293144526685, abs=1e-4)

    def test_lsd2_degenerate_quadratic(self, cev_params):
        y = _lsd("lsd2", cev_params, 1e-12)(5.0, 0.0)
        assert abs(y - 5.0) <= 1e-6

    @pytest.mark.parametrize("variant", ["lsd1", "lsd2", "lsd3"])
    def test_identity_limit(self, cev_params, variant):
        y = _lsd(variant, cev_params, 1e-12)(2.4, 0.0)
        assert abs(y - 2.4) <= 1e-6

    def test_lsd3_always_positive(self, cev_params, rng):
        y = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), 1000))
        dw = rng.standard_normal(1000) * 2.0
        out = _lsd("lsd3", cev_params, 0.01)(y, dw)
        assert np.all(out > 0)

    @pytest.mark.parametrize("variant", ["lsd1", "lsd2"])
    def test_bulk_positivity(self, cev_params, variant, rng):
        y = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), 1000))
        dw = rng.standard_normal(1000) * 2.0
        out = _lsd(variant, cev_params, 0.01)(y, dw)
        assert np.all(out > 0)


class TestQuadraticResidual:
    @pytest.mark.parametrize("variant", ["lsd2", "lsd3"])
    def test_root_satisfies_quadratic(self, cev_params, variant, rng):
        p = cev_params
        q = p.q
        for _ in range(300):
            y = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            dw, dt = rng.normal() * 0.5, 10 ** rng.uniform(-5, -1)
            out = _lsd(variant, p, dt)(y, dw)
            c2 = 1.0 + p.c * dt
            if variant == "lsd2":
                c1 = -(dw + y - p.b * dt / y)
                c0 = -p.a * dt * y ** ((1 - 2 * q) / (1 - q))
            else:
                c1 = -(dw + y + p.a * y ** (-q / (1 - q)) * dt - p.b * dt / y)
                c0 = -dt
            residual = c2 * out * out + c1 * out + c0
            # backward error relative to the evaluated terms: coefficients can
            # reach 1e6 at small states, so plain magnitudes under-scale
            scale = 1.0 + abs(c2) * out * out + abs(c1) * out + abs(c0)
            assert abs(residual) <= 1e-10 * scale


class TestCompanions:
    def test_sd_theta_drift_only(self, cev_params):
        x, non_real = _companion("sd_theta", cev_params, 1.0 / 16.0, 0.0, 0.01)
        assert x == pytest.approx(0.0624019703950593, rel=1e-13)
        assert not non_real

    def test_sd_theta_can_go_nonreal(self):
        # tiny state and large diffusion make the inner value negative
        p = CevParams(k1=1e-4, k2=1.0, k3=2.0, q=0.75)
        _, non_real = _companion("sd_theta", p, 1e-6, 0.0, 0.01)
        assert non_real

    def test_implicit_identity_limit(self, cev_params):
        x, _ = _companion("implicit", cev_params, 1.0 / 16.0, 0.0, 1e-12)
        assert abs(x - 1.0 / 16.0) <= 1e-6

    def test_implicit_round_trip(self, cev_params):
        # with no noise the step solves g(y) = u_prev exactly
        g = cev_mod.implicit_map(cev_params, 0.01)
        u_prev = (1.0 / 16.0) ** 0.25
        y = cev_mod.implicit_bind(cev_params, 0.01)(u_prev, 0.0)
        assert abs(g(y) - u_prev) <= 1e-12 * max(1.0, abs(u_prev))

    def test_implicit_matches_bisection(self, cev_params):
        dt = 1e-2
        g = cev_mod.implicit_map(cev_params, dt)
        u0 = (1.0 / 16.0) ** 0.25
        target = u0 + cev_params.k3 * 0.25 * 0.05
        got = cev_mod.implicit_bind(cev_params, dt)(u0, 0.05)
        ref = bisect(lambda t: g(t) - target, 1e-8, 1e3, tol=1e-14)
        assert got == pytest.approx(ref, rel=1e-9)

    def test_implicit_step_solves_the_batch_at_once(self, cev_params,
                                                    monkeypatch):
        # one step of 256 paths evaluates the map once per solver iteration,
        # not once per path and iteration (about 6 x 256 calls)
        calls = [0]
        real = cev_mod.implicit_map

        def counting_map(p, dt):
            g = real(p, dt)

            def counted(u):
                calls[0] += 1
                return g(u)

            return counted

        monkeypatch.setattr(cev_mod, "implicit_map", counting_map)
        stepper = make_stepper(SchemeId("cev", "implicit"), cev_params)
        dt = 2.0**-4
        dw = np.random.default_rng(5).standard_normal(256) * math.sqrt(dt)
        state, _ = stepper.step(stepper.init(1.0 / 16.0, size=256), dw, dt)
        assert state.shape == (256,)
        assert 0 < calls[0] < 100
