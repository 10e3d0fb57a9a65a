import math

import numpy as np
import pytest

from lsd.errors import ConfigurationError
from lsd.models import AitParams
from lsd.schemes import SchemeId, make_stepper
from lsd.schemes import ait as ait_mod
from oracles import bisect


def _lsd(variant):
    return getattr(ait_mod, f"{variant}_bind")


def _companion(variant, p, x, dw, dt):
    """One companion step from x, reported in x."""
    stepper = make_stepper(SchemeId("ait", variant), p)
    state, _ = stepper.step(stepper.init(x), dw, dt)
    return stepper.x_of(state)


class TestLsdValues:
    def test_lsd1_worked_example(self, ait_params):
        y0 = ait_params.forward(4.0)
        assert y0 == 0.5
        y = ait_mod.lsd1_bind(ait_params, 0.01)(y0, 0.0)
        assert y == pytest.approx(0.5516741398556624, rel=1e-13)
        assert ait_params.inverse(y) == pytest.approx(3.2857517425959491,
                                                      rel=1e-12)

    @pytest.mark.parametrize("variant", ["lsd1", "lsd2"])
    def test_identity_limit(self, ait_params, variant):
        y = _lsd(variant)(ait_params, 1e-12)(0.5, 0.0)
        assert abs(y - 0.5) <= 1e-6

    @pytest.mark.parametrize("variant", ["lsd1", "lsd2"])
    def test_bulk_positivity(self, ait_params, variant, rng):
        y = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), 1000))
        dw = rng.standard_normal(1000) * 2.0
        out = _lsd(variant)(ait_params, 1e-2)(y, dw)
        assert np.all(out > 0)

    def test_zero_exponent_uses_unit_power(self, ait_params):
        # r = 2*rho - 1 here, so the K2 term's power of y is y**0 == 1 and
        # each map's quadratic has the constant -(K2 + K4) dt on every path
        p, dt = ait_params, 0.01
        assert p.e3 == 0.0
        y, dw = np.array([0.2, 1.0, 7.0]), np.array([0.05, -0.1, 0.2])
        c0 = -(p.K2 + p.K4) * dt
        for variant in ("lsd1", "lsd2"):
            v = _lsd(variant)(p, dt)(y, dw)
            phi = -p.K3 * dw + y + p.K0 * y**p.e2 * dt
            if variant == "lsd1":
                c1 = 1.0 + p.Km1 * y**p.e4 * dt + p.K1 * dt
            else:
                phi -= p.Km1 * y**p.e1 * dt
                c1 = 1.0 + p.K1 * dt
            residual = c1 * v * v - phi * v + c0
            assert np.all(np.abs(residual) <= 1e-13 * (1.0 + c1 + np.abs(phi) - c0))

    @pytest.mark.parametrize("variant", ["lsd1", "lsd2"])
    def test_root_satisfies_quadratic(self, ait_params, variant, rng):
        p = ait_params
        for _ in range(300):
            y = math.exp(rng.uniform(math.log(1e-2), math.log(5.0)))
            dw, dt = rng.normal() * 0.3, 10 ** rng.uniform(-5, -2)
            out = _lsd(variant)(p, dt)(y, dw)
            if variant == "lsd1":
                phi = -p.K3 * dw + y + p.K0 * y**p.e2 * dt
                c2 = 1.0 + p.Km1 * y**p.e4 * dt + p.K1 * dt
            else:
                phi = -p.K3 * dw + y + p.K0 * y**p.e2 * dt - p.Km1 * y**p.e1 * dt
                c2 = 1.0 + p.K1 * dt
            c0 = -(p.K2 * y**p.e3 + p.K4) * dt
            residual = c2 * out * out - phi * out + c0
            scale = 1.0 + abs(c2) + abs(phi) + abs(c0)
            assert abs(residual) <= 1e-10 * scale


class TestImplicit:
    @pytest.mark.parametrize("variant", ["implicit", "implicit_printed"])
    def test_identity_limit(self, ait_params, variant):
        out = _companion(variant, ait_params, 4.0, 0.0, 1e-12)
        assert abs(out - 4.0) <= 1e-6

    def test_round_trip_printed(self, ait_params):
        g = ait_mod.implicit_map(ait_params, 0.01, "printed")
        u = 0.5
        y = ait_mod.implicit_bind(ait_params, 0.01, variant="printed")(0.5, 0.0)
        # the step solved g(y) = 0.5 - K3*0 = 0.5
        assert abs(g(y) - u) <= 1e-12 * max(1.0, abs(u))

    def test_matches_bisection(self, ait_params):
        g = ait_mod.implicit_map(ait_params, 0.01, "printed")
        target = 0.6
        got = ait_mod.implicit_bind(ait_params, 0.01, variant="printed")(0.6, 0.0)
        ref = bisect(lambda t: g(t) - target, 1e-6, 10.0, tol=1e-14)
        assert got == pytest.approx(ref, rel=1e-9)

    def test_variants_differ_by_order_dt(self, ait_params):
        ratios = []
        for dt in (1e-2, 1e-3, 1e-4):
            a = _companion("implicit_printed", ait_params, 4.0, 0.0, dt)
            b = _companion("implicit", ait_params, 4.0, 0.0, dt)
            ratios.append(abs(a - b) / dt)
        assert max(ratios) <= 3.0 * min(ratios)


@pytest.mark.parametrize("r, k2, admitted", [
    (1.2, 6.0, False), (1.5, 6.0, False), (1.9, 6.0, False),
    (2.0, 6.0, True),     # r = 2 rho - 1 with K2 = 3 > K4 = 0.375
    (3.0, 6.0, True),
    (2.0, 0.5, False),    # r = 2 rho - 1 with K2 = 0.25 <= K4
])
def test_printed_row_admits_only_a_sign_bracket(r, k2, admitted):
    # The printed map falls to -inf at 0 only for r > 2 rho - 1, or for
    # r = 2 rho - 1 with K2 > K4; elsewhere its +K4/y term sends it to +inf
    # there and no interval brackets a root by sign.
    p = AitParams(km1=2.0, k0=3.0, k1=4.0, k2=k2, k3=1.0, r=r, rho=1.5)
    g = ait_mod.implicit_map(p, 0.01, "printed")
    assert (g(1e-10) < 0.0) == admitted
    printed = SchemeId("ait", "implicit_printed")
    if admitted:
        make_stepper(printed, p)
    else:
        with pytest.raises(ConfigurationError, match=r"r > 2\*rho - 1"):
            make_stepper(printed, p)
    make_stepper(SchemeId("ait", "implicit"), p)    # its map has -K4/y
