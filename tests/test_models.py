import math

import numpy as np
import pytest

from lsd.errors import DomainError
from lsd.models import (AitParams, CevParams, CirParams, Heston32Params,
                        WfParams, domain_report, lamperti_forward)

ALL_PARAMS = [
    CirParams(2.0, 2.0, 1.0),
    CevParams(1.0 / 16.0, 1.0, 0.4, 0.75),
    WfParams(1.0, 2.0, 0.20101),
    Heston32Params(0.1, 70.0, math.sqrt(0.2)),
    AitParams(2.0, 3.0, 4.0, 6.0, 1.0, 2.0, 1.5),
]


def _random_states(params, rng, n):
    if params.model == "wf":
        return rng.uniform(1e-4, 1.0 - 1e-4, n)
    return np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))


class TestDerivedCoefficients:
    def test_cir(self):
        p = CirParams(2.0, 2.0, 1.0)
        assert p.a == 2.0 * p.k1 / p.k3**2 == 4.0
        assert p.b == p.k2 / 2.0 + p.k3**2 / 8.0 == 1.125

    def test_cev(self):
        p = CevParams(1.0 / 16.0, 1.0, 0.4, 0.75)
        q = p.q
        assert p.a == p.k1 * p.k3 ** ((1 - 2 * q) / (1 - q)) * (1 - q) ** (-q / (1 - q))
        assert p.a == pytest.approx(25.0, rel=1e-14)
        assert p.b == 1.5 and p.c == 0.25

    def test_wf(self):
        p = WfParams(1.0, 2.0, 0.20101)
        assert p.a == p.k1 - p.k3**2 / 4.0
        assert p.b == p.k2 - p.k1 - p.k3**2 / 4.0
        assert p.beta == p.k3**2 / 2.0 - p.k2
        assert p.a == pytest.approx(0.989898744975, rel=1e-12)
        assert p.a == p.b

    def test_heston(self):
        p = Heston32Params(0.1, 70.0, math.sqrt(0.2))
        assert p.c_star == pytest.approx(1406.0, rel=1e-14)
        assert p.c_impl == p.k2 / 2.0 + 3.0 * p.k3**2 / 8.0

    def test_ait(self):
        p = AitParams(2.0, 3.0, 4.0, 6.0, 1.0, 2.0, 1.5)
        assert (p.Km1, p.K0, p.K1, p.K2, p.K3) == (1.0, 1.5, 2.0, 3.0, 0.5)
        assert p.K4 == 0.375
        assert (p.e1, p.e2, p.e3, p.e4, p.e5) == (5.0, 3.0, 0.0, 4.0, -1.0)


class TestValidation:
    def test_positive_coefficients_required(self):
        with pytest.raises(ValueError):
            CirParams(-1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            Heston32Params(0.1, 0.0, 0.4)

    def test_cev_q_range(self):
        with pytest.raises(ValueError):
            CevParams(1.0, 1.0, 0.4, 0.5)
        with pytest.raises(ValueError):
            CevParams(1.0, 1.0, 0.4, 1.0)

    def test_wf_standing_assumption(self):
        with pytest.raises(ValueError):
            WfParams(0.2, 2.0, 1.0)  # a = 0.2 - 0.25 < 0

    def test_ait_exponents(self):
        with pytest.raises(ValueError):
            AitParams(2.0, 3.0, 4.0, 6.0, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            AitParams(2.0, 3.0, 4.0, 6.0, 1.0, 2.0, 1.0)


class TestTransforms:
    def test_cir_forward_example(self):
        assert lamperti_forward(CirParams(2.0, 2.0, 1.0), 4.0) == 4.0

    def test_wf_forward_example(self):
        z = lamperti_forward(WfParams(1.0, 2.0, 0.20101), 0.5)
        assert z == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_cev_forward_example(self):
        z = lamperti_forward(CevParams(1.0 / 16.0, 1.0, 0.4, 0.75), 1.0 / 16.0)
        assert z == pytest.approx(5.0, rel=1e-14)

    def test_cir_inverse_example(self):
        assert CirParams(2.0, 2.0, 1.0).inverse(4.0) == 4.0

    def test_wf_inverse_example(self):
        x = WfParams(1.0, 2.0, 0.20101).inverse(math.pi / 2.0)
        assert x == pytest.approx(0.5, rel=1e-15)

    def test_ait_inverse_example(self):
        p = AitParams(2.0, 3.0, 4.0, 6.0, 1.0, 2.0, 1.5)
        assert p.inverse(0.5) == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.model)
    def test_round_trip(self, params, rng):
        xs = _random_states(params, rng, 1000)
        back = params.inverse(lamperti_forward(params, xs))
        assert np.all(np.abs(back - xs) <= 1e-12 * np.maximum(1.0, np.abs(xs)))

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.model)
    def test_monotone(self, params):
        if params.model == "wf":
            grid = np.linspace(1e-3, 1.0 - 1e-3, 1000)
        else:
            grid = np.geomspace(1e-3, 1e3, 1000)
        z = lamperti_forward(params, grid)
        diffs = np.diff(z)
        if params.model in ("heston32", "ait"):
            assert np.all(diffs < 0)
        else:
            assert np.all(diffs > 0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lamperti_forward(CirParams(2.0, 2.0, 1.0), -1.0)
        with pytest.raises(DomainError):
            lamperti_forward(WfParams(1.0, 2.0, 0.20101), 1.5)


class TestDomainReport:
    def test_cir_feller_holds(self):
        report = domain_report(CirParams(2.0, 2.0, 1.0))
        assert report["feller"] is True

    def test_cir_feller_fails(self):
        report = domain_report(CirParams(1.0, 2.0, 4.0))
        assert report["feller"] is False
        assert not all(report.values())

    def test_wf_paper_params(self):
        report = domain_report(WfParams(1.0, 2.0, 0.20101))
        assert report == {"lower_boundary": True, "upper_boundary": True}

    def test_wf_boundary_condition_can_fail(self):
        # constructible (a, b > 0) yet outside the almost-sure (0,1) regime
        report = domain_report(WfParams(1.0, 2.5, 1.9))
        assert report["lower_boundary"] is False
