import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsd.closedform import bernoulli_power, wf_cosine_solution
from lsd.errors import DomainError
from oracles import rk4


class TestBernoulli:
    def test_linear_branch_example(self):
        assert bernoulli_power(A=0.0, B=1.0, C=0.0, l=1.0, dt=1.0) == 2.0

    def test_zero_elapsed_is_identity(self):
        r = bernoulli_power(A=1.7, B=3.0, C=-2.0, l=2.5, dt=0.0)
        assert r == pytest.approx(1.7**3.5, rel=1e-15)

    def test_square_root_model_inner_value(self):
        # the inner value of the first square-root-model update at its
        # textbook parameter set
        r = bernoulli_power(A=4.005, B=4.0, C=0.0, l=1.0, dt=0.01)
        assert r == pytest.approx(16.120025, abs=1e-12)

    def test_negative_initial_fractional_power(self):
        with pytest.raises(DomainError):
            bernoulli_power(-1.0, 1.0, 0.0, 0.5, 0.1)

    def test_negative_initial_integer_power_ok(self):
        assert bernoulli_power(-2.0, 1.0, 0.0, 1.0, 0.0) == 4.0

    def test_continuity_across_branch_switch(self):
        for eps in (1e-13, -1e-13):
            near = bernoulli_power(2.0, 3.0, eps, 1.0, 0.5)
            at = bernoulli_power(2.0, 3.0, 0.0, 1.0, 0.5)
            assert abs(near - at) <= 1e-8

    @given(A=st.floats(0.1, 10.0), B=st.floats(0.1, 10.0), l=st.floats(0.2, 4.0))
    def test_zero_dt_identity_property(self, A, B, l):
        assert bernoulli_power(A, B, 1.3, l, 0.0) == pytest.approx(
            A ** (1.0 + l), rel=1e-12)

    def test_against_rk4(self, rng):
        n = 1000
        A = rng.uniform(0.3, 5.0, n)
        B = rng.uniform(0.1, 5.0, n)
        C = rng.uniform(-3.0, 3.0, n)
        l = rng.uniform(0.3, 3.0, n)
        dt = rng.uniform(0.01, 0.5, n)

        y_end = rk4(lambda y: B * y**(-l) + C * y, A, dt, 10_000)
        expected = y_end ** (1.0 + l)
        got = bernoulli_power(A, B, C, l, dt)
        assert np.all(np.abs(got - expected) <= 1e-8 * np.abs(expected))


class TestWfCosine:
    def test_zero_elapsed(self):
        assert wf_cosine_solution(1.1, 4.0, 0.0) == pytest.approx(
            abs(math.cos(0.55)), rel=1e-15)

    def test_vanishes_at_pi(self):
        assert wf_cosine_solution(math.pi, 3.0, 0.7) < 1e-15

    def test_direct_arithmetic(self):
        got = wf_cosine_solution(math.pi / 2.0, 1.0, 0.02)
        assert got == pytest.approx(0.70007095115665073, rel=1e-14)

    def test_against_rk4(self, rng):
        n = 1000
        A = rng.uniform(0.3, math.pi - 0.3, n)
        rate = rng.uniform(0.1, 3.0, n)
        dt = rng.uniform(0.01, 0.5, n)

        y_end = rk4(lambda y: rate / np.tan(y / 2.0), A, dt, 10_000)
        expected = np.abs(np.cos(y_end / 2.0))
        got = wf_cosine_solution(A, rate, dt)
        assert np.all(np.abs(got - expected) <= 1e-8 * np.abs(expected))
