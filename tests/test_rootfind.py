import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsd.errors import InversionError, NumericError
from lsd.rootfind import MonotoneSpec, invert_monotone
from oracles import bisect


def test_identity():
    spec = MonotoneSpec(lambda x: x)
    assert invert_monotone(spec, 3.0) == pytest.approx(3.0, rel=1e-12)


def test_cube_root():
    spec = MonotoneSpec(lambda x: x**3)
    assert invert_monotone(spec, 8.0) == pytest.approx(2.0, rel=1e-12)


def test_decreasing_direction():
    spec = MonotoneSpec(lambda x: 1.0 / x, increasing=False)
    assert invert_monotone(spec, 0.25) == pytest.approx(4.0, rel=1e-12)


def test_finite_interval():
    spec = MonotoneSpec(math.tan, lo=0.0, hi=math.pi / 2.0)
    assert invert_monotone(spec, 1.0, seed=0.3) == pytest.approx(
        math.pi / 4.0, rel=1e-12)


def test_matches_bisection_oracle():
    # the inverse-volatility-coordinate implicit map at stiff parameters
    k1, k2, k3sq, dt = 0.1, 70.0, 0.2, 1e-4
    c_impl = k2 / 2.0 + 3.0 * k3sq / 8.0

    def g(x):
        return (1.0 + 0.5 * k1 * dt) * x - c_impl * dt / x

    spec = MonotoneSpec(g)
    for u in (0.1, 1.0, 10.0):
        x = invert_monotone(spec, u, tol=1e-13, seed=1.0)
        assert abs(g(x) - u) <= 1e-12 * max(1.0, abs(u))
        x_ref = bisect(lambda t: g(t) - u, 1e-6, 1e3, tol=1e-14)
        assert x == pytest.approx(x_ref, rel=1e-9)


def test_bracket_failure_carries_bracket():
    spec = MonotoneSpec(math.tanh, lo=0.0, hi=math.inf)
    with pytest.raises(InversionError) as excinfo:
        invert_monotone(spec, 5.0)
    assert excinfo.value.bracket is not None


def test_nan_raises_numeric_error():
    spec = MonotoneSpec(lambda x: float("nan"))
    with pytest.raises(NumericError):
        invert_monotone(spec, 1.0)


def test_monotone_sample_check():
    spec = MonotoneSpec(lambda x: math.sin(x), lo=0.0, hi=6.0,
                        check_monotone=True)
    with pytest.raises(NumericError):
        invert_monotone(spec, 0.5)


def test_seed_near_root_converges_fast():
    spec = MonotoneSpec(lambda x: x + math.log1p(x))
    u = spec.fn(2.371)
    assert invert_monotone(spec, u, seed=2.0) == pytest.approx(2.371, rel=1e-10)


@given(a=st.floats(0.1, 5.0), b=st.floats(0.1, 5.0),
       x_true=st.floats(0.01, 50.0))
def test_random_monotone_cubics(a, b, x_true):
    def g(x):
        return a * x**3 + b * x

    u = g(x_true)
    x = invert_monotone(MonotoneSpec(g), u, tol=1e-13)
    assert abs(g(x) - u) <= 1e-12 * max(1.0, abs(u))


def test_vectorizable_target_scale():
    # residual tolerance is relative to max(1, |u|)
    spec = MonotoneSpec(lambda x: x**3)
    big = invert_monotone(spec, 1e12)
    assert abs(big**3 - 1e12) <= 1e-12 * 1e12


def test_seed_meeting_residual_only_is_not_returned():
    # 1/x is flat at 4: the seed's residual is within tolerance while its
    # x error is 3.7e-12 relative
    spec = MonotoneSpec(lambda x: 1.0 / x, increasing=False)
    x = invert_monotone(spec, 0.25, seed=4.0 + 1.5e-11)
    assert x == pytest.approx(4.0, rel=1e-12)


def test_bracket_tightening_does_not_stall():
    # x**20 is so convex that plain regula falsi keeps the upper end fixed
    # and creeps in from below for more than 100 iterations
    count = [0]

    def g(x):
        count[0] += 1
        return x**20

    x = invert_monotone(MonotoneSpec(g), 3.0, seed=0.5)
    assert x == pytest.approx(3.0 ** (1.0 / 20.0), rel=1e-12)
    assert count[0] <= 40


@pytest.mark.parametrize("increasing", [True, False])
def test_root_beyond_interior_extremum(increasing):
    # sin on (0, pi) peaks at pi/2; from a seed on the far side of the peak
    # the hunt steps over the narrow window where sin > u.  The root on the
    # declared branch is returned.
    spec = MonotoneSpec(math.sin, lo=0.0, hi=math.pi, increasing=increasing)
    u = 0.999
    seed = 3.0 if increasing else 0.1
    root = math.asin(u) if increasing else math.pi - math.asin(u)
    x = invert_monotone(spec, u, seed=seed)
    assert x == pytest.approx(root, rel=1e-12)


def test_target_beyond_interior_extremum_raises_with_searched_span():
    spec = MonotoneSpec(math.sin, lo=0.0, hi=math.pi)
    with pytest.raises(InversionError, match="maximum") as excinfo:
        invert_monotone(spec, 1.001, seed=3.0)
    # the span searched shrinks onto the peak, as far as rounding lets the
    # comparisons see it (about sqrt(eps))
    lo, hi = excinfo.value.bracket
    assert abs(lo - math.pi / 2.0) <= 1e-7 and abs(hi - math.pi / 2.0) <= 1e-7


def test_crossing_against_declared_direction_is_still_a_root():
    # the map falls although the spec says it rises: no crossing runs the
    # declared way, so the one that exists is used
    spec = MonotoneSpec(lambda x: -x)
    x = invert_monotone(spec, -3.0, seed=1.0)
    assert x == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("u, seed", [(-5.0, None), (10.0, -3.0)])
def test_expands_toward_an_infinite_endpoint_of_either_sign(u, seed):
    # from the default seed 1 toward -inf, and from -3 toward +inf, the hunt
    # must cross zero and grow, not double away from the endpoint
    spec = MonotoneSpec(lambda x: x, lo=-math.inf)
    assert invert_monotone(spec, u, seed=seed) == pytest.approx(u, rel=1e-12)


def test_default_seed_is_finite_below_a_finite_upper_endpoint():
    # on (-inf, 0) the midpoint seed would be -inf
    spec = MonotoneSpec(lambda x: x, lo=-math.inf, hi=0.0)
    assert invert_monotone(spec, -5.0) == pytest.approx(-5.0, rel=1e-12)
