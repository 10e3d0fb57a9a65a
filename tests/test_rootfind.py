import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd.errors import InversionError, NumericError
from lsd.models import AitParams, CevParams, WfParams
from lsd.rootfind import MonotoneSpec, invert_monotone, solve_monotone
from lsd.schemes import ait as ait_mod
from lsd.schemes import cev as cev_mod
from lsd.schemes import wf as wf_mod
from oracles import bisect


def test_identity():
    spec = MonotoneSpec(lambda x: x)
    assert invert_monotone(spec, 3.0) == pytest.approx(3.0, rel=1e-12)


def test_cube_root():
    spec = MonotoneSpec(lambda x: x**3)
    assert invert_monotone(spec, 8.0) == pytest.approx(2.0, rel=1e-12)


def test_decreasing_direction():
    spec = MonotoneSpec(lambda x: -1.0 / x)
    assert invert_monotone(spec, -0.25) == pytest.approx(4.0, rel=1e-12)


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
    # -1/x is flat at 4: the seed's residual is within tolerance while its
    # x error is 3.7e-12 relative
    spec = MonotoneSpec(lambda x: -1.0 / x)
    x = invert_monotone(spec, -0.25, seed=4.0 + 1.5e-11)
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


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_root_beyond_interior_extremum(sign):
    # sign * sin on (0, pi) has its extremum at pi/2; from a seed on the far
    # side of it the hunt steps over the narrow window beyond sign * u.  The
    # root on the rising branch is returned.
    spec = MonotoneSpec(lambda x: sign * math.sin(x), lo=0.0, hi=math.pi)
    u = 0.999
    seed = 3.0 if sign > 0 else 0.1
    root = math.asin(u) if sign > 0 else math.pi - math.asin(u)
    x = invert_monotone(spec, sign * u, seed=seed)
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


def test_batch_of_mixed_cases_on_the_printed_wf_map():
    # At dt = 1e-2 the printed map rises to about 2.8597 near y = 3.0011 and
    # falls to -inf at pi.  Each element takes a different route: accepted
    # at the seed, a hunt up, a target above the maximum, a hunt down, and
    # a root on the far side of the peak that only the extremum search
    # finds.
    g = wf_mod.implicit_map(WfParams(1.0, 2.0, 0.20101), 1e-2, "printed")
    count = [0]

    def counted(x):
        count[0] += 1
        return g(x)

    spec = MonotoneSpec(counted, lo=0.0, hi=math.pi)
    seeds = np.array([1.0, 1.0, 2.86, 2.0, 3.1])
    targets = np.array([g(1.0), g(2.0), 2.87, g(0.6), 2.8596])
    with pytest.raises(InversionError, match="maximum") as excinfo:
        solve_monotone(spec, targets, tol=1e-13, seed=seeds)
    assert excinfo.value.index == 2
    lo, hi = excinfo.value.bracket
    assert 2.99 < lo < hi < 3.01

    ok = [0, 1, 3, 4]
    got = solve_monotone(spec, targets[ok], tol=1e-13, seed=seeds[ok])
    alone = []
    for i in ok:
        count[0] = 0
        alone.append(invert_monotone(spec, targets[i], tol=1e-13, seed=seeds[i]))
        if i == 0:
            assert count[0] == 2    # the seed and one probe past it
    assert got.tolist() == alone
    assert g(got[3] + 1e-6) > g(got[3] - 1e-6)    # left of the peak


def test_nan_names_the_first_element_that_met_it():
    spec = MonotoneSpec(lambda x: np.where(x > 2.0, np.nan, x))
    with pytest.raises(NumericError) as excinfo:
        solve_monotone(spec, [1.5, 3.0, 5.0])
    assert excinfo.value.index == 1


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(["cev", "ait"]), dt=st.sampled_from([1e-2, 1e-3]),
       draws=st.lists(st.tuples(st.floats(1e-2, 10.0), st.floats(-3.0, 3.0)),
                      min_size=1, max_size=16))
def test_batch_step_matches_lone_steps_on_the_implicit_maps(model, dt, draws):
    # A batch step equals, bit for bit, the same step taken one path at a
    # time, and meets the residual bound that the solver promises.
    # invert_monotone hands fn Python floats, whose ** is libm's pow where
    # numpy's array loop may differ in the last bit, so it agrees with the
    # array solve to the stopping tolerance rather than bit for bit.
    x, z = np.array(draws).T
    dw = z * math.sqrt(dt)
    if model == "cev":
        p = CevParams(1.0 / 16.0, 1.0, 0.4, 0.75)
        state = x ** (1.0 - p.q)
        target = state + p.k3 * (1.0 - p.q) * dw
        g = cev_mod.implicit_map(p, dt)

        def step(s, w):
            return cev_mod.implicit_step(p, s, w, dt)
    else:
        p = AitParams(km1=2.0, k0=3.0, k1=4.0, k2=6.0, k3=1.0, r=2.0, rho=1.5)
        state = p.forward(x)
        target = state - p.K3 * dw
        g = ait_mod.implicit_map(p, dt, "drift")

        def step(s, w):
            return ait_mod.implicit_step(p, s, w, dt, variant="drift")
    batch = step(state, dw)
    np.testing.assert_array_equal(batch, [step(s, w) for s, w in zip(state, dw)])
    assert np.all(np.abs(g(batch) - target) <= 1e-12 * np.maximum(1.0, np.abs(target)))
    spec = MonotoneSpec(g, lo=0.0, hi=np.inf)
    for got, u, s in zip(batch, target, state):
        lone = invert_monotone(spec, u, tol=1e-13, seed=s)
        assert abs(got - lone) <= 1e-12 * max(1.0, abs(lone))
