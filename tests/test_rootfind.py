import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsd import rootfind
from lsd.errors import ConfigurationError, InversionError, NumericError
from lsd.models import AitParams, CevParams, WfParams
from lsd.rootfind import (STEP_TOL, MonotoneSpec, implicit_step, invert_monotone,
                          solve_monotone)
from lsd.schemes import SCHEMES, SchemeId, make_stepper
from lsd.schemes import ait as ait_mod
from lsd.schemes import cev as cev_mod
from lsd.schemes import wf as wf_mod
from oracles import bisect
from test_scheme_table import FIXTURE, X0


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


def test_newton_does_not_return_a_point_meeting_residual_only():
    # the same seed with the slope given: a small residual is no proof
    spec = MonotoneSpec(lambda x: -1.0 / x, slope=lambda x: 1.0 / (x * x))
    x = solve_monotone(spec, -0.25, seed=4.0 + 1.5e-11)
    assert x == pytest.approx(4.0, rel=1e-12)


def test_bracket_tightening_does_not_stall():
    # x**20 is so convex that plain regula falsi keeps the upper end fixed
    # and creeps in from below for more than 100 iterations; the secant
    # through the last two points drops the far end
    count = [0]

    def g(x):
        count[0] += 1
        return x**20

    x = invert_monotone(MonotoneSpec(g), 3.0, seed=0.5)
    assert x == pytest.approx(3.0 ** (1.0 / 20.0), rel=1e-12)
    assert count[0] <= 40


CAP = r"^residual \S+ or x error above tolerance after 100 iterations$"


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_root_beyond_interior_extremum(sign):
    # sign * sin on (0, pi) has its extremum at pi/2, so the whole interval
    # is no sign bracket.  From a seed on the far side of the extremum the
    # residual's sign puts the root between the seed and the end, where the
    # map never meets sign * u; the bracket closes on that end until the
    # iterations run out.  Bounded at the extremum, as the printed WF row
    # bounds its map at its peak, the same seed (outside the bounds, so
    # replaced by the midpoint) gives the root on the rising branch.
    u = 0.999
    seed = 3.0 if sign > 0 else 0.1
    root = math.asin(u) if sign > 0 else math.pi - math.asin(u)
    whole = MonotoneSpec(lambda x: sign * math.sin(x), lo=0.0, hi=math.pi)
    with pytest.raises(InversionError, match=CAP) as excinfo:
        invert_monotone(whole, sign * u, seed=seed)
    assert excinfo.value.index == 0
    lo, hi = excinfo.value.bracket
    assert (3.0 <= lo <= hi == math.pi) if sign > 0 else (0.0 == lo < hi <= 0.1)
    lo, hi = (0.0, math.pi / 2.0) if sign > 0 else (math.pi / 2.0, math.pi)
    rising = MonotoneSpec(lambda x: sign * math.sin(x), lo=lo, hi=hi)
    x = invert_monotone(rising, sign * u, seed=seed)
    assert x == pytest.approx(root, rel=1e-12)


def test_target_beyond_interior_extremum_raises_with_its_last_bracket():
    # sin tops out at 1 < 1.001.  Every residual is negative, so the bracket
    # only rises from seed 3, and bisected toward pi it closes on pi.
    spec = MonotoneSpec(math.sin, lo=0.0, hi=math.pi)
    with pytest.raises(InversionError, match=CAP) as excinfo:
        invert_monotone(spec, 1.001, seed=3.0)
    assert excinfo.value.index == 0
    lo, hi = excinfo.value.bracket
    assert 3.0 < lo <= hi == math.pi and hi - lo <= 1e-15


@pytest.mark.parametrize("f,lo,hi,u,seed,end", [
    (math.sin, 0.0, math.pi, 1.001, 3.0, "hi"),
    (lambda x: x, 1.0, 2.0, 2.5, 1.5, "hi"),
    (lambda x: x, 1.0, 2.0, 0.5, 1.5, "lo"),
], ids=["sin-hi", "line-hi", "line-lo"])
def test_bisection_toward_an_end_never_calls_fn_there(f, lo, hi, u, seed, end):
    # The map is NaN at both ends, and u lies beyond its range, so the
    # bracket closes on one end; a midpoint that rounds onto it takes the
    # float inside instead, and the solve ends at the cap, not on a NaN.
    seen = []

    def fn(x):
        seen.append(x)
        return f(x) if lo < x < hi else math.nan

    with pytest.raises(InversionError, match=CAP) as excinfo:
        invert_monotone(MonotoneSpec(fn, lo=lo, hi=hi), u, seed=seed)
    assert excinfo.value.index == 0
    a, b = excinfo.value.bracket
    if end == "hi":
        assert seed < a < b == hi and b - a <= 1e-15
    else:
        assert lo == a < b < seed and b - a <= 1e-15
    assert lo not in seen and hi not in seen


def test_target_outside_the_sign_bracket_raises_with_its_last_bracket():
    # The tent min(x, 2 - x) rises to 1 at x = 1 and then falls.  From seed
    # 1, -3 is met only where the tent falls (x = 5), and the positive
    # residual sends the bracket down: after one probe of 1e-12 below the
    # seed it halves toward 0 in each of the other 99 iterations.  From seed
    # 3, 1.5 is met nowhere, and the negative residual doubles x in each
    # iteration after the probe.  The error names the lowest such element.
    spec = MonotoneSpec(lambda x: np.minimum(x, 2.0 - x))
    with pytest.raises(InversionError, match=CAP) as excinfo:
        solve_monotone(spec, [0.5, -3.0, 1.5, 0.25], seed=[0.8, 1.0, 3.0, 0.8])
    assert excinfo.value.index == 1
    assert excinfo.value.bracket == (0.0, (1.0 - 1e-12) * 2.0**-99)
    with pytest.raises(InversionError, match=CAP) as excinfo:
        solve_monotone(spec, [0.5, 1.5, 0.25], seed=[0.8, 3.0, 0.8])
    assert excinfo.value.index == 1
    assert excinfo.value.bracket == ((3.0 + 3e-12) * 2.0**99, math.inf)


@pytest.mark.parametrize("lo, hi", [(-math.inf, math.inf), (-1.0, math.inf),
                                    (1.0, 1.0), (2.0, 1.0), (math.nan, 1.0),
                                    (0.0, math.nan)])
def test_interval_outside_the_contract_is_rejected(lo, hi):
    # every caller solves on (lo, hi) with 0 <= lo < hi <= inf
    with pytest.raises(ConfigurationError, match=r"is not 0 <= lo < hi <= inf"):
        MonotoneSpec(lambda x: x, lo=lo, hi=hi)


def test_iteration_cap_names_the_lowest_unresolved_element(monkeypatch):
    # With one iteration allowed, the first element (its seed is its root)
    # is accepted by its probe and the others are not.
    def g(x):
        return x**3 + x

    monkeypatch.setattr(rootfind, "_MAX_ITER", 1)
    u = np.array([2.0, 1.0, 5.0, 20.0])
    message = r"^residual \S+ or x error above tolerance after 1 iterations$"
    with pytest.raises(InversionError, match=message) as excinfo:
        solve_monotone(MonotoneSpec(g), u, seed=np.ones(4))
    assert excinfo.value.index == 1
    lo, hi = excinfo.value.bracket
    assert lo < hi
    assert g(lo) < u[1] < g(hi)


def test_batch_of_mixed_cases_on_the_printed_wf_map():
    # At dt = 1e-2 the printed map rises to about 2.8597 at its peak near
    # y = 3.0011, and on (0, peak) it is monotone.  Each element takes a
    # different route: accepted at the seed, a root above the seed, a
    # target above the maximum, whose bracket closes on the peak, a root
    # below the seed, and a seed right of the peak, which starts from the
    # middle of the branch instead.
    p, dt = WfParams(1.0, 2.0, 0.20101), 1e-2
    g = wf_mod.implicit_map(p, dt, "printed")
    peak = wf_mod.printed_peak(p, dt)
    count = [0]

    def counted(x):
        count[0] += 1
        return g(x)

    spec = MonotoneSpec(counted, lo=0.0, hi=peak)
    seeds = np.array([1.0, 1.0, 2.86, 2.0, 3.1])
    targets = np.array([g(1.0), g(2.0), 2.87, g(0.6), 2.8596])
    with pytest.raises(InversionError, match=CAP) as excinfo:
        solve_monotone(spec, targets, tol=1e-13, seed=seeds)
    assert excinfo.value.index == 2
    lo, hi = excinfo.value.bracket
    assert 2.86 < lo <= hi == peak and hi - lo <= 1e-15

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



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("route", ["slope", "no slope", "invert_monotone"])
def test_non_finite_target_is_named_before_fn_is_called(route, bad):
    # no bracket can hold such a target, so fn is never called
    g = cev_mod.implicit_map(CEV, 1e-2)
    count = [0]

    def counted(x):
        count[0] += 1
        return g(x)

    slope = cev_mod.implicit_slope(CEV, 1e-2) if route == "slope" else None
    spec = MonotoneSpec(counted, slope=slope)
    with pytest.raises(NumericError, match="non-finite target") as excinfo:
        if route == "invert_monotone":
            invert_monotone(spec, bad)
        else:
            solve_monotone(spec, [1.0, bad, 2.0])
    assert excinfo.value.index == (0 if route == "invert_monotone" else 1)
    assert count[0] == 0


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_empty_batch_gives_an_empty_batch(shape):
    g, dg = cev_mod.implicit_map(CEV, 1e-2), cev_mod.implicit_slope(CEV, 1e-2)
    empty = np.empty(shape)
    for spec in (MonotoneSpec(g, slope=dg), MonotoneSpec(g)):
        for got in (solve_monotone(spec, empty),
                    implicit_step(spec, 1.0)(empty, empty)):
            assert got.dtype == np.float64 and got.shape == shape


CEV = CevParams(1.0 / 16.0, 1.0, 0.4, 0.75)
AIT = AitParams(km1=2.0, k0=3.0, k1=4.0, k2=6.0, k3=1.0, r=2.0, rho=1.5)
WF = WfParams(1.0, 2.0, 0.20101)

# The consistent implicit rows: (g, g', hi) at dt.
CONSISTENT = {
    "cev": lambda dt: (cev_mod.implicit_map(CEV, dt), cev_mod.implicit_slope(CEV, dt),
                       math.inf),
    "wf": lambda dt: (wf_mod.implicit_map(WF, dt, "corrected"),
                      wf_mod.implicit_slope(WF, dt), math.pi),
    "ait": lambda dt: (ait_mod.implicit_map(AIT, dt, "drift"),
                       ait_mod.implicit_slope(AIT, dt), math.inf),
}
STATES = {"cev": [0.05, 0.3, 1.0, 2.5], "wf": [0.05, 1.0, 2.0, 3.1],
          "ait": [0.2, 0.6, 1.0, 1.8]}


@pytest.mark.parametrize("dt", [1e-2, 1e-3])
@pytest.mark.parametrize("model", list(CONSISTENT))
def test_closed_form_slope_matches_central_difference(model, dt):
    g, dg, _ = CONSISTENT[model](dt)
    x = np.array(STATES[model])
    e = 1e-6 * x
    diff = (g(x + e) - g(x - e)) / (2.0 * e)
    np.testing.assert_allclose(dg(x), diff, rtol=1e-6)


def _meets_both_criteria(g, x, u, tol):
    # the residual bound, and a sign change within the x bound either side
    xt = tol * np.maximum(1.0, np.abs(x))
    return (np.all(np.abs(g(x) - u) <= tol * np.maximum(1.0, np.abs(u)))
            and np.all((g(x - xt) - u <= 0) & (g(x + xt) - u >= 0)))


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(["cev", "ait", "wf"]), dt=st.sampled_from([1e-2, 1e-3]),
       draws=st.lists(st.tuples(st.floats(1e-2, 10.0), st.floats(-3.0, 3.0)),
                      min_size=1, max_size=16))
def test_batch_step_matches_lone_steps_on_the_implicit_maps(model, dt, draws):
    # A batch step equals, bit for bit, the same step taken one path at a
    # time, and meets the residual bound that the solver promises.
    # invert_monotone hands fn Python floats, whose ** is libm's pow where
    # numpy's array loop may differ in the last bit, so it agrees with the
    # array solve to the stopping tolerance rather than bit for bit.  The
    # slope only guides the solve: without it the roots agree to twice the
    # tolerance.
    x, z = np.array(draws).T
    dw = z * math.sqrt(dt)
    g, dg, hi = CONSISTENT[model](dt)
    if model == "cev":
        state = x ** (1.0 - CEV.q)
        target = state + CEV.k3 * (1.0 - CEV.q) * dw

        def step(s, w):
            return cev_mod.implicit_bind(CEV, dt)(s, w)
    elif model == "ait":
        state = AIT.forward(x)
        target = state - AIT.K3 * dw

        def step(s, w):
            return ait_mod.implicit_bind(AIT, dt, variant="drift")(s, w)
    else:
        state = WF.forward(x / 11.0)
        target = state + WF.k3 * dw

        def step(s, w):
            return wf_mod.implicit_bind(WF, dt, sign_mode="corrected")(s, w)
    batch = step(state, dw)
    np.testing.assert_array_equal(batch, [step(s, w) for s, w in zip(state, dw)])
    assert np.all(np.abs(g(batch) - target) <= 1e-12 * np.maximum(1.0, np.abs(target)))
    spec = MonotoneSpec(g, lo=0.0, hi=hi)
    for got, u, s in zip(batch, target, state):
        lone = invert_monotone(spec, u, tol=1e-13, seed=s)
        assert abs(got - lone) <= 1e-12 * max(1.0, abs(lone))
    generic = solve_monotone(spec, target, tol=STEP_TOL, seed=state)
    assert np.all(np.abs(batch - generic) <= 2.0 * STEP_TOL * np.maximum(1.0, np.abs(generic)))


SOLVED = [("cev", "implicit"), ("wf", "implicit"), ("wf", "implicit_printed"),
          ("ait", "implicit"), ("ait", "implicit_printed")]


def _recording(monkeypatch):
    """Record (spec, u, tol, seed) of every rootfind.solve_monotone call."""
    calls = []

    def recording(spec, u, tol=1e-12, seed=None, solve=rootfind.solve_monotone):
        calls.append((spec, u, tol, seed))
        return solve(spec, u, tol, seed)

    monkeypatch.setattr(rootfind, "solve_monotone", recording)
    return calls


def _predictor_seed(spec, y, t):
    """Path by path: s2 of s <- s + (t - fn(s)) from s0 = t where t, s1 and
    s2 lie in (lo, hi) and the second correction is no longer than the
    first, else the state y."""
    def inside(s):
        return spec.lo < s < spec.hi

    seed = []
    for y_i, t_i in zip(y, t):
        s = y_i
        if inside(t_i):
            r0 = t_i - spec.fn(np.array(t_i))
            s1 = t_i + r0
            if inside(s1):
                r1 = t_i - spec.fn(np.array(s1))
                s2 = s1 + r1
                if inside(s2) and abs(r1) <= abs(r0):
                    s = s2
        seed.append(s)
    return np.array(seed)


@pytest.mark.parametrize("model, variant", SOLVED)
def test_every_solved_row_steps_through_the_one_implicit_step(model, variant,
                                                              request, monkeypatch):
    # Each step is one call of rootfind.solve_monotone, looked up there, to
    # STEP_TOL and seeded at the predictor s2 where it qualifies and at the
    # state it steps from elsewhere.
    calls = _recording(monkeypatch)
    params = request.getfixturevalue(FIXTURE[model])
    stepper = make_stepper(SchemeId(model, variant), params)
    state, dt = stepper.init(X0[model], size=4), 1e-2
    dws = np.random.default_rng(5).standard_normal((3, 4)) * math.sqrt(dt)
    predicted = 0
    for k, dw in enumerate(dws, 1):
        new, _ = stepper.step(state, dw, dt)
        assert len(calls) == k
        spec, u, tol, seed = calls[-1]
        assert tol == STEP_TOL
        np.testing.assert_array_equal(seed, _predictor_seed(spec, state, u))
        predicted += np.count_nonzero(seed != state)
        state = new
    assert predicted > 0


def _layouts(v):
    """The 12 values of v, each layout in a buffer of its own: contiguous, a
    strided column and a transposed 2-D array."""
    column = np.zeros((v.size, 2))
    column[:, 0] = v
    return {"contiguous": v.copy(), "strided": column[:, 0],
            "transposed": v.copy().reshape(3, 4).T}


@pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
@pytest.mark.parametrize("with_slope", [True, False])
def test_solve_leaves_its_inputs_unchanged(layout, with_slope):
    # Seeds at and below 0 lie outside (0, inf) and start at the interior
    # point instead.  The solve writes into its own arrays only, and a
    # strided layout solves as its contiguous copy does.
    g, dg = cev_mod.implicit_map(CEV, 0.25), cev_mod.implicit_slope(CEV, 0.25)
    spec = MonotoneSpec(g, slope=dg if with_slope else None)
    rng = np.random.default_rng(17)
    roots = rng.uniform(0.05, 3.0, 12)
    seeds = roots * rng.uniform(0.5, 1.5, 12)
    seeds[[2, 7]] = -1.0, 0.0
    u, seed = _layouts(g(roots))[layout], _layouts(seeds)[layout]
    u0, seed0 = u.copy(), seed.copy()
    got = solve_monotone(spec, u, tol=STEP_TOL, seed=seed)
    np.testing.assert_array_equal(u, u0)
    np.testing.assert_array_equal(seed, seed0)
    want = solve_monotone(spec, np.ascontiguousarray(u), tol=STEP_TOL,
                          seed=np.ascontiguousarray(seed))
    assert got.shape == u.shape
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
@pytest.mark.parametrize("model, variant", SOLVED)
def test_solved_row_leaves_its_inputs_unchanged(model, variant, layout, request):
    params = request.getfixturevalue(FIXTURE[model])
    dt = 1e-2
    step = SCHEMES[model, variant].bind(params, dt)
    rng = np.random.default_rng(19)
    xs = X0[model] * rng.uniform(0.7, 1.3, 12)
    states = make_stepper(SchemeId(model, variant), params).init(xs)
    y = _layouts(states)[layout]
    dw = _layouts(rng.standard_normal(12) * math.sqrt(dt))[layout]
    y0, dw0 = y.copy(), dw.copy()
    got = step(y, dw)
    np.testing.assert_array_equal(y, y0)
    np.testing.assert_array_equal(dw, dw0)
    assert got.shape == y.shape
    np.testing.assert_array_equal(
        got, step(np.ascontiguousarray(y), np.ascontiguousarray(dw)))


LONE = (float, np.float64, np.array, lambda v: np.array([v]))


@pytest.mark.parametrize("model, variant", SOLVED)
def test_lone_state_steps_alike_in_every_form(model, variant, request):
    # A state and its increment as a Python float, a numpy scalar, a 0-d
    # array or a one-element array: the same float, shaped like the state.
    params = request.getfixturevalue(FIXTURE[model])
    dt = 1e-2
    step = SCHEMES[model, variant].bind(params, dt)
    y = float(make_stepper(SchemeId(model, variant), params).init(X0[model]))
    dw = 0.3 * math.sqrt(dt)
    got = []
    for form in LONE:
        out = step(form(y), form(dw))
        assert np.shape(out) == np.shape(form(y))
        got.append(float(np.ravel(out)[0]))
    assert got == [got[0]] * len(LONE)


# (model, variant, x0, dt).  At dt = 1 some cev paths from x0 = 1e-4 (and
# some ait paths) step toward targets t <= 0, outside (0, inf), and the wf
# and ait predictors overshoot, so those paths are seeded at the state.
AGREE = [(m, v, X0[m], 1e-2) for m, v in SOLVED] + [
    ("cev", "implicit", 1e-4, 1.0), ("wf", "implicit", 0.5, 1.0),
    ("ait", "implicit", 4.0, 1.0), ("ait", "implicit_printed", 4.0, 1.0)]


@pytest.mark.parametrize("model, variant, x0, dt", AGREE)
def test_predictor_and_state_seeds_solve_alike(model, variant, x0, dt, request,
                                               monkeypatch):
    # The seed only starts the solve: from the predictor and from the state
    # the roots agree to twice the tolerance each is solved to.
    solve = rootfind.solve_monotone
    calls = _recording(monkeypatch)
    params = request.getfixturevalue(FIXTURE[model])
    stepper = make_stepper(SchemeId(model, variant), params)
    state = stepper.init(x0, size=64)
    outside = predicted = 0
    for dw in np.random.default_rng(9).standard_normal((4, 64)) * math.sqrt(dt):
        new, _ = stepper.step(state, dw, dt)
        spec, u, _, seed = calls[-1]
        np.testing.assert_array_equal(seed, _predictor_seed(spec, state, u))
        plain = solve(spec, u, STEP_TOL, state)
        assert np.all(np.abs(new - plain)
                      <= 2.0 * STEP_TOL * np.maximum(1.0, np.abs(plain)))
        outside += np.count_nonzero(u <= spec.lo)
        predicted += np.count_nonzero(seed != state)
        state = new
    if dt < 1.0:
        assert predicted == state.size * 4
    else:
        assert predicted < state.size * 4
    if model == "cev" and dt == 1.0:
        assert outside > 0


def _inside_only(fn, lo, hi):
    """fn, raising on any x outside (lo, hi)."""
    def guarded(x):
        if not np.all((lo < x) & (x < hi)):
            raise AssertionError(f"fn called outside ({lo}, {hi})")
        return fn(x)

    return guarded


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["cev", "wf", "wf printed"])
def test_predictor_calls_fn_only_inside_the_interval(case):
    # cev: targets at and below 0, and targets so near 0 that s1 overshoots
    # (to 1.6e10 and 1952) and s2 falls below 0.  wf: targets beyond 0 and
    # pi, and targets near the ends from which s1 leaves (0, pi).  The printed wf map on
    # (0, peak): states above the peak, outside the interval, whose targets
    # lie below the map's maximum, one of them below 0, so each has a root.
    if case == "cev":
        dt = 1.0
        g, dg, lo, hi = (cev_mod.implicit_map(CEV, dt),
                         cev_mod.implicit_slope(CEV, dt), 0.0, math.inf)
        y, noise = np.array([0.1, 0.1, 0.1, 0.02, 0.5]), CEV.k3 * (1.0 - CEV.q)
        dw = np.array([-1.0, -2.0, -0.999, 0.0, 0.3])
    elif case == "wf":
        dt = 0.5
        g, dg, lo, hi = (wf_mod.implicit_map(WF, dt, "corrected"),
                         wf_mod.implicit_slope(WF, dt), 0.0, math.pi)
        y, noise = np.array([0.05, 3.1, 0.01, 3.13, 1.5]), WF.k3
        dw = np.array([-1.0, 1.0, 0.0, 0.0, 0.1])
    else:
        dt = 1e-2
        g, dg, lo = wf_mod.implicit_map(WF, dt, "printed"), None, 0.0
        hi = wf_mod.printed_peak(WF, dt)
        y, noise = np.array([3.05, 3.05, 1.0, 2.0]), WF.k3
        dw = np.array([-1.5, -16.0, 0.1, -0.2])
    t = y + noise * dw
    spec = MonotoneSpec(_inside_only(g, lo, hi), lo=lo, hi=hi, slope=dg)
    got = implicit_step(spec, noise)(y, dw)
    assert np.any((t <= lo) | (t >= hi)) or np.any((y <= lo) | (y >= hi))
    assert _meets_both_criteria(g, got, t, STEP_TOL)


def test_predictor_beyond_the_interval_seeds_at_the_state(monkeypatch):
    # 0.1 x + e^(4 (x - 9.5)) on (0, 10) from t = 5: s1 = 9.5 lies inside and
    # the second correction, 3.05, is shorter than the first, 4.5, but
    # s2 = 12.55 lies beyond hi.
    calls = _recording(monkeypatch)

    def g(x):
        return 0.1 * x + np.exp(4.0 * (x - 9.5))

    spec = MonotoneSpec(_inside_only(g, 0.0, 10.0), lo=0.0, hi=10.0)
    y, dw = np.array([4.0]), np.array([1.0])
    got = implicit_step(spec, 1.0)(y, dw)
    assert calls[-1][3].tolist() == [4.0]
    assert _meets_both_criteria(g, got, y + dw, STEP_TOL)


def test_predictor_saves_map_calls_on_the_implicit_workload(monkeypatch):
    # The implicit benchmark workload's parameters, x0 and 512 paths, at
    # each of its step sizes and its reference step: over the same targets,
    # solve_monotone calls fn fewer times from the predictor than from the
    # state.  A count, not a timing.
    p = CevParams(1.0 / 16.0, 1.0, 0.4, 0.75)
    solve = rootfind.solve_monotone
    calls = _recording(monkeypatch)

    def fn_calls(spec, u, seed):
        count = [0]

        def counted(x):
            count[0] += 1
            return spec.fn(x)

        solve(replace(spec, fn=counted), u, STEP_TOL, seed)
        return count[0]

    for dt in [2.0**-k for k in (4, 5, 6, 7, 9)]:
        stepper = make_stepper(SchemeId("cev", "implicit"), p)
        state = stepper.init(1.0 / 16.0, size=512)
        predictor = at_state = 0
        for dw in np.random.default_rng(1).standard_normal((16, 512)) * math.sqrt(dt):
            new, _ = stepper.step(state, dw, dt)
            spec, u, _, seed = calls[-1]
            predictor += fn_calls(spec, u, seed)
            at_state += fn_calls(spec, u, state)
            state = new
        assert predictor < at_state


def test_safeguard_acts_where_newton_fails_on_the_cev_map():
    # At dt = 1 and k3 = 2, G' < 0 on about (0.147, 0.527), where G falls
    # from a local maximum to a local minimum.  The targets lie below that
    # minimum, so each has one root, near u = 0.  From the first two seeds
    # G' < 0; from the other two a Newton step leaves the bracket (0, seed).
    p = CevParams(0.01, 1.0, 2.0, 0.75)
    g, dg = cev_mod.implicit_map(p, 1.0), cev_mod.implicit_slope(p, 1.0)
    seeds = np.array([0.3, 0.45, 1.0, 2.0])
    targets = g(np.array([0.03, 0.06, 0.04, 0.08]))
    assert np.all(dg(seeds[:2]) < 0)
    assert np.all(seeds[2:] - (g(seeds[2:]) - targets[2:]) / dg(seeds[2:]) < 0)
    spec = MonotoneSpec(g, lo=0.0, hi=math.inf, slope=dg)
    got = solve_monotone(spec, targets, tol=STEP_TOL, seed=seeds)
    assert _meets_both_criteria(g, got, targets, STEP_TOL)
    generic = solve_monotone(MonotoneSpec(g), targets, tol=STEP_TOL, seed=seeds)
    np.testing.assert_allclose(got, generic, rtol=2.0 * STEP_TOL, atol=0.0)


def test_safeguard_expands_toward_an_infinite_end():
    # y^3 - 3y with y = x - 2 falls on (1, 3), where the seeds lie, and never
    # exceeds 2 on (0, 3); each target is above 2, so its one root lies beyond
    # x = 4, which the bracket (seed, inf) must grow to reach: Newton finds
    # fn' < 0 and doubles x, and the secant without a slope falls and
    # doubles it too.
    def g(x):
        return (x - 2.0) ** 3 - 3.0 * (x - 2.0)

    spec = MonotoneSpec(g, slope=lambda x: 3.0 * (x - 2.0) ** 2 - 3.0)
    u, seeds = np.array([10.0, 30.0, 100.0]), np.array([2.0, 2.5, 1.1])
    got = solve_monotone(spec, u, tol=STEP_TOL, seed=seeds)
    assert _meets_both_criteria(g, got, u, STEP_TOL)
    assert np.all(got > 2.0 * seeds)
    generic = solve_monotone(MonotoneSpec(g), u, tol=STEP_TOL, seed=seeds)
    np.testing.assert_allclose(got, generic, rtol=2.0 * STEP_TOL, atol=0.0)


def test_errors_name_their_element_with_a_slope():
    spec = MonotoneSpec(lambda x: np.where(x > 2.0, np.nan, x),
                        slope=np.ones_like)
    with pytest.raises(NumericError) as excinfo:
        solve_monotone(spec, [1.5, 3.0, 5.0])
    assert excinfo.value.index == 1
    spec = MonotoneSpec(np.tanh, lo=0.0, hi=math.inf,
                        slope=lambda x: 1.0 - np.tanh(x) ** 2)
    with pytest.raises(InversionError) as excinfo:
        solve_monotone(spec, [0.5, 0.3, 5.0, 0.9])
    assert excinfo.value.index == 2
    assert excinfo.value.bracket is not None


@pytest.mark.parametrize("dt", [2.0**-4, 2.0**-9])
def test_slope_needs_fewer_map_evaluations(dt, monkeypatch):
    # One step of the cev implicit row on 256 paths: the map's calls, and
    # the elements it evaluates, against the same batch solved by the
    # secant without the slope.
    g = cev_mod.implicit_map(CEV, dt)
    calls = np.zeros(2, int)

    def counted(u):
        calls[:] += 1, np.size(u)
        return g(u)

    monkeypatch.setattr(cev_mod, "implicit_map", lambda p, dt: counted)
    rng = np.random.default_rng(11)
    state = np.exp(rng.uniform(np.log(1e-2), np.log(2.0), 256)) ** (1.0 - CEV.q)
    dw = rng.standard_normal(256) * math.sqrt(dt)
    make_stepper(SchemeId("cev", "implicit"), CEV).step(state, dw, dt)
    newton = calls.copy()
    calls[:] = 0
    solve_monotone(MonotoneSpec(counted), state + CEV.k3 * (1.0 - CEV.q) * dw,
                   tol=STEP_TOL, seed=state)
    assert np.all(newton < calls)


def _cubic(x):
    return (x - 2.0) ** 3 - 3.0 * (x - 2.0)


_P_STIFF = CevParams(0.01, 1.0, 2.0, 0.75)
TWO_CYCLES = {
    # (g, g', seed, u): a probe from x straddles the root, but neither end
    # meets the residual bound, and a Newton step from the probe, stretched
    # to the x bound, lands back on x
    "ait golden": (ait_mod.implicit_map(AIT, 0.125, "drift"),
                   ait_mod.implicit_slope(AIT, 0.125),
                   1.120679963783886, 1.4121867053540291),
    "cev stiff": (cev_mod.implicit_map(_P_STIFF, 1.0),
                  cev_mod.implicit_slope(_P_STIFF, 1.0),
                  1.0, float(cev_mod.implicit_map(_P_STIFF, 1.0)(np.array(0.04)))),
    "cubic": (_cubic, lambda x: 3.0 * (x - 2.0) ** 2 - 3.0, 2.5, 30.0),
}


@pytest.mark.parametrize("case", list(TWO_CYCLES))
def test_newton_leaves_a_two_cycle_through_the_chord(case):
    # The chord point between x and its probe breaks the cycle: each settles
    # in fewer map calls than the 20 Newton steps, so Newton alone settles it.
    g, dg, seed, u = TWO_CYCLES[case]
    count = [0]

    def counted(x):
        count[0] += 1
        return g(x)

    x = solve_monotone(MonotoneSpec(counted, slope=dg), u, tol=STEP_TOL, seed=seed)
    assert count[0] <= 15
    assert _meets_both_criteria(g, np.atleast_1d(x), u, STEP_TOL)


@settings(max_examples=60, deadline=None)
@given(coef=st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0),
                      st.floats(0.01, 5.0)),
       with_slope=st.booleans(),
       cases=st.lists(st.tuples(st.floats(1e-3, 50.0), st.floats(1e-3, 50.0)),
                      min_size=1, max_size=12))
def test_random_rising_maps_solve_alike_in_a_batch_and_alone(coef, with_slope,
                                                             cases):
    # a x^3 + b x - c / x rises from -inf at 0 to inf, a sign bracket for
    # every target.  Its arithmetic rounds the same element by element, so
    # a batch solve equals, bit for bit, each element solved alone, with
    # the slope or by the secant, and meets both criteria.
    a, b, c = coef

    def g(x):
        return a * x * x * x + b * x - c / x

    slope = (lambda x: 3.0 * a * x * x + b + c / (x * x)) if with_slope else None
    spec = MonotoneSpec(g, slope=slope)
    roots, seeds = np.array(cases).T
    u = g(roots)
    batch = solve_monotone(spec, u, tol=STEP_TOL, seed=seeds)
    alone = [solve_monotone(spec, v, tol=STEP_TOL, seed=s) for v, s in zip(u, seeds)]
    assert batch.tolist() == [float(x) for x in alone]
    assert _meets_both_criteria(g, batch, u, STEP_TOL)
