"""Every row of the scheme table runs through the stepper interface."""

import dataclasses

import numpy as np
import pytest

from lsd.errors import ConfigurationError
from lsd.schemes import SCHEMES, SchemeId, Stepper, make_stepper
from lsd.schemes import cir as cir_mod
from lsd.schemes._complex import sqrt_with_fallback

FIXTURE = {"cir": "cir_params", "cev": "cev_params", "wf": "wf_params",
           "heston32": "heston_params", "ait": "ait_params"}
X0 = {"cir": 4.0, "cev": 1.0 / 16.0, "wf": 0.5, "heston32": 1.0, "ait": 4.0}
DT = 1e-2


@pytest.mark.parametrize("key", list(SCHEMES), ids=lambda k: f"{k[0]}:{k[1]}")
def test_row_runs_through_its_stepper(key, request):
    model, variant = key
    row = SCHEMES[key]
    params = request.getfixturevalue(
        "cir_ou_params" if variant == "exact_ou" else FIXTURE[model])
    stepper = make_stepper(SchemeId(model, variant), params)
    assert stepper.event == row.mask
    x0 = X0[model]
    assert stepper.x_of(stepper.init(x0)) == pytest.approx(x0, rel=1e-12)

    rng = np.random.default_rng(7)
    for size in (None, 1, 8):
        shape = () if size is None else (size,)
        state = stepper.init(x0, size=size)
        for _ in range(10):
            dw = rng.standard_normal((stepper.drivers,) + shape) * np.sqrt(DT)
            state, mask = stepper.step(
                state, tuple(dw) if stepper.drivers == 2 else dw[0], DT)
            if row.mask is not None:
                assert np.asarray(mask).dtype == bool
                assert np.shape(mask) == shape
            else:
                assert mask is None
        x = stepper.x_of(state)
        assert np.shape(x) == shape
        assert np.all(np.isfinite(x))


@pytest.mark.parametrize("key", list(SCHEMES), ids=lambda k: f"{k[0]}:{k[1]}")
def test_row_binds_from_params_and_dt_alone(key, request):
    # a name selects one computation, so no per-run argument reaches a row
    model, variant = key
    params = request.getfixturevalue(
        "cir_ou_params" if variant == "exact_ou" else FIXTURE[model])
    assert callable(SCHEMES[key].bind(params, DT))


@pytest.mark.parametrize("key", list(SCHEMES), ids=lambda k: f"{k[0]}:{k[1]}")
def test_row_binds_once_per_dt(key, request):
    # the stepper binds the row's map again only when a step's dt changes
    model, variant = key
    row = SCHEMES[key]
    params = request.getfixturevalue(
        "cir_ou_params" if variant == "exact_ou" else FIXTURE[model])
    dts = []

    def counting(p, dt):
        dts.append(dt)
        return row.bind(p, dt)

    stepper = Stepper(SchemeId(model, variant),
                      dataclasses.replace(row, bind=counting), params, 0.5)
    state = stepper.init(X0[model], size=4)
    rng = np.random.default_rng(11)
    for dt, binds in ((DT, 1), (DT, 1), (DT, 1), (DT / 2, 2), (DT, 3)):
        dw = rng.standard_normal((stepper.drivers, 4)) * np.sqrt(dt)
        state, _ = stepper.step(
            state, tuple(dw) if stepper.drivers == 2 else dw[0], dt)
        assert len(dts) == binds
    assert dts == [DT, DT / 2, DT]


def test_non_real_mask_marks_a_non_zero_imaginary_part():
    # the mask casts the root's imaginary part to bool: NaN marks, -0.0 not
    radicand = np.array([-1.0, -0.0, 4.0, np.nan, np.inf, -np.inf, 1.0 + 2.0j,
                         complex(-4.0, -0.0), complex(4.0, -0.0),
                         complex(np.nan, 0.0)])
    root, nonreal = sqrt_with_fallback(radicand)
    assert nonreal.dtype == bool
    np.testing.assert_array_equal(nonreal, root.imag != 0)
    assert nonreal.tolist() == [True, False, False, True, False, True, True,
                                True, False, True]
    lone = sqrt_with_fallback(np.array(-1.0))[1]
    assert lone.dtype == bool and lone.shape == () and lone


def _cir_ab(p):
    """CIR's drift a/y - b y in y = 2 sqrt(x)/k3."""
    return 2.0 * p.k1 / p.k3**2, p.k2 / 2.0 + p.k3**2 / 8.0


def _heston32_ab(p):
    """Heston 3/2's drift (2 k2/k3^2 + 3/2)/y - (k1/2) y in y = (2/k3) x^(-1/2),
    CIR's of the reciprocal, with (K1, K2, K3) = (k2 + k3^2, k1, k3)."""
    return 2.0 * p.k2 / p.k3**2 + 1.5, p.k1 / 2.0


# The rows that run one of CIR's LSD maps, with the (a, b) each must bind
# and the sign of the noise it takes: y = (2/k3) x^(-1/2) falls as x rises.
SHARED_MAPS = {
    ("cir", "lsd1"): (cir_mod.lsd1_bind, _cir_ab, 1.0),
    ("cir", "lsd2"): (cir_mod.lsd2_bind, _cir_ab, 1.0),
    ("cir", "lsd3"): (cir_mod.lsd3_bind, _cir_ab, 1.0),
    ("heston32", "lsd1"): (cir_mod.lsd1_bind, _heston32_ab, -1.0),
    ("heston32", "lsd2"): (cir_mod.lsd2_bind, _heston32_ab, -1.0),
    ("heston32", "implicit"): (cir_mod.lsd3_bind, _heston32_ab, -1.0),
}


@pytest.mark.parametrize("key", list(SHARED_MAPS), ids=lambda k: f"{k[0]}:{k[1]}")
def test_shared_map_row_binds_its_printed_coefficients(key, request):
    # dt = 1e-13 puts lsd2 on the linear branch of the Bernoulli solution
    model, variant = key
    bind, coefficients, sign = SHARED_MAPS[key]
    params = request.getfixturevalue(FIXTURE[model])
    stepper = make_stepper(SchemeId(model, variant), params)
    rng = np.random.default_rng(5)
    y = stepper.init(X0[model], size=64)
    for dt in (DT, 2.0**-6, 1e-13):
        dw = rng.standard_normal(64) * np.sqrt(dt)
        want = bind(*coefficients(params), dt)(y, sign * dw)
        y, _ = stepper.step(y, dw, dt)
        assert y.tobytes() == want.tobytes()


# The names that select the same computation as another: the plain cir and
# cev LSD rows run the printed coefficients until the consistent ones
# replace them in lsd.models.
ALIASES = {frozenset({(model, f"lsd{n}"), (model, f"lsd{n}_printed")})
           for model in ("cir", "cev") for n in (1, 2, 3)}

# States spread over each domain: from one state a pair of rows can agree
# (at wf's x = 0.5, where a = b, lsd2 and sd give the same bytes).
STATES = {"cir": np.geomspace(0.05, 20.0, 32),
          "cev": np.geomspace(0.01, 2.0, 32),
          "wf": np.linspace(0.05, 0.95, 32),
          "heston32": np.geomspace(0.01, 2.0, 32),
          "ait": np.geomspace(0.5, 8.0, 32)}


@pytest.mark.parametrize("model", list(FIXTURE))
def test_one_name_selects_one_computation(model, request):
    # every one-driver row steps once from the same states on the same dw;
    # no two may give the same bytes unless ALIASES names the pair
    params = request.getfixturevalue(FIXTURE[model])
    x = STATES[model]
    dw = np.random.default_rng(13).standard_normal(x.size) * np.sqrt(DT)
    out = {}
    for (m, variant), row in SCHEMES.items():
        if m == model and row.drivers == 1:
            stepper = make_stepper(SchemeId(m, variant), params)
            state, _ = stepper.step(stepper.init(x), dw, DT)
            x_next = stepper.x_of(state)
            assert np.all(np.isfinite(x_next))
            out[m, variant] = x_next.tobytes()
    same = {frozenset({k, j}) for k in out for j in out
            if k != j and out[k] == out[j]}
    assert same == {pair for pair in ALIASES if min(pair)[0] == model}


@pytest.mark.parametrize("key, params, kwargs, message", [
    (("cir", "exact_ou"), "cir_ou_params", dict(m_split=0.0),
     r"^split weight must lie in \(0,1\), got 0\.0$"),
    (("cir", "exact_ou"), "cir_ou_params", dict(m_split=1.0),
     r"^split weight must lie in \(0,1\), got 1\.0$"),
    (("cir", "exact_ou"), "cir_params", {},
     r"^squared-OU construction needs 4\*k1/k3\^2 = 2, got 8\.0$"),
    (("cir", "lsd1"), "cev_params", {},
     r"^params are for 'cev' but scheme is cir:lsd1$"),
    (("gbm", "lsd1"), "cir_params", {}, r"^unknown model 'gbm'$"),
    (("cir", "lsd9"), "cir_params", {},
     r"^unknown variant 'lsd9' for model 'cir'; expected one of \('lsd1', "
     r"'lsd2', 'lsd3', 'lsd1_printed', 'lsd2_printed', 'lsd3_printed', "
     r"'sd_theta', 'alf', 'ns', 'exact_ou'\)$"),
], ids=["split-0", "split-1", "dimension", "model", "unknown-model",
        "unknown-variant"])
def test_make_stepper_rejects_with_its_message(key, params, kwargs, message,
                                               request):
    with pytest.raises(ConfigurationError, match=message):
        make_stepper(SchemeId(*key), request.getfixturevalue(params), **kwargs)
