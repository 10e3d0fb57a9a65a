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
def test_row_binds_once_per_dt(key, request):
    # the stepper binds the row's map again only when a step's dt changes
    model, variant = key
    row = SCHEMES[key]
    params = request.getfixturevalue(
        "cir_ou_params" if variant == "exact_ou" else FIXTURE[model])
    dts = []

    def counting(p, dt, **kwargs):
        dts.append(dt)
        return row.bind(p, dt, **kwargs)

    stepper = Stepper(SchemeId(model, variant),
                      dataclasses.replace(row, bind=counting), params, 1.0, 0.5)
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
    """Heston 3/2's drift (2 k2/k3^2 + 3)/y - (k1/2) y in y = (2/k3) x^(-1/2)."""
    return 2.0 * p.k2 / p.k3**2 + 3.0, p.k1 / 2.0


# The rows that run one of CIR's LSD maps, with the (a, b) each must bind.
SHARED_MAPS = {
    ("cir", "lsd1"): (cir_mod.lsd1_bind, _cir_ab),
    ("cir", "lsd2"): (cir_mod.lsd2_bind, _cir_ab),
    ("cir", "lsd3"): (cir_mod.lsd3_bind, _cir_ab),
    ("heston32", "lsd1"): (cir_mod.lsd1_bind, _heston32_ab),
    ("heston32", "lsd2"): (cir_mod.lsd2_bind, _heston32_ab),
}


@pytest.mark.parametrize("key", list(SHARED_MAPS), ids=lambda k: f"{k[0]}:{k[1]}")
def test_shared_map_row_binds_its_printed_coefficients(key, request):
    # dt = 1e-13 puts lsd2 on the linear branch of the Bernoulli solution
    model, variant = key
    bind, coefficients = SHARED_MAPS[key]
    params = request.getfixturevalue(FIXTURE[model])
    stepper = make_stepper(SchemeId(model, variant), params)
    rng = np.random.default_rng(5)
    y = stepper.init(X0[model], size=64)
    for dt in (DT, 2.0**-6, 1e-13):
        dw = rng.standard_normal(64) * np.sqrt(dt)
        want = bind(*coefficients(params), dt)(y, dw)
        y, _ = stepper.step(y, dw, dt)
        assert y.tobytes() == want.tobytes()


@pytest.mark.parametrize("key, params, kwargs, message", [
    (("cir", "exact_ou"), "cir_ou_params", dict(m_split=0.0),
     r"^split weight must lie in \(0,1\), got 0\.0$"),
    (("cir", "exact_ou"), "cir_ou_params", dict(m_split=1.0),
     r"^split weight must lie in \(0,1\), got 1\.0$"),
    (("cir", "sd_theta"), "cir_params", dict(theta=-50.0),
     r"^theta must lie in \[0, 1\], got -50\.0$"),
    (("cir", "exact_ou"), "cir_params", {},
     r"^squared-OU construction needs 4\*k1/k3\^2 = 2, got 8\.0$"),
    (("cir", "lsd1"), "cev_params", {},
     r"^params are for 'cev' but scheme is cir:lsd1$"),
    (("gbm", "lsd1"), "cir_params", {}, r"^unknown model 'gbm'$"),
    (("cir", "lsd9"), "cir_params", {},
     r"^unknown variant 'lsd9' for model 'cir'; expected one of \('lsd1', "
     r"'lsd2', 'lsd3', 'sd_theta', 'alf', 'ns', 'exact_ou'\)$"),
], ids=["split-0", "split-1", "theta", "dimension", "model", "unknown-model",
        "unknown-variant"])
def test_make_stepper_rejects_with_its_message(key, params, kwargs, message,
                                               request):
    with pytest.raises(ConfigurationError, match=message):
        make_stepper(SchemeId(*key), request.getfixturevalue(params), **kwargs)
