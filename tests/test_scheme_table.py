"""Every row of the scheme table runs through the stepper interface."""

import numpy as np
import pytest

from lsd.errors import ConfigurationError
from lsd.schemes import SCHEMES, SchemeId, make_stepper

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
