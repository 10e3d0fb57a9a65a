"""The drift the LSD coefficients encode against the Lamperti drift.

For Y = F(X), with F the model's forward transform, Ito's formula gives
dY = (F'(x) mu(x) + F''(x) sigma^2(x) / 2) dt + F'(x) sigma(x) dW.  F' and
F'' come from central differences of ``params.forward`` and mu, sigma^2 from
the model equations, so the reference shares no code with the schemes.  The
LSD maps are built on the transformed drift written out below from each
model's derived coefficients (a, b, c, K...), and on a constant
diffusion.
"""

import numpy as np
import pytest

from test_one_step import KNOWN_WRONG, SDE
from test_scheme_table import FIXTURE

RTOL = 1e-6

X = {"cir": [0.5, 1.5, 4.0], "cev": [0.1, 0.5, 2.0], "wf": [0.1, 0.4, 0.9],
     "heston32": [0.01, 0.2, 1.0], "ait": [0.5, 1.0, 2.0]}

# the drift of Y that the LSD coefficients encode, as a function of y
ENCODED = {
    "cir": lambda p, y: p.a / y - p.b * y,
    "cev": lambda p, y: (p.a * y ** (-p.q / (1.0 - p.q)) - p.b / y
                         - p.c * y),
    "wf": lambda p, y: p.a / np.tan(y / 2.0) - p.b * np.tan(y / 2.0),
    "heston32": lambda p, y: p.a / y - p.b * y,
    "ait": lambda p, y: (-p.Km1 * y**p.e1 + p.K0 * y**p.e2 - p.K1 * y
                         + p.K2 * y**p.e5 + p.K4 / y),
}

# F'(x) sigma(x), the constant diffusion of Y
DIFFUSION = {"cir": lambda p: 1.0, "cev": lambda p: 1.0, "wf": lambda p: p.k3,
             "heston32": lambda p: -1.0, "ait": lambda p: -p.K3}

# The LSD rows of these models fail the one-step drift check; the diagnosis
# is the same here.
WRONG = {model: KNOWN_WRONG[model, "lsd1"] for model in ("cir", "cev")}


def _derivatives(f, x):
    """(f'(x), f''(x)) by central differences with step 1e-4 x."""
    h = 1e-4 * x
    lo, mid, hi = f(x - h), f(x), f(x + h)
    return (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / (h * h)


def _params(model, request):
    return request.getfixturevalue(FIXTURE[model])


def _models():
    for model in ENCODED:
        marks = ()
        if model in WRONG:
            marks = pytest.mark.xfail(raises=AssertionError, reason=WRONG[model])
        yield pytest.param(model, marks=marks, id=model)


@pytest.mark.parametrize("model", _models())
def test_encoded_drift_is_the_ito_drift(model, request):
    p = _params(model, request)
    x = np.array(X[model])
    mu, sigma2 = (f(p, x) for f in SDE[model])
    d1, d2 = _derivatives(p.forward, x)
    ito = d1 * mu + 0.5 * d2 * sigma2
    np.testing.assert_allclose(ENCODED[model](p, p.forward(x)), ito, rtol=RTOL)


@pytest.mark.parametrize("model", list(ENCODED))
def test_diffusion_is_constant(model, request):
    p = _params(model, request)
    x = np.array(X[model])
    d1, _ = _derivatives(p.forward, x)
    sigma = np.sqrt(SDE[model][1](p, x))
    np.testing.assert_allclose(d1 * sigma, DIFFUSION[model](p), rtol=RTOL)
