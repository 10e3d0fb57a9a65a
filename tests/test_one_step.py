"""One-step moments of every scheme-table row against its SDE.

From a fixed x, one step of size dt has E[dX]/dt -> mu(x) and
E[dX^2]/dt -> sigma^2(x) as dt -> 0 for a scheme consistent with
dX = mu dt + sigma dW.  The expectations are Gauss-Hermite quadratures over
the driving increment, so the check is deterministic and independent of the
schemes' own coefficients: mu and sigma^2 are written out below from the
model equations.  A row that runs a map as printed in its source, named
``*_printed``, must fail the drift check.
"""

import numpy as np
import pytest

from lsd.schemes import SCHEMES, SchemeId, make_stepper
from test_scheme_table import FIXTURE

DT = 1e-6
NODES = 60
DRIFT_RTOL = 1e-4
VARIANCE_RTOL = 2e-3

X = {"cir": 4.0, "cev": 0.5, "wf": 0.4, "heston32": 0.01, "ait": 1.0}

# (mu(p, x), sigma^2(p, x)) from each model's SDE
SDE = {
    "cir": (lambda p, x: p.k1 - p.k2 * x, lambda p, x: p.k3**2 * x),
    "cev": (lambda p, x: p.k1 - p.k2 * x, lambda p, x: p.k3**2 * x ** (2 * p.q)),
    "wf": (lambda p, x: p.k1 - p.k2 * x, lambda p, x: p.k3**2 * x * (1 - x)),
    "heston32": (lambda p, x: p.k1 * x - p.k2 * x**2,
                 lambda p, x: p.k3**2 * x**3),
    "ait": (lambda p, x: p.km1 / x - p.k0 + p.k1 * x - p.k2 * x**p.r,
            lambda p, x: p.k3**2 * x ** (2 * p.rho)),
}

# Rows whose drift is known to be off, with the diagnosis of each.
_LSD_CIR = ("the LSD coefficients should be a = 2k1/k3^2 - 1/2 and "
            "b = k2/2; the drift error is (k3^2/4)(1 - x)")
_LSD_CEV = "the LSD coefficient a is too large by a factor of k3^2"
_LSD_HESTON = ("the Lamperti drift is (2k2/k3^2 + 3/2)/y - k1 y/2, so "
               "c_star should be 4k2/k3^2 + 3, not + 6")
KNOWN_WRONG = {
    ("cir", "lsd1"): _LSD_CIR,
    ("cir", "lsd2"): _LSD_CIR,
    ("cir", "lsd3"): _LSD_CIR,
    ("cir", "ns"): ("the radicand lacks the factor 2(1 + k2 dt/2) of "
                    "Neuenkirch & Szpruch 2014; the drift is off by -0.875"),
    ("cev", "lsd1"): _LSD_CEV,
    ("cev", "lsd2"): _LSD_CEV,
    ("cev", "lsd3"): _LSD_CEV + ", and the update lacks the -dt/y term",
    ("heston32", "lsd1"): _LSD_HESTON,
    ("heston32", "lsd2"): _LSD_HESTON,
    ("wf", "sd_alt"): "drift 0.596 where the SDE gives 0.2; not diagnosed",
}


def _rows():
    for key in SCHEMES:
        marks = ()
        if key in KNOWN_WRONG:
            marks = pytest.mark.xfail(strict=True, raises=AssertionError,
                                      reason=KNOWN_WRONG[key])
        yield pytest.param(key, marks=marks, id=f"{key[0]}:{key[1]}")


def _one_step_moments(stepper, x, dt):
    """(E[dX]/dt, E[dX^2]/dt) for one step from x, by Gauss-Hermite quadrature."""
    z, w = np.polynomial.hermite_e.hermegauss(NODES)
    w = w / w.sum()
    if stepper.drivers == 2:
        z1, z2 = np.meshgrid(z, z)
        dw = (np.sqrt(dt) * z1.ravel(), np.sqrt(dt) * z2.ravel())
        w = np.outer(w, w).ravel()
    else:
        dw = np.sqrt(dt) * z
    state, _ = stepper.step(stepper.init(x, size=w.size), dw, dt)
    dx = stepper.x_of(state) - x
    return np.sum(w * dx) / dt, np.sum(w * dx * dx) / dt


@pytest.mark.parametrize("key", _rows())
def test_one_step_moments_match_the_sde(key, request):
    model, variant = key
    params = request.getfixturevalue(
        "cir_ou_params" if variant == "exact_ou" else FIXTURE[model])
    x = X[model]
    mu, sigma2 = (f(params, x) for f in SDE[model])
    drift, second = _one_step_moments(
        make_stepper(SchemeId(model, variant), params), x, DT)
    drift_error = abs(drift - mu) / abs(mu)
    assert abs(second - sigma2) <= VARIANCE_RTOL * sigma2
    if variant.endswith("_printed"):
        assert drift_error > DRIFT_RTOL
    else:
        assert drift_error <= DRIFT_RTOL
