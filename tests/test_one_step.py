"""One-step moments of every scheme-table row against its SDE.

From a fixed x, one step of size dt has E[dX]/dt -> mu(x),
E[dX^2]/dt -> sigma^2(x) and, with z = dW/sqrt(dt), E[dX z]/(sigma sqrt(dt))
-> +1 as dt -> 0 for a scheme consistent with dX = mu dt + sigma dW; the
last is the sign of the noise, which the moments cannot see.  A row of
strong order 1 also matches the Milstein term (1/2) sigma sigma' (dW^2 - dt)
of the Ito-Taylor expansion, so E[dX (z^2 - 1)]/(2 dt) -> (1/4)(sigma^2)'(x);
a row that misses it has a one-step L2 error of order dt, not dt^(3/2), and
is strong order 1/2 at best (Milstein & Tretyakov 2004, Thm. 1.1).  The
expectations are Gauss-Hermite quadratures over the driving increment, so
the check is deterministic and independent of the schemes' own
coefficients: mu, sigma^2 and (sigma^2)' are written out below from the
model equations.  A row that runs a map as printed in its source, named
``*_printed``, must fail the drift check, a row of ``ORDER_HALF`` the
Milstein check, and a row of ``NOISE_FLIPPED`` the noise check.
"""

import numpy as np
import pytest

from lsd.schemes import SCHEMES, SchemeId, make_stepper
from test_scheme_table import FIXTURE

DT = 1e-6
NODES = 60
DRIFT_RTOL = 1e-4
VARIANCE_RTOL = 2e-3
NOISE_SIGN_TOL = 1e-3
MILSTEIN_TOL = 1e-3
# The squared-OU row's initial split; its x moves with the effective normal
# z_eff = sqrt(m) z1 + sqrt(1 - m) z2.
M_SPLIT = 0.5

# The states each row is checked at.  E[dX^2]/dt also holds mu^2 dt, which
# the variance tolerance cannot absorb where mu is large (heston32 at 0.5).
X = {"cir": (4.0, 0.5), "cev": (0.5, 2.0), "wf": (0.4, 0.8),
     "heston32": (0.01, 0.02), "ait": (1.0, 0.5, 2.0)}

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

# (sigma^2)'(p, x), the derivative of each SDE's sigma^2 above
DSIGMA2 = {
    "cir": lambda p, x: p.k3**2,
    "cev": lambda p, x: 2 * p.q * p.k3**2 * x ** (2 * p.q - 1),
    "wf": lambda p, x: p.k3**2 * (1 - 2 * x),
    "heston32": lambda p, x: 3 * p.k3**2 * x**2,
    "ait": lambda p, x: 2 * p.rho * p.k3**2 * x ** (2 * p.rho - 1),
}

# Rows that miss the Milstein term, so are strong order 1/2 at best: their
# ratio to (1/4)(sigma^2)' reads 2 (alf), 2/3 (sd_theta, sd_exp) and 0
# (biss).  They are findings, not xfails: a change to any of them shows.
ORDER_HALF = {("cir", "alf"), ("cev", "sd_theta"), ("heston32", "sd_exp"),
              ("wf", "biss")}

# heston32's printed LSD rows, which drive y = (2/k3) x^(-1/2), falling as x
# rises, with +dw as printed: their E[dX z]/(sigma sqrt(dt)) reads -1.  A
# finding, not an xfail, as for ORDER_HALF.
NOISE_FLIPPED = {("heston32", "lsd1_printed"), ("heston32", "lsd2_printed")}

# Rows whose drift is known to be off, with the diagnosis of each.
_LSD_CIR = ("the LSD coefficients should be a = 2k1/k3^2 - 1/2 and "
            "b = k2/2; the drift error is (k3^2/4)(1 - x)")
_LSD_CEV = "the LSD coefficient a is too large by a factor of k3^2"
_LSD_HESTON = ("the Lamperti drift is (2k2/k3^2 + 3/2)/y - k1 y/2, so "
               "c_star should be 4k2/k3^2 + 3, not + 6")
_HESTON_NOISE = ("; and the noise has the wrong sign: y = (2/k3) x^(-1/2) "
                 "falls as x rises, so the map must take -dw, and "
                 "E[dX z]/(sigma sqrt(dt)) reads -1")
KNOWN_WRONG = {
    ("cir", "lsd1"): _LSD_CIR,
    ("cir", "lsd2"): _LSD_CIR,
    ("cir", "lsd3"): _LSD_CIR,
    ("cir", "ns"): ("the radicand lacks the factor 2(1 + k2 dt/2) of "
                    "Neuenkirch & Szpruch 2014; the drift is off by -0.875"),
    ("cev", "lsd1"): _LSD_CEV,
    ("cev", "lsd2"): _LSD_CEV,
    ("cev", "lsd3"): _LSD_CEV + ", and the update lacks the -dt/y term",
    ("heston32", "lsd1"): _LSD_HESTON + _HESTON_NOISE,
    ("heston32", "lsd2"): _LSD_HESTON + _HESTON_NOISE,
    ("wf", "sd_alt"): "drift 0.596 where the SDE gives 0.2; not diagnosed",
}


def _rows(known_wrong=True):
    for key in SCHEMES:
        marks = ()
        if known_wrong and key in KNOWN_WRONG:
            marks = pytest.mark.xfail(strict=True, raises=AssertionError,
                                      reason=KNOWN_WRONG[key])
        for i, x in enumerate(X[key[0]]):
            yield pytest.param(key, x, marks=marks,
                               id=f"{key[0]}:{key[1]}" + (f"@x={x}" if i else ""))


def _one_step_moments(stepper, x, dt):
    """(E[dX]/dt, E[dX^2]/dt, E[dX z]/sqrt(dt), E[dX (z^2 - 1)]/(2 dt)) for
    one step from x, by Gauss-Hermite quadrature; z is the normal that
    drives x."""
    z, w = np.polynomial.hermite_e.hermegauss(NODES)
    w = w / w.sum()
    if stepper.drivers == 2:
        z1, z2 = (g.ravel() for g in np.meshgrid(z, z))
        dw = (np.sqrt(dt) * z1, np.sqrt(dt) * z2)
        w = np.outer(w, w).ravel()
        z = np.sqrt(M_SPLIT) * z1 + np.sqrt(1.0 - M_SPLIT) * z2
    else:
        dw = np.sqrt(dt) * z
    state, _ = stepper.step(stepper.init(x, size=w.size), dw, dt)
    dx = stepper.x_of(state) - x
    return (np.sum(w * dx) / dt, np.sum(w * dx * dx) / dt,
            np.sum(w * dx * z) / np.sqrt(dt),
            np.sum(w * dx * (z * z - 1.0)) / (2.0 * dt))


def _moments_at(key, x, request):
    model, variant = key
    params = request.getfixturevalue(
        "cir_ou_params" if variant == "exact_ou" else FIXTURE[model])
    stepper = make_stepper(SchemeId(model, variant), params, m_split=M_SPLIT)
    return params, _one_step_moments(stepper, x, DT)


@pytest.mark.parametrize("key, x", _rows())
def test_one_step_moments_match_the_sde(key, x, request):
    model, variant = key
    params, (drift, second, noise, _) = _moments_at(key, x, request)
    mu, sigma2 = (f(params, x) for f in SDE[model])
    drift_error = abs(drift - mu) / abs(mu)
    assert abs(second - sigma2) <= VARIANCE_RTOL * sigma2
    sign = -1.0 if key in NOISE_FLIPPED else 1.0
    assert abs(noise / np.sqrt(sigma2) - sign) <= NOISE_SIGN_TOL
    if variant.endswith("_printed"):
        assert drift_error > DRIFT_RTOL
    else:
        assert drift_error <= DRIFT_RTOL


@pytest.mark.parametrize("key, x", _rows(known_wrong=False))
def test_one_step_milstein_term(key, x, request):
    # the KNOWN_WRONG rows' drift is off, but each still matches the term
    params, (*_, milstein) = _moments_at(key, x, request)
    ratio = milstein / (0.25 * DSIGMA2[key[0]](params, x))
    if key in ORDER_HALF:
        assert abs(ratio - 1.0) > MILSTEIN_TOL
    else:
        assert abs(ratio - 1.0) <= MILSTEIN_TOL
