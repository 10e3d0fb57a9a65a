"""A pathwise cross reference: each row's terminal error against a
reference row of its model on the same paths, the drift-implicit Euler row
``implicit`` for wf, ait, cev and heston32, and the theta = 1
semi-discrete row ``sd_theta`` for cir.

The drift-implicit rows are of proven strong order 1 for these models
(Neuenkirch & Szpruch 2014), and a reference shares no map with the rows
it checks, so unlike the self-referenced C2 slopes it sees a wrong drift:
a row whose limit differs from the SDE's plateaus at the gap.  The
reference has its own error, the floor, read as the reference at
FLOOR_STEP against itself at REF_STEP; only levels at least FLOOR_FACTOR
times above it enter a fit.  The rows of ``KNOWN_WRONG`` are strict
xfails of the order-1 gate.  Those of ``ORDER_HALF`` and the ``*_printed``
rows, whose coefficients are the paper's, are pinned below it as findings,
so a printed row cannot pass silently once its plain twin is mended.
heston32 runs at (2, 2, 1): at the conftest parameters sigma sigma' is
about 1e-5, and ``sd_exp``'s order-1/2 term stays below its drift's error
over the whole ladder.
"""

import functools

import pytest

from lsd.experiments import fit_order, strong_error
from lsd.models import AitParams, CevParams, CirParams, Heston32Params, WfParams
from lsd.schemes import SchemeId
from test_one_step import KNOWN_WRONG, ORDER_HALF

LADDER = [2.0**-k for k in range(3, 9)]
FLOOR_STEP, REF_STEP = 2.0**-11, 2.0**-12
FLOOR_FACTOR, MIN_LEVELS = 4.0, 4
ORDER_ONE_MIN, ORDER_HALF_MAX = 0.85, 0.75

# model: (parameters, x0, the reference row, the rows checked against it)
CASES = {
    "wf": (WfParams(1.0, 2.0, 0.20101), 0.5, "implicit",
           ("lsd1", "lsd2", "lsd3", "lsd4", "sd", "hyb", "sd_alt", "biss")),
    "ait": (AitParams(km1=2.0, k0=3.0, k1=4.0, k2=6.0, k3=1.0, r=2.0, rho=1.5),
            1.0, "implicit", ("lsd1", "lsd2")),
    "cir": (CirParams(2.0, 2.0, 1.0), 1.0, "sd_theta",
            ("lsd1", "lsd2", "lsd3", "lsd1_printed", "lsd2_printed",
             "lsd3_printed", "alf", "ns")),
    "cev": (CevParams(1.0 / 16.0, 1.0, 0.4, 0.75), 1.0 / 16.0, "implicit",
            ("lsd1", "lsd2", "lsd3", "lsd1_printed", "lsd2_printed",
             "lsd3_printed", "sd_theta")),
    "heston32": (Heston32Params(2.0, 2.0, 1.0), 1.0, "implicit",
                 ("lsd1", "lsd2", "lsd1_printed", "lsd2_printed", "sd_exp")),
}


@functools.lru_cache(maxsize=None)
def _cross(model):
    """The floor and, per row, the ladder levels at least FLOOR_FACTOR times
    above it with their errors, from one strong_error run: M = 1000, T = 1,
    seed 1."""
    params, x0, reference, rows = CASES[model]
    ref = SchemeId(model, reference)
    reports = strong_error([SchemeId(model, v) for v in rows] + [ref], ref,
                           params, x0, 1.0, LADDER + [FLOOR_STEP], REF_STEP,
                           M=1000, seed=1)
    floor = reports[-1].rms_errors[-1]    # the finest level is FLOOR_STEP
    levels = {}
    for variant, report in zip(rows, reports):
        dts, errors = report.step_sizes[:-1], report.rms_errors[:-1]
        above = errors >= FLOOR_FACTOR * floor
        levels[variant] = dts[above], errors[above]
    return floor, levels


def _pinned(key):
    return key in ORDER_HALF or key[1].endswith("_printed")


def _rows(pinned):
    for model, (*_, rows) in CASES.items():
        for variant in rows:
            key = (model, variant)
            if _pinned(key) != pinned:
                continue
            marks = ()
            if key in KNOWN_WRONG:
                marks = pytest.mark.xfail(strict=True, raises=AssertionError,
                                          reason=KNOWN_WRONG[key])
            yield pytest.param(key, marks=marks, id=f"{model}:{variant}")


def _slope(model, variant):
    floor, levels = _cross(model)
    dts, errors = levels[variant]
    assert floor > 0.0
    assert dts.size >= MIN_LEVELS, f"{dts.size} levels above {FLOOR_FACTOR} x {floor}"
    return fit_order(dts, errors)[0]


@pytest.mark.parametrize("key", list(_rows(pinned=False)))
def test_row_converges_at_order_one_against_the_implicit_row(key):
    assert _slope(*key) >= ORDER_ONE_MIN


@pytest.mark.parametrize("key", list(_rows(pinned=True)))
def test_order_half_row_stays_below_order_one(key):
    # a finding, as in the one-step Milstein check: wf biss reads 0.67,
    # and each printed row plateaus as its plain twin does today
    assert _slope(*key) <= ORDER_HALF_MAX
