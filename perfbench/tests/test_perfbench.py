"""Tests of the benchmark's own code: span arithmetic, names and BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from metrics import END_TO_END, PER_LAYER, layer_metrics
from speed import REFERENCE_NS, SpeedProbe, normalise
from tracing import Tracer, layer_totals, self_times
from workloads import WORKLOADS

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spans(rows):
    """rows: (name, parent, start, end, size) -> the arrays Tracer.save writes."""
    names = sorted({r[0] for r in rows})
    return {"names": np.array(names),
            "name_id": np.array([names.index(r[0]) for r in rows]),
            "parent": np.array([r[1] for r in rows]),
            "start": np.array([r[2] for r in rows]),
            "end": np.array([r[3] for r in rows]),
            "size": np.array([r[4] for r in rows])}


def test_self_time_subtracts_direct_children_only():
    # root [0,100] > a [10,40] > leaf [15,25]; root > b [50,90]
    spans = _spans([("root", -1, 0, 100, 0), ("a", 0, 10, 40, 3),
                    ("leaf", 1, 15, 25, 0), ("b", 0, 50, 90, 0)])
    own = self_times(spans["parent"], spans["start"], spans["end"])
    assert own.tolist() == [30.0, 20.0, 10.0, 40.0]
    assert own.sum() == 100.0  # self times partition the root's duration


def test_layer_totals_sum_over_spans_of_one_name():
    spans = _spans([("root", -1, 0, 100, 0), ("step", 0, 0, 30, 4),
                    ("kernel", 1, 5, 25, 7), ("step", 0, 40, 60, 4)])
    totals = layer_totals(spans)
    assert totals["step"] == {"calls": 2, "self_ns": 30.0, "total_ns": 50.0,
                              "size": 8.0}
    assert totals["kernel"]["self_ns"] == 20.0
    assert totals["root"]["self_ns"] == 50.0


def test_tracer_records_parents_and_sizes(tmp_path):
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda n: list(range(n)), lambda a, out: len(out))
    outer = tracer.wrap("outer", lambda: [inner(3), inner(5)])
    outer()
    assert tracer.parent == [-1, 0, 0]
    assert tracer.size == [0, 3, 5]
    tracer.save(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as spans:
        totals = layer_totals(spans)
    assert totals["inner"]["calls"] == 2
    outer_total = totals["outer"]["total_ns"]
    assert totals["outer"]["self_ns"] + totals["inner"]["total_ns"] == outer_total


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.parent == [-1, -1]
    assert tracer.end[0] >= tracer.start[0]


def test_normalise_removes_ticks_and_scales_to_the_reference_speed():
    # A 1 s interval at half the reference speed, holding three probe ticks:
    # the work without the ticks would take half as long at the reference.
    slow = [2 * REFERENCE_NS] * 3
    assert normalise(10**9, slow) == pytest.approx((1.0 - 6 * REFERENCE_NS / 1e9) / 2)
    assert normalise(10**9, [REFERENCE_NS]) == pytest.approx(1.0 - REFERENCE_NS / 1e9)
    with pytest.raises(ValueError):
        normalise(10**9, [])


def test_speed_probe_ticks_while_work_runs():
    probe = SpeedProbe()
    probe.start()
    try:
        started = time.monotonic_ns()
        while time.monotonic_ns() - started < 100_000_000:
            sum(range(1000))
    finally:
        probe.stop()
    ticks = probe.between(started, time.monotonic_ns())
    assert len(ticks) >= 3 and all(t > 0 for t in ticks)


def test_layer_metrics_cover_every_per_layer_name_but_the_probe():
    values = layer_metrics({}, {}, wall_ns=1e9, output_bytes=10)
    probe_or_pair = {n for n, *_ in PER_LAYER if ".probe." in n or
                     re.search(r"\.b\d+$", n) or n == "trace.overhead_s"}
    assert set(values) == {n for n, *_ in PER_LAYER} - probe_or_pair


def test_metric_names_and_units_are_well_formed():
    names = [row[0] for row in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for row in END_TO_END + PER_LAYER:
        assert UNIT.fullmatch(row[1]), row
        assert row[2] in ("lower", "higher")
    assert len(PER_LAYER) <= 128


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == WORKLOADS[w["name"]].why
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in END_TO_END]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b, _ in PER_LAYER]
    assert len(BENCHMARK.read_bytes()) <= 64 * 1024


def test_benchmark_runs_fit_the_time_budget():
    spec = json.loads(BENCHMARK.read_text())
    # A full evaluation makes 4 + 22 runs per workload within 3420 s.  A run
    # stops starting samples at run_seconds; allow 4 s for the last sample's
    # overrun and for process start and clean-up.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 4) <= 3420


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_config_carries_the_seed_and_parses(name):
    from lsd.config import parse_config

    w = WORKLOADS[name]
    cfg = parse_config(w.config_text(seed=7))
    assert cfg.seed == 7 and cfg.kind == w.kind and cfg.M == w.M
    assert w.path_steps() > 0


def test_path_steps_of_the_convergence_run():
    # 2 schemes x M=1000 x (2^14 reference + 2^6 + ... + 2^11 ladder steps)
    assert WORKLOADS["converge"].path_steps() == 2 * 1000 * (2**14 + 4032)


def test_convergence_check_reads_every_level():
    w = WORKLOADS["converge"]
    rows = ["scheme,dt,rms,stderr"]
    rows += [f"{s},{dt!r},0.01,0.001" for s in w.schemes for dt in w.dts]
    good = "\n".join(rows) + "\n"
    summary = {"slope": {s: 1.0 for s in w.schemes}}
    assert w.check(w, good, summary, {}) == []
    assert w.check(w, good.replace("0.01,", "nan,", 1), summary, {})
    assert w.check(w, good, {"slope": {"lsd1": 1.0, "lsd3": 0.5}}, {})


def test_scan_check_wants_one_counter_row_per_scheme_and_dt():
    w = WORKLOADS["scan"]
    rows = ["scheme,dt,negative_states,non_real_events,clamp_events"]
    rows += [f"{s},{dt!r},0,3,0" for s in w.schemes for dt in w.dts]
    assert w.check(w, "\n".join(rows) + "\n", {}, {}) == []
    assert w.check(w, "\n".join(rows[:-1]) + "\n", {}, {})
    assert w.check(w, "\n".join(rows).replace(",3,", ",-3,", 1) + "\n", {}, {})


def test_exact_ou_check_bounds_the_identity_gap_in_ulps():
    w = WORKLOADS["exact_ou"]
    rows = ["scheme,dt,mean_abs_terminal_diff"]
    rows += [f"{s},{dt!r},0.5" for s in w.schemes for dt in w.dts]
    text = "\n".join(rows) + "\n"
    sample = {"value_scale": 8.0}
    assert w.check(w, text, {"identity_max_abs_gap": 0.0}, sample) == []
    gap = 5 * math.ulp(8.0)
    assert w.check(w, text, {"identity_max_abs_gap": gap}, sample)


def test_implicit_check_counts_residual_failures():
    w = WORKLOADS["implicit"]
    rows = ["scheme,dt,rms,stderr"]
    rows += [f"implicit,{dt!r},0.01,0.001" for dt in w.dts]
    text = "\n".join(rows) + "\n"
    summary = {"slope": {"implicit": 1.0}}
    assert w.check(w, text, summary, {"counts": {}}) == []
    bad = {"counts": {"rootfind.residual_failures": 2}}
    assert w.check(w, text, summary, bad)


_TINY = """
[experiment]
kind = convergence
model = {model}
name = tiny

[params]
{params}

[run]
x0 = {x0}
T = 1
schemes = {scheme}
dt = 0.125, 0.0625
ref_step = 0.0078125
M = 8
seed = 3
"""


@pytest.mark.parametrize("model,params,x0,scheme,layer", [
    ("cir", "k1 = 2\nk2 = 2\nk3 = 1", 4, "lsd1", "closedform.bernoulli_power"),
    ("cev", "k1 = 0.0625\nk2 = 1\nk3 = 0.4\nq = 0.75", 0.0625, "implicit",
     "rootfind.invert"),
])
def test_tracing_leaves_the_csv_unchanged(tmp_path, model, params, x0, scheme,
                                          layer):
    import lsd.cli
    import lsd.experiments
    import tracing

    config = tmp_path / "tiny.cfg"
    config.write_text(_TINY.format(model=model, params=params, x0=x0,
                                   scheme=scheme))
    argv = [str(config), "--threads", "1", "--out"]
    assert lsd.cli.main(argv + [str(tmp_path / "plain")]) == 0
    before = lsd.experiments.make_stepper
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert lsd.cli.main(argv + [str(tmp_path / "traced")]) == 0
    finally:
        uninstall()
    assert lsd.experiments.make_stepper is before
    assert not hasattr(lsd.cli, "open")
    plain = (tmp_path / "plain" / "tiny.csv").read_bytes()
    assert (tmp_path / "traced" / "tiny.csv").read_bytes() == plain
    names = set(tracer.names)
    assert {"experiments.engine", "wiener.lattice", "wiener.coarsen",
            "schemes.step", "schemes.x_of", "cli.write", layer} <= names
    assert tracer.counts.get("rootfind.residual_failures", 0) == 0
    assert tracer._open == [-1]
