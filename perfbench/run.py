"""Benchmark of the ``lsd`` CLI on one workload; see README.md beside it.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout.  Every sample is a fresh child
process (``child.py``) that imports ``lsd`` from ``src/`` and calls
``lsd.cli.main`` once with ``--threads 1``.  Samples repeat until
``--seconds`` would be exceeded.  With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of traced samples, the kernel probe and the tracing
overhead.  Progress goes to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Optional

import numpy as np

from metrics import END_TO_END, PER_LAYER, UNITS, layer_metrics
from speed import normalise
from tracing import layer_totals
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_SAMPLES = 8
# Every run ends within this many seconds, whatever a child does.
HARD_LIMIT_S = 170.0


class Run:
    """Samples of one benchmark run, their failures and the CSV they agree on."""

    def __init__(self, workload, seed: int, seconds: float, out_root: Path):
        self.workload = workload
        self.seed = seed
        self.out_root = out_root
        self.config = out_root / f"{workload.name}.cfg"
        self.config.write_text(workload.config_text(seed), encoding="utf-8")
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.attempted = self.failed = 0
        self.csv_digest = None
        self._count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def spawn(self, mode: str, arg: Optional[Path] = None) -> Optional[dict]:
        """Run one child; returns its result record, or None if it failed."""
        self._count += 1
        out = self.out_root / f"{self._count:03d}-{mode}"
        out.mkdir()
        self.attempted += 1
        timeout = max(1.0, self.started + HARD_LIMIT_S - time.monotonic())
        argv = [sys.executable, str(CHILD), mode, str(arg or self.config), str(out),
                str(time.monotonic_ns())]
        try:
            proc = subprocess.run(argv, env=self.env, cwd=out, timeout=timeout,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            return self._fail(mode, f"timed out after {timeout:.0f} s")
        if proc.returncode != 0:
            return self._fail(mode, f"exit {proc.returncode}: {proc.stderr[-2000:]}")
        try:
            result = json.loads((out / "result.json").read_text())
            problems = self._check(result, out) if mode in ("run", "trace") else []
            if mode in ("setup", "run"):
                result["setup_s"] = normalise(result["setup_ns"], result["setup_ticks"])
            if mode == "run":
                result["wall_s"] = normalise(result["wall_ns"], result["wall_ticks"])
        except (OSError, ValueError, KeyError) as exc:
            return self._fail(mode, f"unreadable output: {exc!r}")
        if problems:
            return self._fail(mode, "; ".join(problems))
        result["out"] = out
        return result

    def _check(self, result: dict, out: Path):
        if result["exit_code"] != 0:
            return [f"lsd exited with {result['exit_code']}"]
        name = self.workload.name
        csv_bytes = (out / f"{name}.csv").read_bytes()
        summary = json.loads((out / f"{name}.json").read_text())
        problems = self.workload.check(self.workload, csv_bytes.decode(),
                                       summary, result)
        digest = hashlib.sha256(csv_bytes).hexdigest()
        if self.csv_digest is None:
            self.csv_digest = digest
        elif digest != self.csv_digest:
            problems.append("CSV differs from the first sample of this run")
        result["output_bytes"] = (len(csv_bytes)
                                  + (out / f"{name}.json").stat().st_size)
        return problems

    def _fail(self, mode: str, why: str):
        self.failed += 1
        log(f"{self.workload.name} {mode} sample failed: {why}")
        return None

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _durations_fit(run: Run, durations) -> bool:
    """Whether one more sample of the median duration ends before the deadline."""
    return bool(durations) and run.time_left() > median(durations)


def measure(run: Run) -> dict:
    """End-to-end metrics of untraced samples."""
    run.spawn("setup")  # fills bytecode caches; not counted below
    setups = [run.spawn("setup") for _ in range(SETUP_SAMPLES)]
    setup_s = [s["setup_s"] for s in setups if s is not None]
    walls, raw, rss, durations = [], [], [], []
    while True:
        started = time.monotonic()
        sample = run.spawn("run")
        durations.append(time.monotonic() - started)
        if sample is not None:
            setup_s.append(sample["setup_s"])
            walls.append(sample["wall_s"])
            raw.append(sample["wall_ns"] / 1e9)
            rss.append(sample["maxrss_kb"] / 1024.0)
        if not _durations_fit(run, durations):
            break
    log(f"{run.workload.name}: wall_s over {len(walls)} samples "
        f"{[round(w, 3) for w in walls]} (raw {[round(w, 3) for w in raw]}); "
        f"setup_s over {len(setup_s)} samples")
    if not walls:
        return {}
    wall = median(walls)
    return {"wall_s": wall,
            "path_steps_per_s": run.workload.path_steps() / wall,
            "setup_s": median(setup_s),
            "peak_rss_mb": median(rss)}


def measure_layers(run: Run) -> dict:
    """Per-layer metrics: the kernel probe, then untraced/traced pairs."""
    seed_file = run.out_root / "probe.seed"
    seed_file.write_text(str(run.seed))
    probe = run.spawn("probe", seed_file) or {}
    if probe.get("failures"):
        run.failed += 1
        log(f"probe: {probe['failures']} root-finder solves missed the residual")
    plain, traced, per_sample, durations = [], [], [], []
    while True:
        started = time.monotonic()
        untraced = run.spawn("run")
        sample = run.spawn("trace")
        durations.append(time.monotonic() - started)
        if untraced is not None:
            plain.append((untraced["wall_ns"] - sum(untraced["wall_ticks"])) / 1e9)
        if sample is not None:
            with np.load(sample["out"] / "spans.npz") as spans:
                totals = layer_totals(spans)
            traced.append(sample["wall_ns"] / 1e9)
            per_sample.append(layer_metrics(totals, sample.get("counts", {}),
                                            sample["wall_ns"],
                                            sample["output_bytes"]))
        if not _durations_fit(run, durations):
            break
    log(f"{run.workload.name}: {len(traced)} traced and {len(plain)} untraced samples")
    if not per_sample or not plain or not probe:
        return {}
    out = {name: median(s[name] for s in per_sample) for name in per_sample[0]}
    out.update((k, v) for k, v in probe.items() if k not in ("failures", "out"))
    out["trace.overhead_s"] = median(traced) - median(plain)
    return out


def main(argv=None) -> int:
    # Exit through ``finally`` on SIGTERM: subprocess.run then kills and reaps
    # the running child, and the output directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "lsd" / "__init__.py").is_file():
        log(f"no lsd sources under {ROOT / 'src'}; run from a source checkout")
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    out_root = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out_root.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, out_root)
        values = measure_layers(run) if args.trace else measure(run)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:
            pass
    names = [row[0] for row in (PER_LAYER if args.trace else END_TO_END)]
    if any(name not in values for name in names):
        log("no sample succeeded; metrics are missing")
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": UNITS[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
