"""Command line runner: `lsd <config> [--seed N] [--out DIR]`.

Each run writes ``<name>.csv`` (data, 17-significant-digit reals so every
float round-trips) and ``<name>.json`` (summary with fitted slopes, counters,
wall time; a non-finite real is null).  Outputs are byte-stable for a fixed
(config, seed).  Paths run serially in one process; a worker-count option is
still accepted for old command lines and has no effect.  On any error the
partially written files are removed and the exit status is nonzero.

Each kind's runner only formats what :mod:`lsd.experiments` computes;
``simulate`` and ``compare`` both report the paths of
:func:`~lsd.experiments.simulate_paths`, one per dt.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import List, Tuple

import numpy as np

from .config import ExperimentConfig, parse_config
from .errors import ConfigurationError, LsdError
from .experiments import (block_plan, domain_violation_scan,
                          exact_cir_error_decay, exact_cir_experiment,
                          simulate_paths, strong_error)
from .models import PARAMS_BY_MODEL, domain_report
from .schemes import SchemeId


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _finite_or_null(value):
    """``value`` with each non-finite float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _build_params(cfg: ExperimentConfig):
    try:
        return PARAMS_BY_MODEL[cfg.model](**cfg.params)
    except ValueError as exc:
        raise LsdError(f"invalid parameters for {cfg.model!r}: {exc}") from exc


def _scheme_ids(cfg: ExperimentConfig) -> List[SchemeId]:
    return [SchemeId(cfg.model, s) for s in cfg.schemes]


def _run_convergence(cfg, params):
    ids = _scheme_ids(cfg)
    reference = SchemeId(cfg.model, cfg.reference) if cfg.reference else None
    reports = strong_error(
        ids, reference, params, cfg.x0, cfg.T, cfg.dts, cfg.ref_step, cfg.M,
        cfg.seed)
    rows = [("scheme", "dt", "rms", "stderr")]
    slopes, intercepts, dropped = {}, {}, {}
    for scheme, report in zip(ids, reports):
        for dt, rms, se in zip(report.step_sizes, report.rms_errors,
                               report.stderrs):
            rows.append((scheme.variant, _fmt(dt), _fmt(rms), _fmt(se)))
        slopes[scheme.variant] = report.slope
        intercepts[scheme.variant] = report.intercept
        if report.dropped_from_fit:
            dropped[scheme.variant] = report.dropped_from_fit
    summary = {"slope": slopes, "intercept": intercepts,
               "ref_step": cfg.ref_step, "M": cfg.M,
               "block_plan": block_plan(cfg.T, cfg.dts, cfg.M,
                                        ref_step=cfg.ref_step)}
    if dropped:
        summary["dropped_from_fit"] = dropped
    return rows, summary


def _paths(cfg, params):
    return simulate_paths(_scheme_ids(cfg), params, cfg.x0, cfg.T, cfg.dts,
                          cfg.seed, m_split=cfg.m)


def _run_simulate(cfg, params):
    rows = [("dt", "t") + tuple(cfg.schemes)]
    for dt, paths in _paths(cfg, params).items():
        for j, t in enumerate(paths[0].times):
            rows.append((_fmt(dt), _fmt(t)) + tuple(_fmt(p.values[j]) for p in paths))
    counters = {s: {"non_real": c.non_real_events, "clamped": c.clamp_events,
                    "negative": c.negative_states}
                for s, c in zip(cfg.schemes, (p.counters for p in paths))}
    return rows, {"counters_last_dt": counters}


def _run_compare(cfg, params):
    if len(cfg.schemes) < 2:
        raise LsdError("compare needs at least two schemes")
    results = _paths(cfg, params)
    base, *others = cfg.schemes
    rows = [("scheme_a", "scheme_b", "dt", "t", "diff")]
    max_abs = {}
    for b, other in enumerate(others, start=1):
        diffs = []
        for dt, paths in results.items():
            diff = paths[0].values - paths[b].values
            rows.extend((base, other, _fmt(dt), _fmt(t), _fmt(d))
                        for t, d in zip(paths[0].times, diff))
            diffs.append(diff)
        # np.max, unlike the builtin max, keeps a NaN
        max_abs[other] = float(np.max(np.abs(np.concatenate(diffs))))
    return rows, {"baseline": base, "max_abs_diff": max_abs}


def _run_exact_cir(cfg, params):
    # both memory checks come before any step: the decay's in its plan, and
    # the sample path's as the sample runs first; the two draw from
    # generators of their own, so the order does not change the numbers
    ids = _scheme_ids(cfg)
    plan = block_plan(cfg.T, cfg.dts, cfg.M, drivers=2)
    sample = exact_cir_experiment(params, cfg.x0, cfg.m, max(cfg.dts), cfg.T,
                                  cfg.seed, ids)
    decays = exact_cir_error_decay(
        params, cfg.x0, cfg.m, cfg.dts, cfg.T, cfg.M, cfg.seed, ids)
    rows = [("scheme", "dt", "mean_abs_terminal_diff")]
    means = {}
    for scheme, decay in zip(ids, decays):
        means[scheme.variant] = {str(dt): v for dt, v in decay.items()}
        for dt in sorted(decay, reverse=True):
            rows.append((scheme.variant, _fmt(dt), _fmt(decay[dt])))
    identity_gap = float(np.max(np.abs(sample.x1**2 + sample.x2**2 - sample.exact)))
    return rows, {"mean_abs_terminal_diff": means,
                  "identity_max_abs_gap": identity_gap,
                  "M": cfg.M, "m": cfg.m, "block_plan": plan}


def _run_scan(cfg, params):
    ids = _scheme_ids(cfg)
    scan = domain_violation_scan(ids, params, cfg.dts, cfg.T, cfg.M, cfg.seed,
                                 x0=cfg.x0)
    rows = [("scheme", "dt", "negative_states", "non_real_events",
             "clamp_events")]
    summary = {}
    for scheme, per_dt in zip(ids, scan):
        summary[scheme.variant] = {}
        for dt in cfg.dts:
            c = per_dt[dt]
            rows.append((scheme.variant, _fmt(dt), str(c.negative_states),
                         str(c.non_real_events), str(c.clamp_events)))
            summary[scheme.variant][str(dt)] = asdict(c)
    plans = {str(dt): block_plan(cfg.T, [dt], cfg.M) for dt in cfg.dts}
    return rows, {"counters": summary, "M": cfg.M, "block_plan": plans}


_RUNNERS = {
    "convergence": _run_convergence,
    "simulate": _run_simulate,
    "compare": _run_compare,
    "exact-cir": _run_exact_cir,
    "scan": _run_scan,
}


def run(cfg: ExperimentConfig, out_dir: Path, name: str) -> Tuple[Path, Path]:
    """Execute one experiment; returns the written (csv, json) paths."""
    params = _build_params(cfg)
    started = time.perf_counter()
    rows, extra = _RUNNERS[cfg.kind](cfg, params)
    elapsed = time.perf_counter() - started
    summary = {
        "kind": cfg.kind,
        "model": cfg.model,
        "params": {k: float(v) for k, v in cfg.params.items()},
        "x0": cfg.x0,
        "T": cfg.T,
        "schemes": cfg.schemes,
        "dt": cfg.dts,
        "seed": cfg.seed,
        "domain_report": domain_report(params),
        "wall_time_s": elapsed,
    }
    summary.update(extra)

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    json_path = out_dir / f"{name}.json"
    tmp_csv = out_dir / f".{name}.csv.tmp"
    tmp_json = out_dir / f".{name}.json.tmp"
    try:
        with open(tmp_csv, "w", newline="") as fh:
            for row in rows:
                fh.write(",".join(str(c) for c in row) + "\n")
        with open(tmp_json, "w") as fh:
            json.dump(_finite_or_null(summary), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
        os.replace(tmp_csv, csv_path)
        os.replace(tmp_json, json_path)
    except BaseException:
        for tmp in (tmp_csv, tmp_json):
            tmp.unlink(missing_ok=True)
        raise
    return csv_path, json_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lsd",
        description="Run a configured scheme experiment and write CSV/JSON results.")
    parser.add_argument("config", help="path to the experiment config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for old command lines; has no effect")
    args = parser.parse_args(argv)

    config_path = Path(args.config)
    try:
        cfg = parse_config(config_path.read_text(encoding="utf-8"))
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
            cfg.seed = args.seed
        name = cfg.name or config_path.stem
        csv_path, json_path = run(cfg, Path(args.out), name)
    except (LsdError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(csv_path)
    print(json_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
