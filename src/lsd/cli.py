"""Command line runner: `lsd <config> [--seed N] [--out DIR]`.

Each run writes ``<name>.csv`` (data, 17-significant-digit reals so every
float round-trips) and ``<name>.json`` (summary with fitted slopes, counters,
and wall time).  Outputs are byte-stable for a fixed (config, seed)
combination.  Paths run serially in one process; a worker-count option is
still accepted for old command lines and has no effect.  On any error the
partially written files are removed and the exit status is nonzero.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Tuple

from .config import ExperimentConfig, parse_config
from .errors import LsdError
from .experiments import (_steps_for, difference_trajectories,
                          domain_violation_scan, exact_cir_error_decay,
                          exact_cir_experiment, simulate_path, strong_error)
from .models import PARAMS_BY_MODEL, domain_report
from .schemes import SchemeId, make_stepper
from .wiener import generate_lattice, path_seed


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _build_params(cfg: ExperimentConfig):
    try:
        return PARAMS_BY_MODEL[cfg.model](**cfg.params)
    except ValueError as exc:
        raise LsdError(f"invalid parameters for {cfg.model!r}: {exc}") from exc


def _scheme_ids(cfg: ExperimentConfig) -> List[SchemeId]:
    return [SchemeId(cfg.model, s) for s in cfg.schemes]


def _run_convergence(cfg, params):
    rows = [("scheme", "dt", "rms", "stderr")]
    slopes, intercepts = {}, {}
    for scheme in _scheme_ids(cfg):
        reference = (SchemeId(cfg.model, cfg.reference)
                     if cfg.reference else scheme)
        report = strong_error(
            scheme, reference, params, cfg.x0, cfg.T, cfg.dts,
            cfg.resolved_ref_step(), cfg.resolved_m_samples(), cfg.seed,
            theta=cfg.theta)
        for dt, rms, se in zip(report.step_sizes, report.rms_errors,
                               report.stderrs):
            rows.append((scheme.variant, _fmt(dt), _fmt(rms), _fmt(se)))
        slopes[scheme.variant] = report.slope
        intercepts[scheme.variant] = report.intercept
    return rows, {"slope": slopes, "intercept": intercepts,
                  "ref_step": cfg.resolved_ref_step(),
                  "M": cfg.resolved_m_samples()}


def _run_simulate(cfg, params):
    ids = _scheme_ids(cfg)
    drivers = [make_stepper(s, params, m_split=cfg.m).drivers for s in ids]
    rows = [("dt", "t") + tuple(s.variant for s in ids)]
    for k, dt in enumerate(cfg.dts):
        n = _steps_for(cfg.T, dt)
        lattice = generate_lattice(path_seed(cfg.seed, k), cfg.T, n, 0,
                                   drivers=max(drivers))
        paths = []
        for s, d in zip(ids, drivers):
            driver = lattice.increments if d == max(drivers) \
                else lattice.increments[0]
            paths.append(simulate_path(s, params, cfg.x0, cfg.T, n, driver,
                                       theta=cfg.theta, m_split=cfg.m))
        times = paths[0].times
        for j, t in enumerate(times):
            rows.append((_fmt(dt), _fmt(t)) + tuple(_fmt(p.values[j]) for p in paths))
    counters = {s.variant: {"non_real": p.non_real_count, "clamped": p.clamp_count,
                            "negative": p.negative_count}
                for s, p in zip(ids, paths)}
    return rows, {"counters_last_dt": counters}


def _run_compare(cfg, params):
    ids = _scheme_ids(cfg)
    if len(ids) < 2:
        raise LsdError("compare needs at least two schemes")
    rows = [("scheme_a", "scheme_b", "dt", "t", "diff")]
    max_abs = {}
    for other in ids[1:]:
        series = difference_trajectories(
            ids[0], other, params, cfg.x0, cfg.T, cfg.dts, cfg.seed,
            theta=cfg.theta)
        peak = 0.0
        for s in series:
            for t, d in zip(s.times, s.diffs):
                rows.append((ids[0].variant, other.variant, _fmt(s.dt),
                             _fmt(t), _fmt(d)))
            peak = max(peak, float(max(abs(s.diffs))))
        max_abs[other.variant] = peak
    return rows, {"baseline": ids[0].variant, "max_abs_diff": max_abs}


def _run_exact_cir(cfg, params):
    ids = _scheme_ids(cfg)
    rows = [("scheme", "dt", "mean_abs_terminal_diff")]
    means = {}
    for scheme in ids:
        decay = exact_cir_error_decay(
            params, cfg.x0, cfg.m, cfg.dts, cfg.T, cfg.resolved_m_samples(),
            cfg.seed, scheme, theta=cfg.theta)
        means[scheme.variant] = {str(dt): v for dt, v in decay.items()}
        for dt in sorted(decay, reverse=True):
            rows.append((scheme.variant, _fmt(dt), _fmt(decay[dt])))
    sample = exact_cir_experiment(params, cfg.x0, cfg.m, max(cfg.dts), cfg.T,
                                  cfg.seed, ids, theta=cfg.theta)
    identity_gap = float(max(abs(sample.x1**2 + sample.x2**2 - sample.exact)))
    return rows, {"mean_abs_terminal_diff": means,
                  "identity_max_abs_gap": identity_gap,
                  "M": cfg.resolved_m_samples(), "m": cfg.m}


def _run_scan(cfg, params):
    ids = _scheme_ids(cfg)
    scan = domain_violation_scan(ids, params, cfg.dts, cfg.T,
                                 cfg.resolved_m_samples(), cfg.seed, x0=cfg.x0,
                                 theta=cfg.theta)
    rows = [("scheme", "dt", "negative_states", "non_real_events",
             "clamp_events")]
    summary = {}
    for scheme in ids:
        per_dt = scan[str(scheme)]
        summary[scheme.variant] = {}
        for dt in cfg.dts:
            c = per_dt[dt]
            rows.append((scheme.variant, _fmt(dt), str(c.negative_states),
                         str(c.non_real_events), str(c.clamp_events)))
            summary[scheme.variant][str(dt)] = c.as_dict()
    return rows, {"counters": summary, "M": cfg.resolved_m_samples()}


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
        "theta": cfg.theta,
        "domain_report": dict(domain_report(params).checks),
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
            json.dump(summary, fh, indent=2, sort_keys=True)
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
