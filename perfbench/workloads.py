"""The four benchmark workloads: config generators, work counts and checks.

Each workload is one ``lsd`` experiment config.  The benchmark writes the
workload seed into the config text; the program receives only that config.
``path_steps`` counts the scheme path-steps a run performs (summed over
schemes, step sizes and the reference, M x steps each), so throughput can be
compared across workloads.  ``check(workload, csv_text, summary, sample)``
reads the CSV and JSON summary that one run wrote, plus the child's own
result record, and returns a list of problems; empty means correct.
"""

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    model: str
    params: Tuple[Tuple[str, float], ...]
    x0: float
    schemes: Tuple[str, ...]
    dts: Tuple[float, ...]
    M: int
    check: Callable[["Workload", str, dict, dict], List[str]]
    ref_step: float = 0.0
    m: float = 0.5
    T: float = 1.0

    def config_text(self, seed: int) -> str:
        lines = ["[experiment]", f"kind = {self.kind}", f"model = {self.model}",
                 f"name = {self.name}", "", "[params]"]
        lines += [f"{k} = {_fmt(v)}" for k, v in self.params]
        lines += ["", "[run]", f"x0 = {_fmt(self.x0)}", f"T = {_fmt(self.T)}",
                  f"schemes = {', '.join(self.schemes)}",
                  f"dt = {', '.join(_fmt(d) for d in self.dts)}"]
        if self.ref_step:
            lines.append(f"ref_step = {_fmt(self.ref_step)}")
        lines += [f"M = {self.M}", f"m = {_fmt(self.m)}", f"seed = {seed}"]
        return "\n".join(lines) + "\n"

    def path_steps(self) -> int:
        """Scheme path-steps one run performs: sum of M x steps."""
        per_scheme = sum(_steps(self.T, dt) for dt in self.dts)
        if self.kind == "convergence":
            per_scheme += _steps(self.T, self.ref_step)
        elif self.kind == "exact-cir":
            per_scheme *= 2  # the squared-OU reference runs on every dt too
        return self.M * per_scheme * len(self.schemes)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _steps(T: float, dt: float) -> int:
    return round(T / dt)


def _rows(csv_text: str) -> List[Dict[str, str]]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def _check_convergence(w: Workload, csv_text: str, summary: dict,
                       band: Tuple[float, float]) -> List[str]:
    # strong_error drops NaN levels from its fit, so read every level here.
    problems = []
    rows = _rows(csv_text)
    if len(rows) != len(w.schemes) * len(w.dts):
        problems.append(f"expected {len(w.schemes) * len(w.dts)} levels, "
                        f"got {len(rows)}")
    for row in rows:
        rms = float(row["rms"])
        if not (math.isfinite(rms) and rms > 0):
            problems.append(f"{row['scheme']} dt={row['dt']}: rms={rms}")
    for scheme in w.schemes:
        slope = summary.get("slope", {}).get(scheme)
        if slope is None or not band[0] <= slope <= band[1]:
            problems.append(f"{scheme}: slope {slope} outside {band}")
    return problems


def check_converge(w, csv_text, summary, sample):
    return _check_convergence(w, csv_text, summary, (0.8, 1.15))


def check_implicit(w, csv_text, summary, sample):
    problems = _check_convergence(w, csv_text, summary, (0.75, 1.2))
    # Only a traced run sees the solves; it counts residuals above 1e-12.
    bad = sample.get("counts", {}).get("rootfind.residual_failures", 0)
    if bad:
        problems.append(f"{bad} root-finder solves with residual above 1e-12")
    return problems


def check_scan(w, csv_text, summary, sample):
    problems = []
    rows = _rows(csv_text)
    seen = sorted((r["scheme"], float(r["dt"])) for r in rows)
    want = sorted((s, float(dt)) for s in w.schemes for dt in w.dts)
    if seen != want:
        problems.append(f"rows {seen} do not match scheme x dt {want}")
    for row in rows:
        for key in ("negative_states", "non_real_events", "clamp_events"):
            if not row[key].isdigit():
                problems.append(f"{row['scheme']} dt={row['dt']}: "
                                f"{key}={row[key]!r}")
    return problems


def check_exact_ou(w, csv_text, summary, sample):
    """``sample["value_scale"]`` is max |x| of the squared-OU sample path."""
    problems = []
    gap = summary.get("identity_max_abs_gap")
    limit = 4.0 * math.ulp(sample.get("value_scale", 0.0))
    if gap is None or not 0.0 <= gap <= limit:
        problems.append(f"identity gap {gap} above 4 ulp ({limit})")
    rows = _rows(csv_text)
    if len(rows) != len(w.schemes) * len(w.dts):
        problems.append(f"expected {len(w.schemes) * len(w.dts)} rows, "
                        f"got {len(rows)}")
    for row in rows:
        mean = float(row["mean_abs_terminal_diff"])
        if not math.isfinite(mean):
            problems.append(f"{row['scheme']} dt={row['dt']}: mean={mean}")
    return problems


_LADDER = tuple(2.0**-k for k in range(6, 12))

WORKLOADS = {w.name: w for w in (
    # The ROADMAP's acceptance convergence run.  The lattice, coarsening and
    # vectorised batch-256 LSD stepping do most of the work: bernoulli_power
    # is about 40% and lattice plus coarsening about 20% of self time.  The
    # root finder does nothing here.
    Workload(
        name="converge",
        why=("The acceptance convergence run: lattice, coarsening and batch-256 "
             "LSD stepping do the work (bernoulli_power is the largest share); "
             "the root finder does nothing."),
        kind="convergence", model="cir",
        params=(("k1", 2.0), ("k2", 2.0), ("k3", 1.0)), x0=4.0,
        schemes=("lsd1", "lsd3"), dts=_LADDER, ref_step=2.0**-14, M=1000,
        check=check_converge),
    # About 385k scalar invert_monotone solves at about 6.8 evaluations each
    # take most of the time; the lattice and coarsening are negligible.  The
    # root finder shows here and the path engine does not.
    Workload(
        name="implicit",
        why=("Self-referenced cev implicit convergence: scalar invert_monotone "
             "solves take most of the time and the lattice is negligible, so "
             "the root finder shows and the path engine does not."),
        kind="convergence", model="cev",
        params=(("k1", 1.0 / 16.0), ("k2", 1.0), ("k3", 0.4), ("q", 0.75)),
        x0=1.0 / 16.0, schemes=("implicit",),
        dts=tuple(2.0**-k for k in range(4, 8)), ref_step=2.0**-9, M=512,
        check=check_implicit),
    # The same schemes/experiments layers used differently from converge:
    # batch below 256, no coarsening, complex fallbacks firing, per-step
    # counters and x_of on every step, so per-call overhead dominates.  An
    # engine or telemetry change that helps converge but costs this shows.
    Workload(
        name="scan",
        why=("Domain scan of six cir schemes with Feller violated: batch below "
             "256, no coarsening, complex fallbacks and per-step counters, so "
             "per-call overhead dominates."),
        kind="scan", model="cir",
        params=(("k1", 1.0), ("k2", 2.0), ("k3", 20.0)), x0=4.0,
        schemes=("lsd1", "lsd2", "lsd3", "sd_theta", "alf", "ns"),
        dts=(1e-2, 1e-3, 1e-4), M=100, check=check_scan),
    # The only user of the two-driver lattice, cir_effective_increment and the
    # full-trajectory squared-OU recursion; without it those layers go
    # unmeasured and an engine rewrite could regress them unseen.
    Workload(
        name="exact_ou",
        why=("Squared-OU comparison: the only user of the two-driver lattice, "
             "cir_effective_increment and the full-trajectory squared-OU "
             "recursion."),
        kind="exact-cir", model="cir",
        params=(("k1", 2.0), ("k2", 2.0), ("k3", 2.0)), x0=4.0, m=0.5,
        schemes=("lsd1", "lsd3"), dts=tuple(2.0**-k for k in range(9, 12)),
        M=1024, check=check_exact_ou),
)}


PROBE_BATCHES = (256, 65536)


def probe_schemes() -> Dict[Tuple[str, str], Workload]:
    """Each (model, variant) a workload runs, with the first workload running it.

    ``exact-cir`` also runs the squared-OU reference recursion.
    """
    seen: Dict[Tuple[str, str], Workload] = {}
    for w in WORKLOADS.values():
        extra = ("exact_ou",) if w.kind == "exact-cir" else ()
        for variant in w.schemes + extra:
            seen.setdefault((w.model, variant), w)
    return seen


def scheme_metric(model: str, variant: str, batch: int) -> str:
    return f"schemes.{model}.{variant}.ns_per_path_step.b{batch}"
