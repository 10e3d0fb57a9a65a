"""Every metric the benchmark reports, and how per-layer ones are derived.

``END_TO_END`` rows are (name, unit, better, bound); ``PER_LAYER`` rows are
(name, unit, better, what it should move).  ``BENCHMARK.json`` lists the same
names; a test keeps the two in step.
"""

from typing import Dict

from workloads import PROBE_BATCHES, probe_schemes, scheme_metric

END_TO_END = (
    ("wall_s", "s", "lower", 0.2),
    ("path_steps_per_s", "1/s", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_WIENER = "wall_s and peak_rss_mb on converge and exact_ou; no change on implicit"
_BERNOULLI = "wall_s on converge (largest share), less on scan"
_SCHEMES = "wall_s on scan (per-call overhead) and converge"
_ROOTFIND = "wall_s on implicit; solves must read 0 on converge and scan"
_ENGINE = "wall_s on scan and converge; peak_rss_mb on converge"
_CLI = "wall_s on every workload (expected near 0)"
_TRACE = "none: the cost of tracing itself"

PER_LAYER = (
    ("wiener.lattice.self_s", "s", "lower", _WIENER),
    ("wiener.lattice.ns_per_increment", "ns", "lower", _WIENER),
    ("wiener.lattice.bytes", "bytes", "lower", _WIENER),
    ("wiener.coarsen.self_s", "s", "lower", _WIENER),
    ("wiener.coarsen.bytes", "bytes", "lower", _WIENER),
    ("wiener.path_seed.self_s", "s", "lower", _WIENER),
    ("wiener.effective_increment.self_s", "s", "lower",
     "wall_s on exact_ou; no change elsewhere"),
    ("wiener.probe.lattice_ns_per_increment", "ns", "lower", _WIENER),
    ("wiener.probe.coarsen_ns_per_increment", "ns", "lower", _WIENER),
    ("closedform.bernoulli_power.self_s", "s", "lower", _BERNOULLI),
    ("closedform.bernoulli_power.ns_per_element", "ns", "lower", _BERNOULLI),
    ("schemes.step.self_s", "s", "lower", _SCHEMES),
    ("schemes.step.calls", "count", "lower", _SCHEMES),
    ("schemes.step.ns_per_path_step", "ns", "lower", _SCHEMES),
    ("schemes.x_of.self_s", "s", "lower", _SCHEMES),
) + tuple(
    (scheme_metric(model, variant, batch), "ns", "lower", _SCHEMES)
    for model, variant in probe_schemes() for batch in PROBE_BATCHES
) + (
    ("rootfind.solves", "count", "lower", _ROOTFIND),
    ("rootfind.failures", "count", "lower", _ROOTFIND),
    ("rootfind.self_s", "s", "lower", _ROOTFIND),
    ("rootfind.us_per_solve", "us", "lower", _ROOTFIND),
    ("rootfind.evals_per_solve", "count", "lower", _ROOTFIND),
    ("rootfind.probe.us_per_solve", "us", "lower", _ROOTFIND),
    ("rootfind.probe.evals_per_solve", "count", "lower", _ROOTFIND),
    ("experiments.engine.self_s", "s", "lower", _ENGINE),
    ("cli.write.self_s", "s", "lower", _CLI),
    ("cli.output_bytes", "bytes", "lower", _CLI),
    ("trace.wall_s", "s", "lower", _TRACE),
    ("trace.overhead_s", "s", "lower", _TRACE),
)

UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work in this workload."""
    return num / den if den else 0.0


def layer_metrics(totals: Dict[str, Dict[str, float]], counts: Dict[str, int],
                  wall_ns: float, output_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run from ``tracing.layer_totals``."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0.0)

    lattice, coarsen = "wiener.lattice", "wiener.coarsen"
    bern, step, solve = "closedform.bernoulli_power", "schemes.step", "rootfind.invert"
    return {
        "wiener.lattice.self_s": get(lattice, "self_ns") / 1e9,
        "wiener.lattice.ns_per_increment": _ratio(get(lattice, "self_ns"),
                                                  get(lattice, "size")),
        "wiener.lattice.bytes": 8 * get(lattice, "size"),
        "wiener.coarsen.self_s": get(coarsen, "self_ns") / 1e9,
        "wiener.coarsen.bytes": get(coarsen, "size"),
        "wiener.path_seed.self_s": get("wiener.path_seed", "self_ns") / 1e9,
        "wiener.effective_increment.self_s":
            get("wiener.effective_increment", "self_ns") / 1e9,
        "closedform.bernoulli_power.self_s": get(bern, "self_ns") / 1e9,
        "closedform.bernoulli_power.ns_per_element": _ratio(get(bern, "self_ns"),
                                                            get(bern, "size")),
        "schemes.step.self_s": get(step, "self_ns") / 1e9,
        "schemes.step.calls": get(step, "calls"),
        "schemes.step.ns_per_path_step": _ratio(get(step, "total_ns"),
                                                get(step, "size")),
        "schemes.x_of.self_s": get("schemes.x_of", "self_ns") / 1e9,
        "rootfind.solves": get(solve, "calls"),
        "rootfind.failures": counts.get("rootfind.failures", 0),
        "rootfind.self_s": get(solve, "self_ns") / 1e9,
        "rootfind.us_per_solve": _ratio(get(solve, "self_ns") / 1e3,
                                        get(solve, "calls")),
        "rootfind.evals_per_solve": _ratio(get(solve, "size"), get(solve, "calls")),
        "experiments.engine.self_s": get("experiments.engine", "self_ns") / 1e9,
        "cli.write.self_s": get("cli.write", "self_ns") / 1e9,
        "cli.output_bytes": output_bytes,
        "trace.wall_s": wall_ns / 1e9,
    }
