"""Kernel probe: per-layer costs on fixed inputs, outside any experiment.

It measures, with no tracing installed:
- ns per path per step of every scheme the workloads run, at batch 256 (the
  engine's batch) and batch 65536 (where numpy's per-call overhead vanishes);
- root-finder us and ``spec.fn`` evaluations per solve on a fixed C7-style set
  of cev targets (states log-uniform on [1e-2, 10], dt in {1e-2, 1e-3});
- Gaussian lattice generation and dyadic coarsening in ns per increment.
"""

import math
import time
from statistics import median

import numpy as np

from lsd.models import PARAMS_BY_MODEL, CevParams
from lsd.rootfind import MonotoneSpec, invert_monotone
from lsd.schemes import SchemeId, make_stepper
from lsd.schemes import cev as cev_mod
from lsd.wiener import generate_lattice, halve_increments, path_seed
from workloads import PROBE_BATCHES, probe_schemes, scheme_metric

_CEV = CevParams(1.0 / 16.0, 1.0, 0.4, 0.75)
_DT = 1e-3
# Path-steps per timed repeat (about 20-50 ms each): vectorised steps, then
# scalar root-finding ones; the cost reported is the median over repeats.
_WORK = {256: 262144, 65536: 1048576}
_SCALAR_WORK = {256: 2048, 65536: 65536}
_REPEATS = 5
_ROOT_SEED = 20240915


def _step_cost(model, variant, params, x0, batch, rng) -> float:
    stepper = make_stepper(SchemeId(model, variant), params)
    scalar = variant == "implicit"
    steps = max(1, (_SCALAR_WORK if scalar else _WORK)[batch] // batch)
    repeats = 1 if scalar and batch > 256 else _REPEATS
    shape = (steps, 2, batch) if stepper.drivers == 2 else (steps, batch)
    dw = rng.standard_normal(shape) * math.sqrt(_DT)
    costs = []
    for _ in range(repeats):
        state = stepper.init(x0, size=batch)
        started = time.perf_counter_ns()
        for j in range(steps):
            step_dw = (dw[j, 0], dw[j, 1]) if stepper.drivers == 2 else dw[j]
            state, _ = stepper.step(state, step_dw, _DT)
        costs.append((time.perf_counter_ns() - started) / (steps * batch))
    return median(costs)


def _rootfind_cost():
    """(us per solve, evaluations per solve, failures) on the fixed targets."""
    rng = np.random.default_rng(_ROOT_SEED)
    count = [0]
    problems = []
    for dt in (1e-2, 1e-3):
        g = cev_mod.implicit_map(_CEV, dt)

        def counted(x, _g=g):
            count[0] += 1
            return _g(x)

        spec = MonotoneSpec(counted, lo=0.0, hi=math.inf)
        states = np.exp(rng.uniform(np.log(1e-2), np.log(10.0), 500)) ** (1 - _CEV.q)
        problems += [(spec, g, g(s), 1.3 * s) for s in states]
    costs, failures = [], 0
    for _ in range(_REPEATS):
        count[0] = 0
        started = time.perf_counter_ns()
        roots = [invert_monotone(spec, u, tol=1e-13, seed=seed)
                 for spec, _, u, seed in problems]
        costs.append((time.perf_counter_ns() - started) / len(problems) / 1e3)
        failures = sum(not abs(g(x) - u) <= 1e-12 * max(1.0, abs(u))
                       for x, (_, g, u, _) in zip(roots, problems))
    return median(costs), count[0] / len(problems), failures


def _wiener_costs(seed: int):
    """ns per increment of lattice generation and of coarsening 8 levels."""
    paths, base, levels = 64, 64, 8
    started = time.perf_counter_ns()
    rows = [generate_lattice(path_seed(seed, i), 1.0, base, levels).increments
            for i in range(paths)]
    lattice_ns = time.perf_counter_ns() - started
    inc = np.stack(rows)
    started = time.perf_counter_ns()
    halve_increments(inc, levels)
    coarsen_ns = time.perf_counter_ns() - started
    return lattice_ns / inc.size, coarsen_ns / inc.size


def run_probe(seed: int) -> dict:
    """All probe metrics by name, plus ``failures`` for the root finder."""
    rng = np.random.default_rng(seed)
    out = {}
    for (model, variant), w in probe_schemes().items():
        params = PARAMS_BY_MODEL[model](**dict(w.params))
        for batch in PROBE_BATCHES:
            out[scheme_metric(model, variant, batch)] = _step_cost(
                model, variant, params, w.x0, batch, rng)
    us, evals, failures = _rootfind_cost()
    out["rootfind.probe.us_per_solve"] = us
    out["rootfind.probe.evals_per_solve"] = evals
    out["failures"] = failures
    lattice, coarsen = _wiener_costs(seed)
    out["wiener.probe.lattice_ns_per_increment"] = lattice
    out["wiener.probe.coarsen_ns_per_increment"] = coarsen
    return out
