"""The library calls the benchmark makes outside ``lsd.cli.main`` still run.

``perfbench/child.py`` recomputes the squared-OU sample path of an
``exact-cir`` run, and ``perfbench/probe.py`` steps every scheme a workload
runs; ``perfbench/tests`` calls neither.  A change to ``lsd`` that breaks
them would otherwise show only as a failed benchmark run.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import probe  # noqa: E402
from workloads import WORKLOADS, probe_schemes  # noqa: E402

from lsd.config import parse_config  # noqa: E402
from lsd.models import PARAMS_BY_MODEL  # noqa: E402


def test_exact_path_scale_is_finite_and_positive():
    cfg = parse_config(WORKLOADS["exact_ou"].config_text(1))
    scale = child._exact_path_scale(cfg)
    assert math.isfinite(scale) and scale > 0.0


PROBED = probe_schemes()


@pytest.mark.parametrize("key", list(PROBED), ids=lambda k: f"{k[0]}:{k[1]}")
def test_probe_steps_every_workload_scheme(key):
    model, variant = key
    w = PROBED[key]
    params = PARAMS_BY_MODEL[model](**dict(w.params))
    cost = probe._step_cost(model, variant, params, w.x0, 256,
                            np.random.default_rng(1))
    assert math.isfinite(cost) and cost > 0.0
