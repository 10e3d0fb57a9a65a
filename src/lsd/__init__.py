"""Lamperti semi-discrete and companion schemes for positive-domain SDEs.

The package covers five scalar models (square-root/CIR, mean-reverting CEV,
Wright-Fisher, Heston 3/2, Ait-Sahalia), every semi-discrete scheme variant
for them plus the competitor schemes they are measured against, and a
deterministic Monte-Carlo harness for strong-convergence-order and
domain-preservation experiments.
"""

from .closedform import bernoulli_power, wf_cosine_solution
from .config import ExperimentConfig, parse_config
from .errors import (ConfigurationError, DataError, DegenerateStateError,
                     DomainError, InversionError, LsdError, NumericError,
                     StepSizeError)
from .experiments import (ErrorReport, ExactCirPaths, PathResult,
                          ScanCounters, domain_violation_scan,
                          exact_cir_error_decay, exact_cir_experiment,
                          fit_order, simulate_path, simulate_paths,
                          strong_error)
from .models import (AitParams, CevParams, CirParams, Heston32Params,
                     WfParams, domain_report, lamperti_forward)
from .rootfind import MonotoneSpec, invert_monotone
from .schemes import SCHEMES, SchemeId, make_stepper
from .wiener import (WienerLattice, cir_effective_increment, generate_lattice,
                     halve_increments, path_seed)

__version__ = "0.1.0"
