"""Experiment configuration: a small key=value format under [section] headers.

The format is deliberately tiny: blank lines and '#' comments are ignored,
sections are ``[experiment]``, ``[params]``, and ``[run]``, and every other
line must read ``key = value``.  Parsing is strict: one pass reports the
first malformed line, unknown key or duplicate key with its line number, so
a config never half-works.
"""

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Dict, List, Optional, Tuple

from .errors import ConfigurationError
from .models import PARAMS_BY_MODEL
from .schemes import VARIANTS

KINDS = ("simulate", "convergence", "compare", "exact-cir", "scan")

# The keys [experiment] and [run] take; [params] takes its model's, which
# are checked once the model is known.
_SECTION_KEYS = {"experiment": ("kind", "model", "name"),
                 "params": None,
                 "run": ("x0", "T", "schemes", "dt", "ref_step", "M", "seed",
                         "m", "reference")}

_PARAM_KEYS = {model: tuple(f.name for f in fields(cls))
               for model, cls in PARAMS_BY_MODEL.items()}

_DEFAULT_M = {"convergence": 1000, "scan": 100, "exact-cir": 100,
              "simulate": 1, "compare": 1}


@dataclass
class ExperimentConfig:
    """Everything one run needs, as :func:`parse_config` reads it.

    Every real is finite and ``seed`` is at least 0.  Where the config
    leaves them out, ``M`` is the kind's default, ``ref_step`` the finest dt
    over 8, and ``name`` and ``reference`` are None.
    """

    kind: str
    model: str
    params: Dict[str, float]
    x0: float
    T: float
    schemes: List[str]
    dts: List[float]
    ref_step: float
    M: int
    name: Optional[str] = None
    seed: int = 0
    m: float = 0.5
    reference: Optional[str] = None
    # The θ of every sd_theta row, not a key; kept only because
    # perfbench/child.py reads it.
    theta: ClassVar[float] = 1.0

    def scheme_variant(self, name: str) -> str:
        """The scheme-table variant a configured name selects: the name itself.

        Kept only because ``perfbench/child.py`` calls it.
        """
        return name


def _to_float(value: str, key: str, line_no: int) -> float:
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ConfigurationError(
            f"line {line_no}: key {key!r} needs a finite real number, got {value!r}")
    return x


def _to_int(value: str, key: str, line_no: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(
            f"line {line_no}: key {key!r} needs an integer, got {value!r}") from None


def _reject_repeats(values: list, what: str, line_no: int) -> None:
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigurationError(f"line {line_no}: {what} {v!r} is listed twice")


def _split_list(value: str) -> List[str]:
    return [p for chunk in value.split(",") for p in chunk.split()]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; any problem names its key and line."""
    sections: Dict[str, Dict[str, Tuple[str, int]]] = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigurationError(f"line {line_no}, col {len(raw.rstrip()) + 1}: "
                                         "unterminated section header")
            section = stripped[1:-1].strip()
            if section not in _SECTION_KEYS:
                raise ConfigurationError(f"line {line_no}: unknown section [{section}]")
            current, allowed = sections.setdefault(section, {}), _SECTION_KEYS[section]
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {line_no}, col {raw.index(stripped[0]) + 1}: "
                                     "expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigurationError(f"line {line_no}, col 1: missing key")
        if current is None:
            raise ConfigurationError(
                f"line {line_no}: key {key!r} appears before any [section] header")
        if allowed is not None and key not in allowed:
            raise ConfigurationError(f"line {line_no}: unknown key {key!r} in [{section}]")
        if key in current:
            raise ConfigurationError(
                f"duplicate key {key!r} on lines {current[key][1]} and {line_no}")
        current[key] = (value.strip(), line_no)

    exp = sections.get("experiment", {})
    if "kind" not in exp:
        raise ConfigurationError("missing experiment kind")
    kind, kind_line = exp["kind"]
    if kind not in KINDS:
        raise ConfigurationError(
            f"line {kind_line}: unknown experiment kind {kind!r}; "
            f"expected one of {KINDS}")
    if "model" not in exp:
        raise ConfigurationError("missing model under [experiment]")
    model, model_line = exp["model"]
    if model not in PARAMS_BY_MODEL:
        raise ConfigurationError(
            f"line {model_line}: unknown model {model!r}; "
            f"expected one of {tuple(PARAMS_BY_MODEL)}")
    name = exp.get("name", (None, 0))[0]

    allowed_params = _PARAM_KEYS[model]
    params: Dict[str, float] = {}
    for key, (value, line_no) in sections.get("params", {}).items():
        if key not in allowed_params:
            raise ConfigurationError(
                f"line {line_no}: unknown parameter {key!r} for model "
                f"{model!r}; expected one of {allowed_params}")
        params[key] = _to_float(value, key, line_no)
    missing = [k for k in allowed_params if k not in params]
    if missing:
        raise ConfigurationError(
            f"model {model!r} is missing parameters {missing} under [params]")

    run = sections.get("run", {})

    def need(key: str) -> Tuple[str, int]:
        if key not in run:
            raise ConfigurationError(f"missing key {key!r} under [run]")
        return run[key]

    x0_raw, x0_line = need("x0")
    x0 = _to_float(x0_raw, "x0", x0_line)
    t_raw, t_line = need("T")
    T = _to_float(t_raw, "T", t_line)
    schemes_raw, schemes_line = need("schemes")
    schemes = _split_list(schemes_raw)
    if not schemes:
        raise ConfigurationError(f"line {schemes_line}: empty scheme list")
    _reject_repeats(schemes, "scheme", schemes_line)
    dt_raw, dt_line = need("dt")
    dts = [_to_float(v, "dt", dt_line) for v in _split_list(dt_raw)]
    if not dts or any(d <= 0 for d in dts):
        raise ConfigurationError(f"line {dt_line}: dt values must be positive")
    _reject_repeats(dts, "dt", dt_line)

    cfg = ExperimentConfig(
        kind=kind, model=model, params=params, x0=x0, T=T, schemes=schemes,
        dts=dts, name=name,
        ref_step=(_to_float(run["ref_step"][0], "ref_step", run["ref_step"][1])
                  if "ref_step" in run else min(dts) / 8.0),
        M=(_to_int(run["M"][0], "M", run["M"][1]) if "M" in run
           else _DEFAULT_M[kind]),
        seed=(_to_int(run["seed"][0], "seed", run["seed"][1])
              if "seed" in run else 0),
        m=(_to_float(run["m"][0], "m", run["m"][1]) if "m" in run else 0.5),
        reference=run.get("reference", (None, 0))[0],
    )
    for s in schemes:
        if s not in VARIANTS[model]:
            raise ConfigurationError(
                f"line {schemes_line}: scheme {s!r} is not valid for model "
                f"{model!r}; expected one of {VARIANTS[model]}")
    if cfg.reference is not None and cfg.reference not in VARIANTS[model]:
        raise ConfigurationError(
            f"line {run['reference'][1]}: reference scheme {cfg.reference!r} is "
            f"not valid for model {model!r}; expected one of {VARIANTS[model]}")
    if not cfg.T > 0:
        raise ConfigurationError(f"line {t_line}: T must be positive, got {cfg.T}")
    if not cfg.ref_step > 0:    # the default, min(dts) / 8, always is
        raise ConfigurationError(
            f"line {run['ref_step'][1]}: ref_step must be positive, got {cfg.ref_step}")
    if cfg.seed < 0:
        raise ConfigurationError(
            f"line {run['seed'][1]}: seed must be >= 0, got {cfg.seed}")
    if cfg.M < 1:    # the kind's default always is
        raise ConfigurationError(f"line {run['M'][1]}: M must be >= 1, got {cfg.M}")
    if not 0.0 < cfg.m < 1.0:    # the default, 0.5, lies inside
        raise ConfigurationError(
            f"line {run['m'][1]}: m must lie in (0, 1), got {cfg.m}")
    return cfg
