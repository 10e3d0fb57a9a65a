"""Experiment configuration: a small key=value format under [section] headers.

The format is deliberately tiny: blank lines and '#' comments are ignored,
sections are ``[experiment]``, ``[params]``, and ``[run]``, and every other
line must read ``key = value``.  Parsing is strict: unknown keys, duplicate
keys, and malformed lines are reported with their line numbers so a config
never half-works.
"""

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from .errors import ConfigurationError
from .models import PARAMS_BY_MODEL
from .schemes import VARIANTS

KINDS = ("simulate", "convergence", "compare", "exact-cir", "scan")

_EXPERIMENT_KEYS = ("kind", "model", "name")
_RUN_KEYS = ("x0", "T", "schemes", "dt", "ref_step", "M", "seed", "theta",
             "m", "reference")

_PARAM_KEYS = {model: tuple(f.name for f in fields(cls))
               for model, cls in PARAMS_BY_MODEL.items()}

_DEFAULT_M = {"convergence": 1000, "scan": 100, "exact-cir": 100,
              "simulate": 1, "compare": 1}


@dataclass
class ExperimentConfig:
    """Everything one run needs; parses losslessly from the config text."""

    kind: str
    model: str
    params: Dict[str, float]
    x0: float
    T: float
    schemes: List[str]
    dts: List[float]
    name: Optional[str] = None
    ref_step: Optional[float] = None
    M: Optional[int] = None
    seed: int = 0
    theta: float = 1.0
    m: float = 0.5
    reference: Optional[str] = None

    def resolved_m_samples(self) -> int:
        return self.M if self.M is not None else _DEFAULT_M[self.kind]

    def resolved_ref_step(self) -> float:
        return self.ref_step if self.ref_step is not None else min(self.dts) / 8.0

    def scheme_variant(self, name: str) -> str:
        """The scheme-table variant a configured name selects: the name itself.

        Kept only because ``perfbench/child.py`` calls it.
        """
        return name

    def to_text(self) -> str:
        """Canonical text form; reparsing it yields an equal config."""
        lines = ["[experiment]", f"kind = {self.kind}", f"model = {self.model}"]
        if self.name is not None:
            lines.append(f"name = {self.name}")
        lines.append("")
        lines.append("[params]")
        lines += [f"{k} = {_fmt(v)}" for k, v in self.params.items()]
        lines.append("")
        lines.append("[run]")
        lines.append(f"x0 = {_fmt(self.x0)}")
        lines.append(f"T = {_fmt(self.T)}")
        lines.append(f"schemes = {', '.join(self.schemes)}")
        lines.append(f"dt = {', '.join(_fmt(d) for d in self.dts)}")
        if self.ref_step is not None:
            lines.append(f"ref_step = {_fmt(self.ref_step)}")
        if self.M is not None:
            lines.append(f"M = {self.M}")
        lines.append(f"seed = {self.seed}")
        lines.append(f"theta = {_fmt(self.theta)}")
        lines.append(f"m = {_fmt(self.m)}")
        if self.reference is not None:
            lines.append(f"reference = {self.reference}")
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _scan_lines(text: str) -> List[Tuple[int, str, str, str]]:
    """Yield (line_no, kind, a, b) where kind is 'section' or 'pair'."""
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                col = len(raw.rstrip()) + 1
                raise ConfigurationError(
                    f"line {line_no}, col {col}: unterminated section header")
            out.append((line_no, "section", stripped[1:-1].strip(), ""))
            continue
        if "=" not in stripped:
            col = raw.index(stripped[0]) + 1
            raise ConfigurationError(
                f"line {line_no}, col {col}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigurationError(f"line {line_no}, col 1: missing key")
        out.append((line_no, "pair", key, value.strip()))
    return out


def _to_float(value: str, key: str, line_no: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigurationError(
            f"line {line_no}: key {key!r} needs a real number, got {value!r}") from None


def _to_int(value: str, key: str, line_no: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(
            f"line {line_no}: key {key!r} needs an integer, got {value!r}") from None


def _split_list(value: str) -> List[str]:
    parts = [p for chunk in value.split(",") for p in chunk.split()]
    return [p for p in parts if p]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; any problem names its key and line."""
    entries = _scan_lines(text)
    sections: Dict[str, Dict[str, Tuple[str, int]]] = {}
    current = None
    for line_no, kind, a, b in entries:
        if kind == "section":
            if a not in ("experiment", "params", "run"):
                raise ConfigurationError(f"line {line_no}: unknown section [{a}]")
            current = sections.setdefault(a, {})
            continue
        if current is None:
            raise ConfigurationError(
                f"line {line_no}: key {a!r} appears before any [section] header")
        if a in current:
            first = current[a][1]
            raise ConfigurationError(
                f"duplicate key {a!r} on lines {first} and {line_no}")
        current[a] = (b, line_no)

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
    for key, (_, line_no) in exp.items():
        if key not in _EXPERIMENT_KEYS:
            raise ConfigurationError(
                f"line {line_no}: unknown key {key!r} in [experiment]")
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
    for key, (_, line_no) in run.items():
        if key not in _RUN_KEYS:
            raise ConfigurationError(f"line {line_no}: unknown key {key!r} in [run]")

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
    dt_raw, dt_line = need("dt")
    dts = [_to_float(v, "dt", dt_line) for v in _split_list(dt_raw)]
    if not dts or any(d <= 0 for d in dts):
        raise ConfigurationError(f"line {dt_line}: dt values must be positive")

    cfg = ExperimentConfig(
        kind=kind, model=model, params=params, x0=x0, T=T, schemes=schemes,
        dts=dts, name=name,
        ref_step=(_to_float(run["ref_step"][0], "ref_step", run["ref_step"][1])
                  if "ref_step" in run else None),
        M=(_to_int(run["M"][0], "M", run["M"][1]) if "M" in run else None),
        seed=(_to_int(run["seed"][0], "seed", run["seed"][1])
              if "seed" in run else 0),
        theta=(_to_float(run["theta"][0], "theta", run["theta"][1])
               if "theta" in run else 1.0),
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
            f"reference scheme {cfg.reference!r} is not valid for {model!r}")
    if not cfg.T > 0:
        raise ConfigurationError(f"T must be positive, got {cfg.T}")
    if cfg.M is not None and cfg.M < 1:
        raise ConfigurationError(f"M must be >= 1, got {cfg.M}")
    if not 0.0 < cfg.m < 1.0:
        raise ConfigurationError(f"m must lie in (0, 1), got {cfg.m}")
    return cfg
