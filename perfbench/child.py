"""One benchmark sample in a fresh process; ``run.py`` starts it.

    python child.py MODE CONFIG OUT_DIR SPAWN_NS

MODE is ``setup`` (import lsd and parse the config, nothing else), ``run``
(one untraced ``lsd.cli.main`` call), ``trace`` (the same call with the layer
wrappers of ``tracing.py`` installed) or ``probe`` (the kernel probe; CONFIG
names a file holding the seed).  SPAWN_NS is the parent's CLOCK_MONOTONIC
reading just before it started this process; the clock is system-wide, so
the set-up interval runs from process start.

``setup`` and ``run`` children run the speed probe of ``speed.py`` from
their first line and report the probe ticks inside the set-up interval and
inside the ``lsd.cli.main`` call.  The result goes to ``OUT_DIR/result.json``;
a traced run also writes its spans to ``OUT_DIR/spans.npz``.
"""

import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedProbe


def _sample(mode: str, config: Path, out: Path, spawn_ns: int,
            speed: SpeedProbe) -> dict:
    import lsd.cli
    from lsd.config import parse_config

    cfg = parse_config(config.read_text(encoding="utf-8"))
    parsed_ns = time.monotonic_ns()
    result = {"setup_ns": parsed_ns - spawn_ns,
              "setup_ticks": speed.between(spawn_ns, parsed_ns)}
    if mode == "setup":
        return result

    tracer = uninstall = None
    if mode == "trace":
        import tracing
        speed.stop()
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    argv = [str(config), "--out", str(out), "--threads", "1"]
    started = time.monotonic_ns()
    result["exit_code"] = lsd.cli.main(argv)
    ended = time.monotonic_ns()
    result["wall_ns"] = ended - started
    result["wall_ticks"] = speed.between(started, ended)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        uninstall()
        tracer.save(out / "spans.npz")
        result["counts"] = dict(tracer.counts)
    if cfg.kind == "exact-cir":
        result["value_scale"] = _exact_path_scale(cfg)
    return result


def _exact_path_scale(cfg) -> float:
    """max |x| of the squared-OU sample path the run's summary checked."""
    from lsd.experiments import exact_cir_experiment
    from lsd.models import PARAMS_BY_MODEL
    from lsd.schemes import SchemeId

    params = PARAMS_BY_MODEL[cfg.model](**cfg.params)
    ids = [SchemeId(cfg.model, cfg.scheme_variant(s)) for s in cfg.schemes]
    sample = exact_cir_experiment(params, cfg.x0, cfg.m, max(cfg.dts), cfg.T,
                                  cfg.seed, ids, theta=cfg.theta)
    return float(abs(sample.exact).max())


def main(argv) -> int:
    mode, config, out, spawn_ns = argv[0], Path(argv[1]), Path(argv[2]), int(argv[3])
    if mode == "probe":
        import probe
        result = probe.run_probe(int(config.read_text()))
    else:
        speed = SpeedProbe()
        speed.start()
        try:
            result = _sample(mode, config, out, spawn_ns, speed)
        finally:
            speed.stop()  # a SIGALRM after shutdown resets its handler kills us
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
