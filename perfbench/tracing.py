"""Span tracing of lsd's layers from outside the package.

``install`` replaces public names in the modules that call them with wrappers
that record one span per call: name, parent span, start, end and a work size
(elements, increments, paths or root-finder evaluations).  Spans are kept in
memory and written once, by ``Tracer.save``, when the traced run ends.
``layer_totals`` derives each span name's self time, the span's duration
minus the time its child spans cover.
"""

import builtins
import time
from collections import Counter
from typing import Callable, Dict, Optional

import numpy as np

# Round-trip residual bound for every traced root-finder solve.
RESIDUAL_TOL = 1e-12
_CHECK = "trace.check"


class Tracer:
    """Parented spans in flat lists; span i's parent is ``parent[i]`` or -1."""

    def __init__(self):
        self.names = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = []
        self.parent = []
        self.start = []
        self.end = []
        self.size = []
        self.counts = Counter()
        self._open = [-1]

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.size.append(0)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def end_span(self, idx: int, size: int = 0) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.size[idx] = size
        self._open.pop()

    def wrap(self, name: str, fn: Callable,
             size_of: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call; ``size_of(args, out)`` sizes it."""
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end_span(idx)
            if size_of is not None:
                self.size[idx] = size_of(args, out)
            return out
        return traced

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start, dtype=np.int64),
                 end=np.array(self.end, dtype=np.int64),
                 size=np.array(self.size, dtype=np.int64))


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children (ns)."""
    dur = (end - start).astype(np.float64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def layer_totals(spans) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, summed self and inclusive ns, summed size."""
    names, name_id = spans["names"], spans["name_id"]
    own = self_times(spans["parent"], spans["start"], spans["end"])
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    n = len(names)
    calls = np.bincount(name_id, minlength=n)
    self_ns = np.bincount(name_id, weights=own, minlength=n)
    total_ns = np.bincount(name_id, weights=dur, minlength=n)
    size = np.bincount(name_id, weights=spans["size"].astype(np.float64), minlength=n)
    return {str(name): {"calls": int(calls[i]), "self_ns": float(self_ns[i]),
                        "total_ns": float(total_ns[i]), "size": float(size[i])}
            for i, name in enumerate(names)}


_MISSING = object()


def _elements(args, out) -> int:
    return np.size(out)


def _coarsen_bytes(args, out) -> int:
    """Computed bytes read and written by ``halve_increments(inc, times)``."""
    inc, times = args[0], args[1]
    n, moved = inc.size, 0
    for _ in range(times):
        moved += n + n // 2
        n //= 2
    return moved * inc.itemsize


class _TracedFile:
    """A file opened by ``lsd.cli``; its ``with`` block is one span."""

    def __init__(self, tracer: Tracer, args, kwargs):
        self._tracer = tracer
        self._idx = tracer.begin("cli.write")
        try:
            self._fh = builtins.open(*args, **kwargs)
        except BaseException:
            tracer.end_span(self._idx)
            raise

    def __enter__(self):
        return self._fh.__enter__()

    def __exit__(self, *exc):
        try:
            return self._fh.__exit__(*exc)
        finally:
            self._tracer.end_span(self._idx)


def install(tracer: Tracer):
    """Wrap lsd's layer entry points; returns a function that undoes it.

    A name that a later version of lsd no longer has is skipped, so its layer
    reads zero instead of the traced run failing.
    """
    from lsd import cli, experiments
    from lsd.errors import InversionError
    from lsd.schemes import ait, cev, cir, wf

    saved = []

    def patch(module, attr, make_wrapper):
        old = module.__dict__.get(attr, _MISSING)
        if old is _MISSING:
            return
        saved.append((module, attr, old))
        setattr(module, attr, make_wrapper(old))

    def spans(name, size_of=None):
        return lambda fn: tracer.wrap(name, fn, size_of)

    def traced_make_stepper(make_stepper):
        def make(*args, **kwargs):
            stepper = make_stepper(*args, **kwargs)
            drivers = stepper.drivers
            stepper.step = tracer.wrap("schemes.step", stepper.step,
                                       lambda a, out: np.size(a[1]) // drivers)
            stepper.x_of = tracer.wrap("schemes.x_of", stepper.x_of)
            return stepper
        return make

    patch(experiments, "generate_lattice",
          spans("wiener.lattice", lambda a, out: out.increments.size))
    patch(experiments, "halve_increments", spans("wiener.coarsen", _coarsen_bytes))
    patch(experiments, "path_seed", spans("wiener.path_seed"))
    patch(experiments, "cir_effective_increment",
          spans("wiener.effective_increment", _elements))
    patch(experiments, "make_stepper", traced_make_stepper)
    for module in (cir, cev):
        patch(module, "bernoulli_power", spans("closedform.bernoulli_power", _elements))
    for module in (cev, wf, ait):
        patch(module, "invert_monotone",
              lambda fn: _traced_invert(tracer, fn, InversionError))
    for name in ("strong_error", "domain_violation_scan",
                 "exact_cir_error_decay", "exact_cir_experiment"):
        patch(cli, name, spans("experiments.engine"))
    # lsd.cli opens its output files through the builtin; a module global
    # named ``open`` shadows it there and nowhere else.
    saved.append((cli, "open", _MISSING))
    cli.open = lambda *a, **k: _TracedFile(tracer, a, k)

    def uninstall():
        for module, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(module, attr)
            else:
                setattr(module, attr, old)

    return uninstall



def _traced_invert(tracer: Tracer, invert, inversion_error):
    """Span per solve, sized by ``spec.fn`` evaluations; checks the residual.

    The solver sees the caller's spec with ``fn`` swapped for a counting
    wrapper for the length of the call.  The residual check runs in a span of
    its own, so it adds to no layer's self time.
    """
    def traced(spec, u, *args, **kwargs):
        fn = spec.fn
        evals = 0

        def counted(x):
            nonlocal evals
            evals += 1
            return fn(x)

        spec.fn = counted
        idx = tracer.begin("rootfind.invert")
        try:
            x = invert(spec, u, *args, **kwargs)
        except inversion_error:
            tracer.counts["rootfind.failures"] += 1
            raise
        finally:
            tracer.end_span(idx, evals)
            spec.fn = fn
        check = tracer.begin(_CHECK)
        if not abs(fn(x) - u) <= RESIDUAL_TOL * max(1.0, abs(u)):
            tracer.counts["rootfind.residual_failures"] += 1
        tracer.end_span(check)
        return x

    return traced
