"""In-process machine-speed probe, used to normalise measured times.

On a shared 2-core virtual machine the speed of a core changes by up to 2x
over seconds to minutes, as other tenants load the host: one fixed loop
took from 0.6x to 1.7x its median time within a minute.  That swamps
any regression bound on raw wall time.  Each child therefore runs a fixed
pure-Python loop from a 20 ms interval timer while it works, and a time is
reported in seconds at the reference speed: the measured time, minus the
loop's own ticks, times ``REFERENCE_NS`` over the median loop time during
that interval.  The loop is the benchmark's own code, so a change to ``lsd``
moves the normalised time in proportion to the raw one; only the machine's
speed cancels, as far as the loop slows down with the workload.  The loop
needs nothing but the interpreter, so it also runs while ``numpy`` and
``lsd`` are being imported.
"""

import signal
import time
from statistics import median
from typing import List

PERIOD_S = 0.02
# Median loop time at the reference speed: near its typical time on the 2-core
# Xeon virtual machine the benchmark was tuned on.
REFERENCE_NS = 60_000


def reference_loop() -> int:
    total = 0
    for i in range(1000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Runs ``reference_loop`` every ``PERIOD_S``; records (start, duration) ns."""

    def __init__(self):
        self.ticks = []

    def _tick(self, signum, frame):
        started = time.monotonic_ns()
        reference_loop()
        self.ticks.append((started, time.monotonic_ns() - started))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def between(self, start_ns: int, end_ns: int) -> List[int]:
        """Durations of the ticks that started in [start_ns, end_ns)."""
        return [d for t, d in self.ticks if start_ns <= t < end_ns]


def normalise(elapsed_ns: int, ticks: List[int]) -> float:
    """Seconds at the reference speed for an interval holding ``ticks``."""
    if not ticks:
        raise ValueError("no speed-probe tick fell inside the interval")
    return (elapsed_ns - sum(ticks)) / 1e9 * REFERENCE_NS / median(ticks)
