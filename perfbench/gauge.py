"""Speed gauge: a fixed piece of pure-Python work timed between operations.

The benchmark runs on shared machines whose speed drifts by a third over
seconds to minutes (neighbours' load, clock scaling), and levelone's cost is
interpreter-bound ``Fraction`` and dict work, which drifts with it.  So every
wall time the benchmark reports is scaled to a reference speed:

    reported = measured * REFERENCE_MS / (median gauge time around it)

The gauge does not touch levelone, so nothing a change to the library does can
move it; it only cancels the machine's speed.  ``REFERENCE_MS`` is the gauge's
median time on a 2-CPU x86-64 container with CPython 3.11.7, so reported
figures read as milliseconds on that machine at its typical speed.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_MS = 0.65
EVERY_S = 0.05  # gauge at most this often in the timed loop: about 1% of the time
WINDOW = 9  # gauge readings per local median


def gauge_work() -> Fraction:
    s = Fraction(0)
    d = {}
    for i in range(1, 96):
        s += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
        d[i & 31] = s
    return s


class Gauge:
    """Timestamped gauge readings and the speed factor around any instant."""

    def __init__(self):
        self.times: list = []
        self.ms: list = []
        self._next = 0.0

    def read(self) -> None:
        t0 = time.perf_counter()
        gauge_work()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.ms.append((t1 - t0) * 1000)
        self._next = t1 + EVERY_S

    def maybe_read(self) -> None:
        if time.perf_counter() >= self._next:
            self.read()

    def burst(self) -> None:
        for _ in range(WINDOW):
            self.read()

    def scale_at(self, t: float) -> float:
        """REFERENCE_MS over the median of the WINDOW readings nearest to t."""
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - WINDOW // 2, len(self.ms) - WINDOW))
        return REFERENCE_MS / statistics.median(self.ms[lo:lo + WINDOW])

    def scale_between(self, t0: float, t1: float) -> float:
        """REFERENCE_MS over the median reading taken from t0 to t1."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        return REFERENCE_MS / statistics.median(self.ms[lo:hi])
