"""How fast the shared host runs right now, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed drifts: on
the 2-CPU Xeon it was tuned on, with no other process running and no
steal time, the same warm calls took up to 1.4 times as long from one
10 s window to the next, and a run's wall times moved by a quarter
between runs of the same inputs. A fixed pure-Python kernel, sampled
between the workload's calls, slows down with the host. The benchmark
scales every time it reports by ``REFERENCE_S`` over the kernel's median
time in the same stretch of the run, so a time reads as it would at the
reference speed; the raw times go to the run record next to the scale.
Scaling cut the spread of 10 s windows of identical calls from 0.17 to
0.065 (interquartile range over median) there. A change to the library
moves the workload's time and not the kernel's, so it shows in full.
"""

from __future__ import annotations

import statistics
import time

# the kernel's median time on the 2-CPU Xeon the benchmark was tuned on;
# a scaled time reads as seconds at that speed
REFERENCE_S = 0.003
# at most one kernel sample per this much workload time: under 5% of a run
INTERVAL_S = 0.05


def kernel() -> int:
    """Fixed integer and dict work, about 2 ms."""
    total = 0
    table = {}
    for i in range(15000):
        table[i & 1023] = total
        total += i * i % 7
    return total


class Pacer:
    """Kernel samples taken between the calls of one timed loop."""

    def __init__(self) -> None:
        # (end, duration) per sample, ``perf_counter`` seconds
        self.samples: list = []
        self._due = 0.0

    def tick(self) -> None:
        """Sample the kernel if ``INTERVAL_S`` passed since the last one."""
        start = time.perf_counter()
        if start < self._due:
            return
        self.sample()
        self._due = self.samples[-1][0] + INTERVAL_S

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.samples.append((end, end - start))

    def _within(self, start: float, end: float) -> list:
        return [d for t, d in self.samples if start < t <= end]

    def spent(self, start: float, end: float) -> float:
        """Kernel time of the samples that ended in (start, end]."""
        return sum(self._within(start, end))

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` / the median kernel time in (start, end], or
        over every sample if none ended there."""
        durations = self._within(start, end) or [d for _t, d in self.samples]
        return REFERENCE_S / statistics.median(durations)
