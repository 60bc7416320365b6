"""Processor speed, measured against fixed work in benchmark code.

On shared virtual machines (2 vCPUs, Intel Xeon, Python 3.11.7) the same
request list ran 20-30% slower from one minute to the next, with CPU time
equal to wall time: the processor itself slows down, so longer runs do not
average it away.  The benchmark therefore scales every time it reports by the speed
measured in the same process at the same moment.  A probe of fixed work
(permutation arithmetic from check.py; nothing from cfckit, so no change to
cfckit can move it) runs between requests, and a time t measured near
probes that took d seconds each is reported as t * REFERENCE_S / d.
Unscaled figures are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect
from time import perf_counter

import check

# Probe duration on the machine the benchmark was tuned on (Intel Xeon,
# 2 vCPUs, Python 3.11.7), so scaled times stay close to that machine's.
REFERENCE_S = 0.005
PROBE_ROUNDS = 3
PROBE_PERMS = (
    (2, 4, 1, 6, 3, 8, 5, 7),
    (5, 2, 6, 3, 1, 4, 8, 7),
    (2, 1, 5, 6, 4, 3, 8, 7),
    (6, 5, 4, 7, 1, 2, 8, 3),
    (4, 8, 2, 3, 7, 6, 1, 5),
    (1, 7, 8, 2, 5, 3, 4, 6),
    (2, 4, 6, 1, 3, 5, 7, 8),
    (3, 5, 8, 7, 1, 4, 6, 2),
    (4, 3, 7, 5, 2, 1, 8, 6),
)
# Probes whose median sets the scale for one time: the nearest few.
WINDOW = 7


def probe() -> float:
    """Seconds taken by the fixed work."""
    start = perf_counter()
    for _ in range(PROBE_ROUNDS):
        for p in PROBE_PERMS:
            check.is_cyclically_reduced(p)
            check.lex_least_word(p)
            check.has_321(p)
            check.cycle_type(p)
    return perf_counter() - start


class SpeedTrack:
    """Probe results over time, and the scale they give at a moment."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        self.durations.append(probe())
        self.times.append(start)

    def scale(self, moment: float) -> float:
        """REFERENCE_S over the median of the WINDOW probes nearest ``moment``."""
        j = bisect(self.times, moment)
        low = max(0, min(j - WINDOW // 2, len(self.times) - WINDOW))
        return REFERENCE_S / statistics.median(self.durations[low : low + WINDOW])
