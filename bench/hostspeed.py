"""How fast the host runs, from a fixed reference job.

The machines this benchmark runs on are shared, and their speed drifts
by up to a factor of 2 for minutes at a time; every Python and NumPy
workload slows together.  Each workload therefore runs units of one
fixed job between its operations: a pure-Python dictionary loop, small
complex NumPy products of the kind the program's kernel does, and a
dense matrix product.  Host work measured in the same run is scaled to
the reference host:

    speed = mean over the run's units of REFERENCE_UNIT_S / unit time
    time at reference speed = wall time * speed

The host tends to flip between a fast and a slow state every few
seconds; units spread over a run sample both, and the mean of their
speeds follows the share of time spent in each, where a median would
jump from one state to the other.

The job is benchmark code that no program change can touch, so the
scaled times move only when the program does.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

#: Median time of one unit on the 2-vCPU Xeon VM the benchmark was
#: sized on, at its usual speed.
REFERENCE_UNIT_S = 0.0100


class HostSpeed:
    """The reference job, and the unit times measured so far."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20171212)
        self._dense = rng.standard_normal((200, 200))
        self._patterns = rng.standard_normal((34, 64)) + 1j * rng.standard_normal((34, 64))
        self._probes = rng.integers(0, 34, size=14)
        self.samples: List[float] = []

    def _work(self) -> float:
        counts: dict = {}
        for index in range(40000):
            counts[index % 97] = counts.get(index % 97, 0) + index
        total = float(len(counts))
        for _ in range(10):
            total += float((self._dense @ self._dense)[0, 0])
        for _ in range(200):
            rows = self._patterns[self._probes]
            power = np.abs(rows.conj() @ self._patterns.T) ** 2
            total += float(power.max()) + float(np.argmax(power.sum(axis=0)))
        return total

    def measure(self, units: int) -> None:
        """Run the job ``units`` times, keeping each unit's wall time."""
        for _ in range(units):
            begin = time.perf_counter()
            self._work()
            self.samples.append(time.perf_counter() - begin)


def speed_of(unit_times: Sequence[float]) -> float:
    """Host speed relative to the reference host (above 1: faster)."""
    return statistics.fmean(REFERENCE_UNIT_S / unit for unit in unit_times)
