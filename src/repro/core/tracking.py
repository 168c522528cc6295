"""Continuous beam tracking: sweep → select → repeat.

Stations re-train about once per second (§4.1); the tracker wires the
paper's random probe draw (sorted into sweep order), an optional
adaptive probe-count controller and a selector into that loop.  The
channel is abstracted behind a *measure* callable so the tracker works
against live protocol sessions, recorded sweeps, or synthetic data
alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..mac.timing import mutual_training_time_us
from .adaptive import AdaptiveProbeController
from .compressive import CompressiveSectorSelector
from .measurements import ProbeMeasurement
from .probes import RandomProbeDesigner
from .selector import SelectionResult

__all__ = ["TrackStep", "SectorTracker", "MeasureFn"]

#: Probes a set of sector IDs, returning the firmware measurements.
MeasureFn = Callable[[Sequence[int], np.random.Generator], List[ProbeMeasurement]]


@dataclass(frozen=True)
class TrackStep:
    """One iteration of the tracking loop."""

    probe_ids: List[int]
    result: SelectionResult
    training_time_us: float


class SectorTracker:
    """Runs compressive selection as a continuous tracking loop."""

    def __init__(
        self,
        selector: CompressiveSectorSelector,
        n_probes: int = 14,
        adaptive: Optional[AdaptiveProbeController] = None,
    ):
        """
        Args:
            selector: the compressive selector (owns the patterns).
            n_probes: fixed probe budget (ignored when ``adaptive``).
            adaptive: optional §7 controller that scales the budget
                with observed motion.
        """
        self.selector = selector
        self.n_probes = n_probes
        self.adaptive = adaptive
        self.history: List[TrackStep] = []

    def _budget(self) -> int:
        budget = self.adaptive.n_probes if self.adaptive is not None else self.n_probes
        return min(budget, len(self.selector.candidate_sector_ids))

    def step(self, measure: MeasureFn, rng: np.random.Generator) -> TrackStep:
        """Perform one training round and return what happened."""
        n_probes = self._budget()
        # A live sweep probes in ascending sector order.
        probe_ids = sorted(
            RandomProbeDesigner().design(
                n_probes, self.selector.candidate_sector_ids, rng
            )
        )
        measurements = measure(probe_ids, rng)
        result = self.selector.select(measurements)
        if self.adaptive is not None:
            self.adaptive.update(result.estimate)
        step = TrackStep(
            probe_ids=list(probe_ids),
            result=result,
            training_time_us=mutual_training_time_us(n_probes),
        )
        self.history.append(step)
        return step

    def run(
        self, measure: MeasureFn, n_steps: int, rng: np.random.Generator
    ) -> List[TrackStep]:
        """Run ``n_steps`` training rounds."""
        return [self.step(measure, rng) for _ in range(n_steps)]

    @property
    def selections(self) -> List[int]:
        """Sector chosen at each completed step."""
        return [step.result.sector_id for step in self.history]

    @property
    def total_training_time_us(self) -> float:
        return float(sum(step.training_time_us for step in self.history))
