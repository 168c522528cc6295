"""SelectionPolicy adapters for the baseline strategies.

Registers ``"hierarchical"`` and ``"oracle"`` so scenario specs can
pit the baselines against CSS through the same
:class:`~repro.runtime.runner.ScenarioRunner` engine.

The hierarchical adapter unrolls :meth:`HierarchicalSearch.run` into
the round-by-round protocol: ``run_interactive`` drives the same two
measure calls in the same order, so its :class:`PolicyOutcome` matches
the legacy :class:`HierarchicalOutcome` field for field (probes used,
round count, training time).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.measurements import ProbeMeasurement
from ..core.selector import SelectionResult
from ..mac.timing import multi_round_training_time_us
from ..runtime.policy import PolicyContext
from ..runtime.registry import register_policy
from .hierarchical import HierarchicalSearch
from .oracle import OracleSelector

__all__ = ["HierarchicalPolicy", "OraclePolicy"]


@register_policy("hierarchical")
class HierarchicalPolicy:
    """Two-level beam search as a multi-round runtime policy."""

    def __init__(self, context: PolicyContext):
        table = context.testbed.pattern_table
        key = ("hierarchical-groups", id(table))
        search = context.cache.get(key)
        if search is None:
            search = HierarchicalSearch(table)
            context.cache[key] = search
        self.name = "hierarchical"
        # Only the immutable clustering is shared; fallback state is
        # per-policy so concurrent adapters cannot cross-talk.
        self.groups = search.groups
        self._initial_selection = search.initial_selection
        self._last_selection = self._initial_selection
        self._first_round: Optional[List[ProbeMeasurement]] = None
        self._members: Optional[List[int]] = None
        self._finished = True

    def reset(self) -> None:
        self._last_selection = self._initial_selection
        self._first_round = None
        self._members = None
        self._finished = True

    def probes_for_round(
        self, round_index: int, pool: Sequence[int], rng: np.random.Generator
    ) -> Optional[List[int]]:
        if round_index == 0:
            self._first_round = None
            self._members = None
            self._finished = False
            return list(self.groups)
        if round_index == 1 and not self._finished and self._members is not None:
            return list(self._members)
        return None

    def select(self, measurements: Sequence[ProbeMeasurement]) -> SelectionResult:
        if self._members is None and not self._finished:
            # Round 0: pick the winning representative, or bail out to
            # the fallback sector when nothing decoded (the legacy
            # one-round outcome — round 1 is then skipped).
            self._first_round = list(measurements)
            if not self._first_round:
                self._finished = True
                return SelectionResult(
                    sector_id=self._last_selection, fallback=True
                )
            best = max(self._first_round, key=lambda m: m.snr_db)
            self._members = list(self.groups[best.sector_id])
            return SelectionResult(sector_id=best.sector_id)
        # Round 1: best of the winning group, first round as backstop.
        pool = list(measurements) or list(self._first_round or [])
        best = max(pool, key=lambda m: m.snr_db)
        self._last_selection = best.sector_id
        self._finished = True
        return SelectionResult(sector_id=best.sector_id)

    def training_time_us(self, probes_used: int, n_rounds: int = 1) -> float:
        return multi_round_training_time_us(probes_used, n_rounds)


@register_policy("oracle")
class OraclePolicy:
    """Ground-truth argmax selection (zero probes, zero airtime).

    Scenarios must call :meth:`set_truth` with the sweep's true SNR
    vector before each selection; the ``needs_truth`` attribute is how
    they discover that requirement.
    """

    needs_truth = True

    def __init__(self, context: PolicyContext):
        self.name = "oracle"
        self.selector = OracleSelector(list(context.testbed.tx_sector_ids))
        self._truth: Optional[np.ndarray] = None

    def set_truth(self, true_snr_db: np.ndarray) -> None:
        self._truth = np.asarray(true_snr_db, dtype=float)

    def reset(self) -> None:
        self._truth = None

    def probes_for_round(
        self, round_index: int, pool: Sequence[int], rng: np.random.Generator
    ) -> Optional[List[int]]:
        return [] if round_index == 0 else None

    def select(self, measurements: Sequence[ProbeMeasurement]) -> SelectionResult:
        if self._truth is None:
            raise ValueError("oracle policy needs set_truth(...) before select")
        return self.selector.select_from_truth(self._truth)

    def training_time_us(self, probes_used: int, n_rounds: int = 1) -> float:
        return 0.0
