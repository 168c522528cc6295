"""SelectionPolicy adapters for the baseline strategies.

Registers ``"hierarchical"``, ``"oracle"`` and ``"random-beams"`` so
scenario specs can pit the baselines against CSS through the same
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

from ..core.compressive import CompressiveSectorSelector
from ..core.measurements import ProbeMeasurement
from ..core.probes import RandomProbeDesigner
from ..core.selector import SelectionResult, Selections
from ..mac.timing import multi_round_training_time_us
from ..runtime.policy import PolicyContext
from ..runtime.registry import register_policy
from .hierarchical import HierarchicalSearch
from .oracle import OracleSelector
from .random_beams import random_beam_codebook, theoretical_pattern_table

__all__ = ["HierarchicalPolicy", "OraclePolicy", "RandomBeamPolicy"]


@register_policy("hierarchical")
class HierarchicalPolicy:
    """Two-level beam search as a multi-round runtime policy."""

    multi_round = True

    def __init__(
        self,
        context: PolicyContext,
        n_groups: int = 6,
        pattern_table=None,
    ):
        table = (
            pattern_table
            if pattern_table is not None
            else context.testbed.pattern_table
        )
        key = ("hierarchical-groups", id(table), int(n_groups))
        search = context.cache.get(key)
        if search is None:
            search = HierarchicalSearch(table, n_groups=n_groups)
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

    multi_round = False
    needs_truth = True

    def __init__(
        self, context: PolicyContext, sector_ids: Optional[Sequence[int]] = None
    ):
        ids = (
            list(sector_ids)
            if sector_ids is not None
            else list(context.testbed.tx_sector_ids)
        )
        self.name = "oracle"
        self.selector = OracleSelector(ids)
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


@register_policy("random-beams")
class RandomBeamPolicy:
    """Pseudo-random probing beams (Rasekh et al.) as a runtime policy.

    Probes come from the policy's *own* random-beam codebook (exposed
    as :attr:`codebook` / :attr:`probe_pool`), not the testbed's stock
    sectors, and are correlated against their theoretical patterns —
    a designer of this scheme has nothing else.  Scenarios that see
    a ``probe_pool`` attribute must simulate observations for those
    sector IDs instead of replaying stock-sector sweeps.
    """

    multi_round = False

    def __init__(
        self,
        context: PolicyContext,
        n_probes: int = 14,
        n_beams: int = 29,
        codebook_seed: int = 25,
    ):
        testbed = context.testbed
        key = ("random-beams", int(n_beams), int(codebook_seed))
        cached = context.cache.get(key)
        if cached is None:
            codebook = random_beam_codebook(
                testbed.dut_antenna,
                n_beams,
                np.random.default_rng(codebook_seed),
            )
            table = theoretical_pattern_table(
                codebook, testbed.pattern_table.grid, antenna=testbed.dut_antenna
            )
            cached = (codebook, CompressiveSectorSelector(table))
            context.cache[key] = cached
        self.codebook, self.selector = cached
        self.name = "random-beams"
        self.n_probes = int(n_probes)
        self.probe_pool = list(self.codebook.tx_sector_ids)

    def reset(self) -> None:
        self.selector.reset()

    def probes_for_round(
        self, round_index: int, pool: Sequence[int], rng: np.random.Generator
    ) -> Optional[List[int]]:
        if round_index > 0:
            return None
        return RandomProbeDesigner().design(self.n_probes, self.probe_pool, rng)

    def select(self, measurements: Sequence[ProbeMeasurement]) -> SelectionResult:
        return self.selector.select(measurements)

    def select_batch(
        self,
        sector_ids: np.ndarray,
        snr_db: np.ndarray,
        rssi_dbm: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ) -> Selections:
        return self.selector.select_batch(
            sector_ids, snr_db=snr_db, rssi_dbm=rssi_dbm, mask=mask
        )

    def training_time_us(self, probes_used: int, n_rounds: int = 1) -> float:
        return multi_round_training_time_us(probes_used, n_rounds)
