"""The :class:`SelectionPolicy` protocol — strategies as pluggable data.

Every sector-selection strategy the paper compares (compressive
selection, the exhaustive sweep, hierarchical search, random probing
beams, the oracle) answers the same three questions per training:

1. *What do you want to probe this round?* — ``probes_for_round``
2. *Given those measurements, which sector?* — ``select``
3. *What did the training cost in airtime?* — ``training_time_us``

A policy that additionally implements ``select_batch`` is evaluated a
whole recording per call; the runner calls ``select`` per row only for
policies without one.  Policies
are constructed from a :class:`~.spec.PolicySpec` through the registry
(:mod:`.registry`), receiving a :class:`PolicyContext` with the shared
testbed and a cache for expensive intermediates (pattern matrices,
selectors) that several policy instances can share.

Determinism contract: the **only** random stream a policy may consume
is the ``rng`` passed to ``probes_for_round`` — and only there.
``select`` / ``select_batch`` must be pure functions of the
measurements and the policy's selection state.  This is what lets the
runner pre-draw all probes in scalar order and then evaluate trials
batched, sharded, or out of process without changing a single result
bit (DESIGN.md §7/§8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.measurements import ProbeMeasurement
from ..core.selector import SelectionResult

__all__ = ["PolicyContext", "SelectionPolicy", "PolicyOutcome"]


@dataclass
class PolicyContext:
    """What a policy factory gets to build from.

    Attributes:
        testbed: the shared simulated hardware
            (:class:`repro.experiments.common.Testbed`).
        cache: a dict policies may use to share expensive intermediates
            (e.g. a ``CompressiveSectorSelector`` keyed by its config
            — selectors sample two full grid matrices on construction,
            and policies differing only in probe count can share one).
    """

    testbed: Any
    cache: Dict[Any, Any] = field(default_factory=dict)


@runtime_checkable
class SelectionPolicy(Protocol):
    """A complete sector-selection strategy.

    Attributes:
        name: registry name, used for timing labels and manifests.
        multi_round: True when later rounds depend on earlier
            measurements (e.g. hierarchical search).  Multi-round
            policies run through the interactive driver; single-round
            ones are eligible for offline planning + batching.
    """

    name: str
    multi_round: bool

    def reset(self) -> None:
        """Forget selection history, as if freshly constructed."""
        ...

    def probes_for_round(
        self, round_index: int, pool: Sequence[int], rng: np.random.Generator
    ) -> Optional[List[int]]:
        """Sector IDs to probe in this round, or None when done.

        This is the only place a policy may draw randomness, and it
        must consume the stream identically regardless of how the
        resulting trials are later evaluated.
        """
        ...

    def select(self, measurements: Sequence[ProbeMeasurement]) -> SelectionResult:
        """Digest one round's measurements into a selection.

        For multi-round policies this is called once per round; the
        last round's result is the trial's outcome.
        """
        ...

    def training_time_us(self, probes_used: int, n_rounds: int = 1) -> float:
        """Mutual training airtime for a trial of this shape."""
        ...

    # Optional (not part of the Protocol's required surface):
    #
    # def select_batch(self, sector_ids, snr_db, rssi_dbm=None, mask=None)
    #     -> Selections (or any Sequence[SelectionResult])
    #
    # `select` over padded (trials x probes) arrays, rows threading the
    # selection state in order: element-for-element the results of
    # calling `select` on each row's measurements.  When both exist,
    # the runner calls only `select_batch`, and packs a plain sequence
    # with `Selections.from_results`; a raising call is a failed block
    # attempt (retried, then failed), never silently redone through
    # `select`.
    #
    # def select_fused_stacked(self, parts, around=None) -> Selections
    #
    # `reset(); select_batch(*part)` for each (ids, snr, rssi, mask)
    # part in one pass, every part's rows in order, `around(i)` entered
    # once per part after the pass.  When it exists, the runner
    # evaluates whole chunks of per-recording blocks through it; if it
    # raises, the chunk is re-run per block through `select_batch`.


@dataclass(frozen=True)
class PolicyOutcome:
    """Result of one interactive (round-driven) training."""

    result: SelectionResult
    probes_used: int
    n_rounds: int
    training_time_us: float
