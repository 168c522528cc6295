"""The :class:`SelectionPolicy` protocol — strategies as pluggable data.

Every sector-selection strategy the paper compares (compressive
selection, the exhaustive sweep, hierarchical search, the oracle)
prices its training with ``training_time_us`` and has one of two
shapes:

* **Planned** (``css``, ``full-sweep``): one probe subset per training,
  drawn for every trial at once (``probe_positions``) and evaluated a
  block of trials per call (``reset``, then ``select_batch``) — the
  runner's ``plan_trials``/``execute`` path.
* **Interactive** (``hierarchical``, ``oracle``): each round's probes
  may depend on the last round's measurements (``probes_for_round``,
  then ``select``) — the runner's ``run_interactive`` path.

Policies are constructed from a :class:`~.spec.PolicySpec` through the
registry (:mod:`.registry`), receiving a :class:`PolicyContext` with
the shared testbed and a cache for expensive intermediates (pattern
matrices, selectors) that several policy instances can share.

Determinism contract: the **only** random stream a policy may consume
is the ``rng`` passed to ``probe_positions`` or ``probes_for_round`` —
and only there.  ``select`` / ``select_batch`` must be pure functions
of the measurements and the policy's selection state.  This is what
lets the runner pre-draw all probes in scalar order and then evaluate
trials batched, sharded, or out of process without changing a single
result bit (DESIGN.md §7/§8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Protocol, runtime_checkable

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
    """A complete sector-selection strategy: the surface both shapes share.

    ``name`` is the registry name, used for timing labels and manifests.
    """

    name: str

    def reset(self) -> None:
        """Forget selection history, as if freshly constructed."""
        ...

    def training_time_us(self, probes_used: int, n_rounds: int = 1) -> float:
        """Mutual training airtime for a trial of this shape."""
        ...

    # Planned policies add:
    #
    # def probe_positions(self, n_trials, pool, rng) -> np.ndarray
    #
    # Every trial's probes as an (n_trials x M) array of positions in
    # `pool`, drawn in trial order.
    #
    # def select_batch(self, sector_ids, snr_db, rssi_dbm=None, mask=None)
    #     -> Selections (or any Sequence[SelectionResult])
    #
    # One selection per row of padded (trials x probes) arrays, rows
    # threading the selection state in order.  A raising call is a
    # failed block attempt (retried, then failed).  Optionally,
    # `select_fused_stacked(parts, around=None)` is `reset();
    # select_batch(*part)` for each part in one pass, `around(i)`
    # entered once per part after it; the runner evaluates whole chunks
    # of blocks through it, and per block through `select_batch` if it
    # raises.
    #
    # Interactive policies add:
    #
    # def probes_for_round(self, round_index, pool, rng) -> Optional[List[int]]
    # def select(self, measurements) -> SelectionResult
    #
    # The sector IDs to probe this round (None when done), and the
    # selection from the round's measurements; the last round's
    # selection is the trial's outcome.


@dataclass(frozen=True)
class PolicyOutcome:
    """Result of one interactive (round-driven) training."""

    result: SelectionResult
    probes_used: int
    n_rounds: int
    training_time_us: float
