"""Durable WAL-style run registry: the service's memory across crashes.

The service plane used to hold every submission in process memory — a
SIGKILL of ``repro-bench serve`` forgot queued and in-flight runs even
though the *runner* layer had been resumable from sha256-verified
checkpoint journals since PR 4.  :class:`RunRegistry` closes that gap:
every run state transition (``queued → running → done/failed/
cancelled/deadline``, plus ``evicted`` on history eviction) is appended
to one JSONL write-ahead log under the service state dir, fsync'd in
durable mode, and replayed on startup so a restarted service re-admits
queued runs and resumes in-flight ones from their checkpoint journals.

File format: a :class:`~repro.runtime.journal.Journal` (the mechanism
the checkpoint store uses too) with header ``{"format":
"repro-run-registry", "version": 1}`` and one event body per
transition.  A torn or corrupt tail (the expected outcome of SIGKILL
mid-append) is dropped and truncated before the next append.

Replay folds events per run id in append order: an event's extra
fields merge into the run's state, ``to`` becomes its status, and an
``evicted`` event deletes the run.  The registry keeps that fold
current on every append, so reading it is free.
:meth:`RunRegistry.compact` rewrites the log as one snapshot event per
live run — startup runs it so the WAL stays proportional to retained
runs, not to service age.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..runtime.journal import Journal

__all__ = ["RunRegistry"]

_FORMAT = "repro-run-registry"
_VERSION = 1

#: Statuses a run can transition to.  ``evicted`` is terminal-plus:
#: replay forgets the run entirely.
TRANSITIONS = (
    "queued",
    "running",
    "done",
    "failed",
    "cancelled",
    "deadline",
    "evicted",
)

#: Events kept beyond one snapshot per run before ``maybe_compact``
#: rewrites the log.
_COMPACT_SLACK = 4096


class RunRegistry:
    """Append-only, hash-verified journal of run state transitions."""

    def __init__(self, path, durable: bool = True):
        self._journal = Journal(
            path, {"format": _FORMAT, "version": _VERSION}, durable=durable
        )
        self.path = self._journal.path
        self.durable = self._journal.durable
        self.tail_dropped = self._journal.tail_dropped
        self._runs: Dict[str, Dict[str, Any]] = {}
        for event in self._journal.replayed:
            self._fold(event)
        self._events = len(self._journal.replayed)

    def _fold(self, event: Dict[str, Any]) -> None:
        """Apply one event to the per-run state."""
        run_id = event.get("run")
        to = event.get("to")
        if not isinstance(run_id, str) or to not in TRANSITIONS:
            return
        if to == "evicted":
            self._runs.pop(run_id, None)
            return
        state = self._runs.setdefault(run_id, {"id": run_id})
        for key, value in event.items():
            if key not in ("run", "to"):
                state[key] = value
        state["status"] = to

    # -- recording -------------------------------------------------------

    def record(self, run_id: str, to: str, **fields: Any) -> None:
        """Journal one transition; durable before the caller proceeds.

        ``fields`` merge into the run's replayed state — the first
        ``queued`` event carries the whole submission (spec JSON,
        digest, checkpoint path, deadline), later events only deltas.
        """
        if to not in TRANSITIONS:
            raise ValueError(f"unknown transition '{to}'")
        event = {"run": str(run_id), "to": to, **fields}
        self._journal.append([event])
        self._fold(event)
        self._events += 1

    # -- replay ----------------------------------------------------------

    @property
    def events(self) -> int:
        """Events currently held (post-truncation), excluding the header."""
        return self._events

    def replay(self) -> Dict[str, Dict[str, Any]]:
        """The log folded into per-run state, in append order.

        Returns ``run id → state`` where state holds every field any
        event carried plus ``status`` (the last transition).  Evicted
        runs are absent.  Replaying twice gives the same answer —
        pinned after a SIGKILL and restart in ``tests/test_lifecycle.py``.
        """
        return {run_id: dict(state) for run_id, state in self._runs.items()}

    # -- compaction ------------------------------------------------------

    def compact(self) -> int:
        """Rewrite the log as one snapshot event per live run.

        Returns the number of events dropped.  The rewrite is atomic, so
        a crash mid-compaction leaves either the old log or the new one,
        never a torn hybrid.
        """
        snapshots: List[Dict[str, Any]] = []
        for run_id, state in self._runs.items():
            event = {
                key: value
                for key, value in state.items()
                if key not in ("id", "status")
            }
            event["run"] = run_id
            event["to"] = state.get("status", "queued")
            snapshots.append(event)
        dropped = self._events - len(snapshots)
        if dropped <= 0:
            return 0
        self._journal.rewrite(snapshots)
        self._events = len(snapshots)
        return dropped

    def maybe_compact(self) -> int:
        """Compact when the log has grown well past one event per run."""
        if self._events > len(self._runs) + _COMPACT_SLACK:
            return self.compact()
        return 0

    def close(self) -> None:
        self._journal.close()
