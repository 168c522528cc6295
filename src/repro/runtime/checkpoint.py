"""Digest-keyed checkpoint journal: restartable scenario campaigns.

A :class:`CheckpointStore` journals every completed trial block of a
run to an append-only JSONL file keyed by the run's identity — the
scenario spec's SHA-256 digest plus its seed.  Kill a ``jobs=4``
campaign halfway and ``repro-bench run --resume`` restarts exactly
where it died: blocks already journaled are restored instead of
re-executed, and because block evaluation is pure (randomness is
consumed only during planning), restored results are bit-identical to
recomputed ones.

File format: a :class:`~.journal.Journal` with header ``{"format":
"repro-checkpoint", "version": 4, "spec_digest": ..., "seed": ...}`` and
one entry per block, body ``{"key": "<policy-digest>:<call>:<block>",
"payload": <base64 of the block's selection rows>}``; the entry digest
covers the key too.  A payload is the raw bytes of the block's
:class:`~repro.core.selector.Selections` rows — the fixed,
little-endian :data:`~repro.core.selector.SELECTION_DTYPE`, 50 bytes a
row — so reading one back is a ``np.frombuffer`` and never runs code
from the file.  A header that does not match the resuming run is
stale and the file starts fresh, so results never leak across specs,
seeds or format versions (v3 journals, which pickled their results,
are recomputed).  ``call`` is the ordinal of the supervised
``execute()`` call within the run, so a scenario that evaluates the
same policy spec twice (fig7 runs one CSS spec per environment)
journals each evaluation under its own key.  A torn or corrupt tail
(the likely outcome of a hard kill) is dropped and recomputed, never
served.

The runner journals a whole chunk of blocks per :meth:`CheckpointStore.put`
(a group commit: one flush, and one fsync when durable), so a crash
loses at most the one unsynced chunk, which resume recomputes
bit-identically.

Opening an existing journal of the *same* spec+seed with
``resume=False`` raises :class:`FileExistsError` instead of truncating
it: a journal the caller could have resumed is never destroyed by a
forgotten ``--resume`` flag.  Journals of a different spec, seed or
format version are overwritten freely.
"""

from __future__ import annotations

import base64
import hashlib
import logging
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from .. import obs as _obs
from ..core.selector import SelectionResult, Selections
from .journal import Journal, read_header

__all__ = [
    "CheckpointStore",
    "default_checkpoint_path",
    "journal_header",
    "sweep_orphaned_journals",
]

_LOGGER = logging.getLogger(__name__)

_FORMAT = "repro-checkpoint"
_VERSION = 4

PathLike = Union[str, os.PathLike]


def default_checkpoint_path(spec_digest: str, seed: int) -> Path:
    """Where a run of this spec+seed journals by convention."""
    from ..measurement.artifacts import cache_dir

    return cache_dir() / "checkpoints" / f"{spec_digest[:32]}-{seed}.jsonl"


def journal_header(path: PathLike) -> Optional[Dict[str, Any]]:
    """The header of a checkpoint journal, or None.

    Returns None for missing, unreadable or non-checkpoint files (any
    format version is accepted — GC only needs to know *whether* a file
    is one of ours, not whether it is resumable).
    """
    header = read_header(path)
    if header is not None and header.get("format") == _FORMAT:
        return header
    return None


def sweep_orphaned_journals(directory: PathLike, referenced: Iterable[str]) -> List[Path]:
    """Delete the checkpoint journals in ``directory`` no run references.

    ``referenced`` holds the journal paths (as strings) of retained
    runs.  Files that are not checkpoint journals — the run registry,
    anything foreign — are left alone.  Returns the deleted paths.
    """
    keep = set(referenced)
    swept: List[Path] = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        if str(path) in keep or journal_header(path) is None:
            continue
        try:
            path.unlink()
        except OSError:  # pragma: no cover - a concurrent cleanup won
            continue
        swept.append(path)
    return swept


class CheckpointStore:
    """Append-only journal of completed block results for one run."""

    def __init__(
        self,
        path: PathLike,
        spec_digest: str,
        seed: int,
        resume: bool = True,
        durable: bool = False,
    ):
        self.path = Path(path)
        # ``durable=True`` fsyncs the journal after the header and after
        # every ``put`` (one group commit per chunk of blocks).
        # ``flush()`` alone only reaches the OS page cache; a power loss
        # can tear entries a long-lived service already acknowledged as
        # journaled.  CLI runs keep the cheap flush-only default (a torn
        # tail degrades to recomputation via the corrupt-tail drop); the
        # service path opts in.
        self.durable = bool(durable)
        header = {
            "format": _FORMAT,
            "version": _VERSION,
            "spec_digest": str(spec_digest),
            "seed": int(seed),
        }
        if not resume and read_header(self.path) == header:
            raise FileExistsError(
                f"checkpoint {self.path} already journals this spec+seed; "
                f"pass --resume to continue it, or delete the file to "
                f"start the campaign over"
            )
        self._journal = Journal(self.path, header, durable=self.durable)
        self._entries: Dict[str, str] = {
            body["key"]: body["payload"] for body in self._journal.replayed
        }
        self.restored = len(self._entries)

    # -- identity -------------------------------------------------------

    @staticmethod
    def call_prefix(policy_key: str, call_index: int) -> str:
        """The journal-key prefix every block of one call shares.

        ``call_index`` is the ordinal of the supervised ``execute()``
        call within the run — without it, two evaluations of an
        identical policy spec (same digest, same block indices) would
        collide and ``get`` would serve the first evaluation's results
        as the second's.  The policy key is hashed here, once per call.
        """
        policy_digest = hashlib.sha256(policy_key.encode()).hexdigest()[:16]
        return f"{policy_digest}:{int(call_index)}:"

    @classmethod
    def entry_key(cls, policy_key: str, call_index: int, block_index: int) -> str:
        """Journal key of one block."""
        return f"{cls.call_prefix(policy_key, call_index)}{int(block_index)}"

    # -- journal I/O ----------------------------------------------------

    def get(
        self, policy_key: str, call_index: int, block_index: int
    ) -> Optional[Selections]:
        """The journaled selections of one block, or None when absent.

        The caller checks the row count against its block: the entry
        key does not carry it.
        """
        return self._lookup(
            self.call_prefix(policy_key, call_index), int(block_index)
        )

    def get_call(
        self, policy_key: str, call_index: int, n_blocks: int
    ) -> List[Optional[Selections]]:
        """:meth:`get` of blocks ``0 .. n_blocks - 1`` of one call.

        A call journals only after it opened, and its keys carry its
        ordinal, so only restored entries can answer it: with none
        restored every block misses, counted in one step.
        """
        if not self.restored:
            if n_blocks:
                _obs.inc("checkpoint_misses_total", n_blocks)
            return [None] * n_blocks
        prefix = self.call_prefix(policy_key, call_index)
        return [self._lookup(prefix, index) for index in range(n_blocks)]

    def _lookup(self, prefix: str, block_index: int) -> Optional[Selections]:
        payload = self._entries.get(f"{prefix}{block_index}")
        if payload is None:
            _obs.inc("checkpoint_misses_total")
            return None
        try:
            results = Selections.from_bytes(base64.b64decode(payload, validate=True))
        except ValueError as error:  # digest passed, but not whole base64 rows
            _LOGGER.warning(
                "checkpoint %s: undecodable entry for block %d (%s); recomputing",
                self.path,
                block_index,
                error,
            )
            _obs.inc("checkpoint_misses_total")
            return None
        _obs.inc("checkpoint_entries_served_total")
        return results

    def put(
        self,
        policy_key: str,
        call_index: int,
        block_index: Union[int, Sequence[int]],
        results: Union[Sequence[SelectionResult], Sequence[Sequence[SelectionResult]]],
    ) -> None:
        """Journal completed blocks with one flush (one fsync when durable).

        ``block_index`` is one block's index and ``results`` its
        selections, or a sequence of indices and the matching sequence
        of per-block selections (:class:`~repro.core.selector.Selections`,
        or any sequence of :class:`~repro.core.selector.SelectionResult`)
        — a *group commit*: every entry is written,
        then the journal is flushed and synced once.  Each entry still
        carries its own digest, so a crash before the sync tears at
        most this group, and resume recomputes it.  Blocks already
        journaled are skipped.
        """
        if not isinstance(block_index, (list, tuple)):
            block_index, results = [block_index], [results]
        written: Dict[str, str] = {}
        prefix = self.call_prefix(policy_key, call_index)
        for index, block_results in zip(block_index, results):
            key = f"{prefix}{int(index)}"
            if key not in self._entries and key not in written:
                rows = Selections.from_results(block_results).rows
                written[key] = base64.b64encode(rows.tobytes()).decode("ascii")
        if self._journal.append(
            {"key": key, "payload": payload} for key, payload in written.items()
        ):
            self._entries.update(written)
            _obs.inc("checkpoint_entries_journaled_total", len(written))

    def __len__(self) -> int:
        return len(self._entries)

    def close(self) -> None:
        self._journal.close()
