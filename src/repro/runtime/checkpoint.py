"""Digest-keyed checkpoint journal: restartable scenario campaigns.

A :class:`CheckpointStore` journals every completed trial block of a
run to an append-only JSONL file keyed by the run's identity — the
scenario spec's SHA-256 digest plus its seed.  Kill a ``jobs=4``
campaign halfway and ``repro-bench run --resume`` restarts exactly
where it died: blocks already journaled are restored instead of
re-executed, and because block evaluation is pure (randomness is
consumed only during planning), restored results are bit-identical to
recomputed ones.

File format (one JSON object per line):

* line 1 — header: ``{"format": "repro-checkpoint", "version": 2,
  "spec_digest": ..., "seed": ...}``.  A header that does not match
  the resuming run is *stale* and the file is started fresh — a
  checkpoint can never leak results across specs or seeds.
* following lines — entries: ``{"key": "<policy-digest>:<call>:<block>",
  "sha256": ..., "payload": <base64 pickle of the block's results>}``.
  ``call`` is the ordinal of the supervised ``execute()`` call within
  the run, so a scenario that evaluates the *same* policy spec more
  than once (fig7 runs one CSS spec per environment) journals each
  evaluation under its own key instead of silently serving one
  environment's results as the other's.  Each payload carries its own
  digest; a corrupted or truncated tail (the likely outcome of a hard
  kill) is dropped with a warning and the journal continues from the
  last intact entry — corruption degrades to recomputation, never to
  wrong data.

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
import json
import logging
import os
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from .. import obs as _obs

__all__ = ["CheckpointStore", "default_checkpoint_path", "journal_header"]

_LOGGER = logging.getLogger(__name__)

_FORMAT = "repro-checkpoint"
_VERSION = 2


def default_checkpoint_path(spec_digest: str, seed: int) -> Path:
    """Where a run of this spec+seed journals by convention."""
    from ..measurement.artifacts import cache_dir

    return cache_dir() / "checkpoints" / f"{spec_digest[:32]}-{seed}.jsonl"


def journal_header(path) -> Optional[Dict[str, Any]]:
    """The parsed header of a checkpoint journal, or None.

    Returns None for missing, unreadable or non-checkpoint files (any
    format version is accepted — GC only needs to know *whether* a file
    is one of ours, not whether it is resumable).
    """
    path = Path(path)
    if not path.is_file():
        return None
    try:
        with path.open("r", encoding="utf-8") as handle:
            first = handle.readline()
        header = json.loads(first)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if isinstance(header, dict) and header.get("format") == _FORMAT:
        return header
    return None


class CheckpointStore:
    """Append-only journal of completed block results for one run."""

    def __init__(
        self,
        path,
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
        self._header = {
            "format": _FORMAT,
            "version": _VERSION,
            "spec_digest": str(spec_digest),
            "seed": int(seed),
        }
        self._entries: Dict[str, str] = {}
        self.restored = 0
        #: Byte offset of the end of the last intact journal line; set
        #: by ``_load`` so a dropped tail can be physically removed.
        self._valid_end = 0
        self._tail_dropped = False
        loaded = resume and self._load()
        if not resume and self._matching_journal_exists():
            raise FileExistsError(
                f"checkpoint {self.path} already journals this spec+seed; "
                f"pass --resume to continue it, or delete the file to "
                f"start the campaign over"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if loaded:
            if self._tail_dropped:
                # Appending after a torn line would glue the next entry
                # onto the fragment and corrupt it too — cut the file
                # back to the last intact entry before continuing.
                with self.path.open("rb+") as repair:
                    repair.truncate(self._valid_end)
                    if self.durable:
                        os.fsync(repair.fileno())
            self._handle = self.path.open("a", encoding="utf-8")
        else:
            self._handle = self.path.open("w", encoding="utf-8")
            self._handle.write(json.dumps(self._header, sort_keys=True) + "\n")
            self._sync()
        self.restored = len(self._entries)

    def _sync(self) -> None:
        """Flush the journal; in durable mode, force it to stable storage."""
        self._handle.flush()
        if self.durable:
            os.fsync(self._handle.fileno())

    # -- identity -------------------------------------------------------

    @staticmethod
    def entry_key(policy_key: str, call_index: int, block_index: int) -> str:
        """Journal key of one block.

        ``call_index`` is the ordinal of the supervised ``execute()``
        call within the run — without it, two evaluations of an
        identical policy spec (same digest, same block indices) would
        collide and ``get`` would serve the first evaluation's results
        as the second's.
        """
        policy_digest = hashlib.sha256(policy_key.encode()).hexdigest()[:16]
        return f"{policy_digest}:{int(call_index)}:{int(block_index)}"

    # -- journal I/O ----------------------------------------------------

    def _matching_journal_exists(self) -> bool:
        """True when ``path`` already journals this exact spec+seed."""
        if not self.path.is_file():
            return False
        try:
            with self.path.open("r", encoding="utf-8") as handle:
                first = handle.readline()
            return json.loads(first) == self._header
        except (OSError, json.JSONDecodeError):
            return False

    def _load(self) -> bool:
        """Read an existing journal; False means start fresh."""
        if not self.path.is_file():
            return False
        try:
            data = self.path.read_text(encoding="utf-8")
            lines = data.splitlines()
        except (OSError, UnicodeDecodeError) as error:
            _LOGGER.warning("unreadable checkpoint %s (%s); starting fresh", self.path, error)
            return False
        if not lines:
            return False
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            header = None
        if header != self._header:
            _LOGGER.warning(
                "checkpoint %s belongs to a different spec/seed; starting fresh",
                self.path,
            )
            return False
        if len(lines) == 1 and not data.endswith("\n"):
            return False  # torn header line alone — start fresh
        self._valid_end = len(lines[0].encode("utf-8")) + 1
        size = len(data.encode("utf-8"))
        for number, line in enumerate(lines[1:], start=2):
            if self._valid_end + len(line.encode("utf-8")) + 1 > size:
                # Torn exactly at the line break: the text may parse,
                # but an unterminated line must not be appended after.
                _LOGGER.warning(
                    "checkpoint %s: line %d is not newline-terminated; "
                    "dropping tail",
                    self.path,
                    number,
                )
                self._tail_dropped = True
                break
            try:
                entry = json.loads(line)
                key = entry["key"]
                payload = entry["payload"]
                digest = entry["sha256"]
            except (json.JSONDecodeError, KeyError, TypeError):
                _LOGGER.warning(
                    "checkpoint %s: dropping corrupt journal tail from line %d",
                    self.path,
                    number,
                )
                self._tail_dropped = True
                break
            if hashlib.sha256(payload.encode()).hexdigest() != digest:
                _LOGGER.warning(
                    "checkpoint %s: entry at line %d fails its digest; dropping tail",
                    self.path,
                    number,
                )
                self._tail_dropped = True
                break
            self._entries[key] = payload
            self._valid_end += len(line.encode("utf-8")) + 1
        return True

    def get(
        self, policy_key: str, call_index: int, block_index: int
    ) -> Optional[Sequence[Any]]:
        """The journaled results of one block, or None when absent."""
        payload = self._entries.get(self.entry_key(policy_key, call_index, block_index))
        if payload is None:
            _obs.inc("checkpoint_misses_total")
            return None
        try:
            results = pickle.loads(base64.b64decode(payload))
        except Exception as error:  # digest passed but unpickle failed
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
        results: Sequence[Any],
    ) -> None:
        """Journal completed blocks with one flush (one fsync when durable).

        ``block_index`` is one block's index and ``results`` its
        results, or a sequence of indices and the matching sequence of
        per-block results — a *group commit*: every entry is written,
        then the journal is flushed and synced once.  Each entry still
        carries its own digest, so a crash before the sync tears at
        most this group, and resume recomputes it.  Blocks already
        journaled are skipped.
        """
        if not isinstance(block_index, (list, tuple)):
            block_index, results = [block_index], [results]
        written: Dict[str, str] = {}
        lines: List[str] = []
        for index, block_results in zip(block_index, results):
            key = self.entry_key(policy_key, call_index, index)
            if key in self._entries or key in written:
                continue
            payload = base64.b64encode(pickle.dumps(block_results)).decode("ascii")
            entry = {
                "key": key,
                "sha256": hashlib.sha256(payload.encode()).hexdigest(),
                "payload": payload,
            }
            lines.append(json.dumps(entry, sort_keys=True) + "\n")
            written[key] = payload
        if not lines:
            return
        self._handle.write("".join(lines))
        self._sync()
        self._entries.update(written)
        _obs.inc("checkpoint_entries_journaled_total", len(lines))

    def __len__(self) -> int:
        return len(self._entries)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
