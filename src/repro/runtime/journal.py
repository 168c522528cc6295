"""Hash-verified JSONL journal: the one write-ahead-log mechanism.

The checkpoint store (:mod:`.checkpoint`) and the service's run
registry (:mod:`repro.service.registry`) both journal through this
module; neither parses, verifies, truncates or syncs a file itself.

Line 1 is the caller's header (``json.dumps(header, sort_keys=True)``);
a file with any other header is stale and started fresh.  Every other
line is ``{"event": <body>, "sha256": <hex>}``: the body is a JSON
object and the digest covers its canonical JSON (sorted keys, no
spaces).  Replay reads bytes and stops at the first line that is
unterminated, not UTF-8, not JSON, or fails its digest; that tail (a
hard kill tears only the tail) is truncated before anything is
appended, so corruption degrades to a shorter journal, never to a
wrong entry.

:meth:`Journal.append` is one write and one flush, plus one
``os.fsync`` when durable.  :meth:`Journal.rewrite` swaps in a synced
tmp file with ``os.replace`` and, when durable, fsyncs the directory so
the rename survives a power loss too.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["Journal", "read_header"]

_LOGGER = logging.getLogger(__name__)


def _digest(body: Dict[str, Any]) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _frame(body: Dict[str, Any]) -> bytes:
    line = json.dumps({"event": body, "sha256": _digest(body)}, sort_keys=True)
    return line.encode() + b"\n"


def _parse(line: bytes) -> Optional[Dict[str, Any]]:
    """The JSON object on one line, or None."""
    try:
        value = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return value if isinstance(value, dict) else None


def _verified(line: bytes) -> Optional[Dict[str, Any]]:
    """The body of one entry line, or None when it fails any check."""
    entry = _parse(line) or {}
    body = entry.get("event")
    if isinstance(body, dict) and entry.get("sha256") == _digest(body):
        return body
    return None


def read_header(path) -> Optional[Dict[str, Any]]:
    """The header of the journal at ``path``; None for a missing or
    unreadable file or a first line that is not a JSON object."""
    try:
        with open(path, "rb") as handle:
            return _parse(handle.readline())
    except OSError:
        return None


class Journal:
    """An open journal: replayed on open, appended to, rewritten whole.

    Opening a journal that carries ``header`` replays its verified
    bodies into :attr:`replayed`, in order, and truncates a dropped
    tail (:attr:`tail_dropped`); any other file at ``path`` is replaced
    by a journal holding only the header.
    """

    def __init__(self, path, header: Dict[str, Any], durable: bool = False):
        self.path = Path(path)
        self.header = dict(header)
        self.durable = bool(durable)
        self.replayed: List[Dict[str, Any]] = []
        self.tail_dropped = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        end = self._replay()
        if end is None:
            self._handle = self.path.open("wb")
            self._handle.write(self._header_line())
            self._sync()
            return
        self._handle = self.path.open("ab")
        if self.tail_dropped:
            self._handle.truncate(end)
            self._sync()

    def _header_line(self) -> bytes:
        return json.dumps(self.header, sort_keys=True).encode() + b"\n"

    def _replay(self) -> Optional[int]:
        """Collect the intact bodies; returns the end offset of the last
        intact line, or None when the file is absent or not this journal."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as error:
            _LOGGER.warning("unreadable journal %s (%s); starting fresh", self.path, error)
            return None
        end = data.find(b"\n") + 1
        if end == 0 or _parse(data[:end]) != self.header:
            if data:
                _LOGGER.warning("journal %s has another header; starting fresh", self.path)
            return None
        while end < len(data):
            stop = data.find(b"\n", end) + 1
            body = _verified(data[end:stop]) if stop else None
            if body is None:
                _LOGGER.warning(
                    "journal %s: dropping the torn or corrupt tail from line %d",
                    self.path,
                    len(self.replayed) + 2,
                )
                self.tail_dropped = True
                break
            self.replayed.append(body)
            end = stop
        return end

    def _sync(self) -> None:
        self._handle.flush()
        if self.durable:
            os.fsync(self._handle.fileno())

    def append(self, bodies: Iterable[Dict[str, Any]]) -> int:
        """Journal ``bodies`` with one write and one sync; returns the
        count.  A crash before the sync tears at most these entries."""
        lines = [_frame(body) for body in bodies]
        if lines:
            self._handle.write(b"".join(lines))
            self._sync()
        return len(lines)

    def rewrite(self, bodies: Iterable[Dict[str, Any]]) -> None:
        """Atomically replace the journal with the header plus ``bodies``:
        a crash leaves the old journal or the new one, never a mix."""
        tmp = self.path.with_suffix(".tmp")
        with tmp.open("wb") as handle:
            handle.write(self._header_line() + b"".join(_frame(body) for body in bodies))
            handle.flush()
            if self.durable:
                os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._handle.close()
        self._handle = self.path.open("ab")
        if self.durable:
            directory = os.open(self.path.parent, os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
