"""Span-based tracing with a process-local buffer and a JSONL sink.

A :class:`TraceRecorder` accumulates *events* — completed spans and
point events — as plain dicts, ready for JSONL.  Spans nest through an
explicit stack: entering ``span("execute.block", policy=...)`` assigns
an id, makes it the parent of everything recorded until exit, and on
exit appends one record carrying the span's monotonic start offset and
duration.

Cross-process discipline: every process records into its *own*
recorder (workers ship their buffers back piggybacked on block
results), and the run's recorder absorbs them with
:meth:`TraceRecorder.absorb` — ids are rewritten under a caller-chosen
prefix and the worker's root spans are re-parented onto the span that
dispatched them.  Callers absorb in a deterministic order (keyed by
policy/call/block like the checkpoint journal, never by wall clock),
so two runs of the same spec produce the same event sequence up to
timing values.  ``start_s`` offsets are relative to each *recorder's*
epoch and are therefore only comparable within one process; analysis
across processes uses durations and the merge order.

Record schema (one JSON object per line in the sink):

* span —  ``{"type": "span", "name": ..., "id": ..., "parent": ...,
  "start_s": ..., "duration_s": ..., "attrs": {...}}``
* event — ``{"type": "event", "name": ..., "id": ..., "parent": ...,
  "start_s": ..., "attrs": {...}}``

The file sink adds a header line ``{"format": "repro-trace",
"version": 1, ...run identity...}`` so ``repro-bench report`` can
refuse foreign files.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "NULL_SPAN",
    "Span",
    "TraceRecorder",
    "RotatingTraceWriter",
    "write_trace_jsonl",
    "read_trace_jsonl",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


class _NullSpan:
    """The shared do-nothing span handed out when tracing is off."""

    __slots__ = ()
    id: Optional[str] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


#: One reusable instance — the disabled path allocates nothing.
NULL_SPAN = _NullSpan()


class Span:
    """A live span: context manager recording itself on exit."""

    __slots__ = ("_recorder", "name", "attrs", "id", "parent", "_start")

    def __init__(self, recorder: "TraceRecorder", name: str, attrs: Dict[str, Any]):
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self.id: Optional[str] = None
        self.parent: Optional[str] = None
        self._start = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach further attributes before the span closes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.id, self.parent = self._recorder._open()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._recorder._close(self, duration)
        return None


class TraceRecorder:
    """Process-local buffer of completed spans and events."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._sequence = 0
        self._stack: List[Tuple[str, float]] = []  # (span id, start offset)
        self.events: List[Dict[str, Any]] = []

    # -- recording ------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event under the currently open span."""
        self._sequence += 1
        self.events.append(
            {
                "type": "event",
                "name": name,
                "id": str(self._sequence),
                "parent": self._stack[-1][0] if self._stack else None,
                "start_s": time.perf_counter() - self._epoch,
                "attrs": attrs,
            }
        )

    def _open(self) -> Tuple[str, Optional[str]]:
        self._sequence += 1
        span_id = str(self._sequence)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, time.perf_counter() - self._epoch))
        return span_id, parent

    def _close(self, span: Span, duration: float) -> None:
        # Pop back to this span even if an exception unwound past
        # children that never reached __exit__ (cannot happen with
        # context-managed spans, but stay safe).
        while self._stack:
            span_id, start = self._stack.pop()
            if span_id == span.id:
                break
        else:  # pragma: no cover - unbalanced exit
            start = 0.0
        self.events.append(
            {
                "type": "span",
                "name": span.name,
                "id": span.id,
                "parent": span.parent,
                "start_s": start,
                "duration_s": duration,
                "attrs": span.attrs,
            }
        )

    # -- cross-process aggregation --------------------------------------

    def drain(self) -> List[Dict[str, Any]]:
        """Hand over the buffer (the worker-side shipping primitive)."""
        events, self.events = self.events, []
        return events

    def absorb(
        self,
        events: Sequence[Mapping[str, Any]],
        parent_id: Optional[str],
        prefix: str,
    ) -> None:
        """Fold another process's drained buffer into this one.

        Every id is namespaced under ``prefix`` (uniqueness across
        workers), parent links inside the buffer are rewritten
        consistently, and the buffer's *root* records are re-parented
        onto ``parent_id`` — the span that dispatched the work — so the
        merged trace reads as one tree.  Callers must absorb in a
        deterministic order; this method preserves it.
        """
        for event in events:
            record = dict(event)
            record["id"] = f"{prefix}.{record['id']}"
            record["parent"] = (
                f"{prefix}.{record['parent']}" if record.get("parent") else parent_id
            )
            record["origin"] = prefix
            self.events.append(record)

    def reset(self) -> None:
        self._epoch = time.perf_counter()
        self._sequence = 0
        self._stack.clear()
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


# ----------------------------------------------------------------------
# JSONL sink.
# ----------------------------------------------------------------------


def write_trace_jsonl(
    path, events: Sequence[Mapping[str, Any]], header: Optional[Mapping[str, Any]] = None
) -> None:
    """Write a trace file: one header line, then one record per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    head: Dict[str, Any] = {"format": TRACE_FORMAT, "version": TRACE_VERSION}
    head.update(header or {})
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(head, sort_keys=True) + "\n")
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")


class RotatingTraceWriter:
    """Append-mode JSONL trace sink with a per-segment size cap.

    A long-lived service tracing every run would grow a single JSONL
    file unboundedly; this writer appends each batch of events to the
    current segment and, once the segment passes ``max_bytes``, seals
    it and opens the next one.  **Every** segment starts with its own
    ``repro-trace`` header line, so each file independently satisfies
    :func:`read_trace_jsonl` and ``repro-bench report`` — rotation
    never leaves a headerless tail.

    Segments are named ``trace.jsonl`` (the configured path), then
    ``trace.1.jsonl``, ``trace.2.jsonl`` … — the base path is always
    the oldest segment, so `--trace` keeps pointing at a valid file.
    Rotation happens *between* batches, never inside one, so a batch's
    events (one service run's trace) always share a segment.  A new
    writer starts at the first unused segment index, so a restarted
    service appends after the segments of the process it replaces
    instead of erasing them.
    """

    def __init__(
        self,
        path,
        header: Optional[Mapping[str, Any]] = None,
        max_bytes: int = 64 * 1024 * 1024,
    ):
        if max_bytes < 1024:
            raise ValueError("trace segment cap must be at least 1 KiB")
        self._base = Path(path)
        self._header = dict(header or {})
        self._max_bytes = int(max_bytes)
        self._index = 0
        while self.segment_path(self._index).exists():
            self._index += 1
        self._handle = None
        self._written: List[Path] = []

    def segment_path(self, index: int) -> Path:
        if index == 0:
            return self._base
        return self._base.with_name(
            f"{self._base.stem}.{index}{self._base.suffix or '.jsonl'}"
        )

    @property
    def segments(self) -> List[Path]:
        """Every segment written so far, oldest first."""
        return list(self._written)

    def _open_segment(self) -> None:
        path = self.segment_path(self._index)
        path.parent.mkdir(parents=True, exist_ok=True)
        head: Dict[str, Any] = {"format": TRACE_FORMAT, "version": TRACE_VERSION}
        head.update(self._header)
        head["segment"] = self._index
        self._handle = path.open("w", encoding="utf-8")
        self._handle.write(json.dumps(head, sort_keys=True) + "\n")
        self._written.append(path)

    def write(self, events: Sequence[Mapping[str, Any]], **stamp: Any) -> Path:
        """Append one batch of events, stamped with ``stamp`` keys.

        ``stamp`` (e.g. ``run="r000003-…"``) is merged into every
        record so a multi-run segment stays attributable.  Returns the
        segment the batch landed in.
        """
        if self._handle is None:
            self._open_segment()
        for event in events:
            record = dict(event)
            record.update(stamp)
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        path = self._written[-1]
        if self._handle.tell() >= self._max_bytes:
            self._handle.close()
            self._handle = None
            self._index += 1
        return path

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_trace_jsonl(path) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a trace file back as ``(header, events)``.

    Raises:
        ValueError: the file is not a repro trace (wrong header).
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"'{path}' is empty — not a trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as error:
        raise ValueError(f"'{path}' is not a trace file: {error}") from None
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ValueError(f"'{path}' is not a {TRACE_FORMAT} file")
    events = [json.loads(line) for line in lines[1:] if line.strip()]
    return header, events
