"""Spans recorded from outside the program, by wrapping its public calls.

:class:`SpanRecorder` keeps one stack of open spans per thread, so the
serve process's worker threads never nest into each other.  A span's
*self* time is its duration minus the durations of the spans opened
directly inside it; summed over a tree, self times add up to the root's
duration exactly.

:func:`install` replaces each target function with a timing wrapper —
in its defining class or module and in every loaded ``repro.*`` module
that holds the same function object under some name — and returns a
handle whose ``restore()`` puts every original back.

Processes forked after installation (the runner's pool workers)
inherit the wrappers.  A forked child starts with an empty buffer and
appends each finished top-level span to ``<sink_dir>/spans.<pid>.jsonl``
as it closes, so nothing depends on how the child exits.  The owning
process keeps its spans in memory until :meth:`SpanRecorder.dump`.

All timestamps are ``time.monotonic()`` (``CLOCK_MONOTONIC``), so spans
from different processes on one host share a time axis.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``annotate(args, kwargs)`` → attrs recorded when the span opens.
Annotate = Callable[[tuple, dict], Dict[str, Any]]
#: ``finish(result, attrs)`` → attrs recorded when the span closes.
Finish = Callable[[Any, Dict[str, Any]], Dict[str, Any]]


class _Frame:
    __slots__ = ("layer", "fn", "id", "parent", "start", "children_s", "attrs")

    def __init__(self, layer, fn, span_id, parent, start, attrs):
        self.layer = layer
        self.fn = fn
        self.id = span_id
        self.parent = parent
        self.start = start
        self.children_s = 0.0
        self.attrs = attrs


class SpanRecorder:
    """Thread-local span stacks plus a buffer of finished spans."""

    def __init__(
        self, sink_dir: Optional[Path] = None, clock: Callable[[], float] = time.monotonic
    ):
        self.sink_dir = Path(sink_dir) if sink_dir is not None else None
        self.clock = clock
        self.owner_pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._sink = None
        #: Per-thread "run" label stamped on top-level spans (the serve
        #: process attributes a worker thread's spans to its last run).
        self.thread_labels: Dict[int, str] = {}
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._local = threading.local()
        self._sink = None
        self.thread_labels = {}

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[_Frame]:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, layer: str, fn: str, attrs: Optional[Dict[str, Any]] = None) -> _Frame:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        if parent is None and attrs and "run" in attrs:
            self.thread_labels[threading.get_ident()] = attrs["run"]
        frame = _Frame(
            layer, fn, f"{os.getpid()}.{next(self._ids)}", parent,
            self.clock(), dict(attrs or {}),
        )
        stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> Dict[str, Any]:
        now = self.clock()
        stack = self._stack()
        while stack and stack.pop() is not frame:
            pass
        duration = now - frame.start
        if stack:
            stack[-1].children_s += duration
        record = {
            "layer": frame.layer,
            "fn": frame.fn,
            "id": frame.id,
            "parent": frame.parent,
            "pid": os.getpid(),
            "thread": threading.get_ident(),
            "start": frame.start,
            "duration_s": duration,
            "self_s": duration - frame.children_s,
            "attrs": frame.attrs,
        }
        if frame.parent is None:
            label = self.thread_labels.get(threading.get_ident())
            if label is not None:
                record["attrs"].setdefault("run", label)
        self.spans.append(record)
        if not stack and os.getpid() != self.owner_pid:
            self._flush_child()
        return record

    def _flush_child(self) -> None:
        if self.sink_dir is None:
            self.spans = []
            return
        if self._sink is None:
            self._sink = open(self.sink_dir / f"spans.{os.getpid()}.jsonl", "a")
        for record in self.spans:
            self._sink.write(json.dumps(record) + "\n")
        self._sink.flush()
        self.spans = []

    def dump(self) -> Path:
        """Write this process's buffered spans to its sink file."""
        assert self.sink_dir is not None
        path = self.sink_dir / f"spans.{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
        self.spans = []
        return path


def read_span_files(sink_dir: Path) -> List[Dict[str, Any]]:
    """Every span the per-pid files in ``sink_dir`` hold.

    A line without its newline is the torn tail of a process killed
    mid-write and is skipped.
    """
    spans: List[Dict[str, Any]] = []
    for path in sorted(Path(sink_dir).glob("spans.*.jsonl")):
        text = path.read_text()
        lines = text.split("\n")
        for line in lines[:-1]:
            if line:
                spans.append(json.loads(line))
    return spans


# ----------------------------------------------------------------------
# Wrapper installation.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One public callable to wrap and the layer its time belongs to."""

    layer: str
    module: str
    qualname: str
    annotate: Optional[Annotate] = None
    finish: Optional[Finish] = None


@dataclass
class Installation:
    """The patches :func:`install` made; ``restore()`` undoes them all."""

    patches: List[Tuple[Any, str, Any]] = field(default_factory=list)

    def restore(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()


def _resolve(module_name: str, qualname: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, function) for ``module:qualname``.

    A method resolves to the class in whose ``__dict__`` it is defined,
    so a subclass inheriting it is covered by one patch.
    """
    owner: Any = sys.modules[module_name]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if name in vars(klass):
                return klass, name, vars(klass)[name]
    return owner, name, getattr(owner, name)


def _timed(recorder: SpanRecorder, target: Target, original: Callable) -> Callable:
    label = target.qualname

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        attrs = target.annotate(args, kwargs) if target.annotate else None
        frame = recorder.begin(target.layer, label, attrs)
        try:
            result = original(*args, **kwargs)
            if target.finish is not None:
                frame.attrs.update(target.finish(result, frame.attrs))
        finally:
            recorder.end(frame)
        return result

    # lru_cache'd functions expose their cache controls as attributes
    # that callers use (``build_testbed.cache_clear()``).
    for name in ("cache_clear", "cache_info", "cache_parameters"):
        if hasattr(original, name):
            setattr(wrapper, name, getattr(original, name))
    return wrapper


def _counted(counter: str, original: Callable, recorder: SpanRecorder) -> Callable:
    """Count calls into the innermost open span's ``attrs[counter]``."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        frame = recorder.current()
        if frame is not None:
            frame.attrs[counter] = frame.attrs.get(counter, 0) + 1
        return original(*args, **kwargs)

    return wrapper


def install(
    recorder: SpanRecorder,
    targets: Sequence[Target],
    counters: Sequence[Tuple[Any, str, str]] = (),
    alias_prefix: str = "repro",
) -> Installation:
    """Wrap every target (and its module-level aliases) with a span.

    ``counters`` holds ``(owner, attribute, counter)`` triples for calls
    that are counted on the enclosing span rather than timed
    (``os.fsync``).
    """
    installation = Installation()
    replaced: Dict[int, Callable] = {}
    for target in targets:
        owner, name, original = _resolve(target.module, target.qualname)
        if id(original) in replaced:
            continue
        wrapper = _timed(recorder, target, original)
        replaced[id(original)] = wrapper
        installation.patches.append((owner, name, original))
        setattr(owner, name, wrapper)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == alias_prefix or module_name.startswith(alias_prefix + ".")
        ):
            continue
        for attribute, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and value is not wrapper:
                installation.patches.append((module, attribute, value))
                setattr(module, attribute, wrapper)
    for owner, name, counter in counters:
        original = getattr(owner, name)
        installation.patches.append((owner, name, original))
        setattr(owner, name, _counted(counter, original, recorder))
    return installation
