"""Zero-copy publication of precomputed selection kernels (DESIGN.md §12).

Pool workers used to rebuild every policy from its spec: the testbed
comes almost for free (fork inherits the memoized builder), but a CSS
selector then re-samples two full pattern matrices on the search grid
— ~20 ms of bilinear interpolation *per worker per policy*, plus a
private copy of arrays the parent already holds.

This module moves those arrays into one POSIX shared-memory segment
per (testbed, policy) configuration, published **once** by the
supervising process and attached **by name** by every worker:

* :class:`KernelPublisher` (parent side) lays the arrays out in a
  single :class:`multiprocessing.shared_memory.SharedMemory` segment
  (64-byte-aligned offsets) and hands out a picklable
  :class:`SharedKernelManifest` describing the layout.  Segments are
  memoized per publication key, so repeated runs over the same spec —
  the service's warm-pool case — publish nothing new.
* :func:`attach` (worker side) maps the segment and returns read-only
  ``np.ndarray`` views over the shared buffer.  The views are byte
  copies of exactly what the worker's own construction would compute
  (construction is deterministic in the spec), so shared-kernel
  workers remain bit-for-bit identical to rebuild-from-spec workers.

The runner also publishes each pooled execute call's trial blocks
here, one segment per call: it unlinks that segment with
:meth:`KernelPublisher.release` when the call settles, and a worker
maps it only for the task that reads it (:func:`borrow`).

Lifecycle: the parent owns every segment and unlinks whatever is left
in :meth:`KernelPublisher.close` (the runner's ``close()``); workers
only ever ``close()`` their mapping, never unlink.  Under the fork start
method parent and workers share one :mod:`multiprocessing.resource_tracker`
process, so a worker's attach-time registration is a no-op set-add on
the name the parent already registered at create — worker exits (even
``os._exit`` crashes) never touch the segment, and the single
registration means the tracker reaps the segment if the supervising
process dies without ``close()`` (SIGKILL).  The tracker reaps once
every holder of its pipe has exited, workers included; workers die
with the supervisor (:mod:`.proc`), so nothing leaks in ``/dev/shm``
even on the crash paths (``tests/test_proc.py`` kills a CLI run).
"""

from __future__ import annotations

import logging
import math
import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

import numpy as np

__all__ = [
    "SharedKernelManifest",
    "KernelPublisher",
    "attach",
    "borrow",
    "leaked_segments",
    "sweep_leaked_segments",
]

_LOGGER = logging.getLogger(__name__)

_T = TypeVar("_T")

#: Offset alignment for each array in a segment; keeps every view on a
#: cache-line boundary regardless of the preceding array's size.
_ALIGN = 64

#: Prefix of every segment this module creates (greppable in /dev/shm).
_SEGMENT_PREFIX = "repro-kernels-"

#: Where Linux keeps POSIX shared-memory segments, one file each.
_SHM_ROOT = Path("/dev/shm")

#: Publisher-side cap on live segments.  Long-lived runners (the
#: service) keep one kernel segment per policy configuration; block
#: segments live for one execute call, so at most a few are live at
#: once.  Beyond the cap the oldest segment is unlinked FIFO; a call
#: publishes at most two segments, so with the runner's few calls in
#: flight a manifest handed to a dispatch always outlives it.
_MAX_SEGMENTS = 128

#: Worker-side cap on cached kernel attachments, bounding mapped pages
#: when a long-lived pool serves many distinct specs.  An evicted
#: mapping is unmapped only once no view of it is alive (see
#: ``_release``).
_MAX_ATTACHED = 128


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class SharedKernelManifest:
    """Picklable description of one published segment's layout.

    ``entries`` maps array name → ``(offset, shape, dtype-str)``; the
    manifest travels to workers inside task submissions (a few hundred
    bytes) instead of the arrays themselves (hundreds of kilobytes,
    per block, per attempt).
    """

    segment: str
    entries: Mapping[str, Tuple[int, Tuple[int, ...], str]]


def _revive_resource_tracker() -> None:
    """Respawn multiprocessing's resource tracker after it died.

    Creating a segment registers it with the tracker over a pipe.
    ``ensure_running`` probes the pipe before each write and relaunches
    a tracker it finds dead (Python 3.9–3.13, with a ``UserWarning``),
    so a tracker killed between two creates costs nothing here.  Only
    one that dies between the probe and the write fails the
    registration with EPIPE.  Forgetting the dead pipe makes
    ``ensure_running`` launch a fresh tracker.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is not None:
            try:
                os.close(tracker._fd)
            except OSError:  # pragma: no cover - already closed
                pass
            tracker._fd = None
    tracker.ensure_running()


class KernelPublisher:
    """Parent-side registry of published shared-memory segments."""

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._manifests: Dict[str, SharedKernelManifest] = {}

    def __len__(self) -> int:
        return len(self._segments)

    def manifest(self, key: str) -> Optional[SharedKernelManifest]:
        """The manifest published under ``key``, if any."""
        return self._manifests.get(key)

    def publish(
        self, key: str, arrays: Mapping[str, np.ndarray]
    ) -> SharedKernelManifest:
        """Copy ``arrays`` into one shared segment, memoized on ``key``.

        Returns the existing manifest when ``key`` was already
        published — repeated executes over the same (testbed, policy)
        pair, or repeated service submissions, cost a dict hit.
        """
        existing = self._manifests.get(key)
        if existing is not None:
            return existing
        entries: Dict[str, Tuple[int, Tuple[int, ...], str]] = {}
        offset = 0
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            offset = _aligned(offset)
            entries[name] = (offset, tuple(array.shape), array.dtype.str)
            offset += array.nbytes
        segment_name = f"{_SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(8)}"
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=max(offset, 1), name=segment_name
            )
        except BrokenPipeError:
            # The registration failed after the segment was created,
            # sized and mapped: unlink it before creating it again.
            os.unlink(_SHM_ROOT / segment_name)
            _revive_resource_tracker()
            segment = shared_memory.SharedMemory(
                create=True, size=max(offset, 1), name=segment_name
            )
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            start, shape, dtype = entries[name]
            view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=start)
            view[...] = array
        manifest = SharedKernelManifest(segment=segment.name, entries=dict(entries))
        self._segments[key] = segment
        self._manifests[key] = manifest
        while len(self._segments) > _MAX_SEGMENTS:
            self.release(next(iter(self._segments)))
        _LOGGER.debug(
            "published %d shared kernel array(s) (%d bytes) as %s",
            len(entries),
            segment.size,
            segment.name,
        )
        return manifest

    def release(self, key: str) -> None:
        """Unmap and unlink the segment published under ``key``, if any.

        Workers still reading it keep their mapping; only new attaches
        fail.
        """
        segment = self._segments.pop(key, None)
        self._manifests.pop(key, None)
        if segment is None:
            return
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass

    def close(self) -> None:
        """Unmap and unlink every published segment (idempotent)."""
        for key in list(self._segments):
            self.release(key)


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------

#: Per-process cache of attached segments: segment name → (mapping,
#: views).  Keeping the SharedMemory object referenced keeps the buffer
#: mapped for the lifetime of the views.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]] = {}

#: Mappings dropped from ``_ATTACHED`` while some view of them was still
#: alive — a cached worker policy, selector or probe design keeps the
#: kernel views it was seeded with.  Each is unmapped once its last
#: view is gone.
_RETIRED: List[shared_memory.SharedMemory] = []


def _release(segments: List[shared_memory.SharedMemory]) -> None:
    """Unmap every dropped mapping no view still reads; retire the rest.

    Views come from ``np.frombuffer``, which holds a buffer export on
    the mapping, so ``close()`` raises ``BufferError`` instead of
    unmapping memory a live view reads (``np.ndarray(buffer=...)``
    holds no export, and ``close()`` would unmap under it).
    """
    live = []
    for segment in [*_RETIRED, *segments]:
        try:
            segment.close()
        except BufferError:
            live.append(segment)
    _RETIRED[:] = live


def _view(buffer, entry: Tuple[int, Tuple[int, ...], str]) -> np.ndarray:
    """One read-only array view of a manifest entry over ``buffer``."""
    offset, shape, dtype = entry
    view = np.frombuffer(buffer, dtype=dtype, count=math.prod(shape), offset=offset)
    view = view.reshape(shape)
    view.flags.writeable = False
    return view


def _views(
    segment: shared_memory.SharedMemory, manifest: SharedKernelManifest
) -> Dict[str, np.ndarray]:
    return {name: _view(segment.buf, entry) for name, entry in manifest.entries.items()}


class _LazyViews(Mapping[str, np.ndarray]):
    """A manifest's views, each built on its first read.

    A pool task reads only its own blocks of a call's segment, so it
    pays one ``frombuffer`` per entry it reads, not per entry
    published.
    """

    def __init__(
        self, segment: shared_memory.SharedMemory, manifest: SharedKernelManifest
    ) -> None:
        self._buffer = segment.buf
        self._entries = manifest.entries
        self._built: Dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        view = self._built.get(name)
        if view is None:
            view = self._built[name] = _view(self._buffer, self._entries[name])
        return view

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def attach(manifest: SharedKernelManifest) -> Dict[str, np.ndarray]:
    """Map a published segment and return read-only array views.

    Safe to call repeatedly — each process maps a segment once and
    reuses the views.  Raises ``FileNotFoundError`` when the segment
    no longer exists (the publisher closed); callers degrade to
    rebuilding from the spec.
    """
    cached = _ATTACHED.get(manifest.segment)
    if cached is not None:
        return cached[1]
    segment = shared_memory.SharedMemory(name=manifest.segment, create=False)
    views = _views(segment, manifest)
    _ATTACHED[manifest.segment] = (segment, views)
    evicted = []
    while len(_ATTACHED) > _MAX_ATTACHED:
        evicted.append(_ATTACHED.pop(next(iter(_ATTACHED)))[0])
    _release(evicted)
    return views


def borrow(
    manifest: SharedKernelManifest, body: Callable[[Mapping[str, np.ndarray]], _T]
) -> _T:
    """Return ``body(views)`` over a segment mapped for that call only.

    For data one task reads once (an execute call's trial blocks):
    nothing is cached, a view is built only for an entry ``body``
    reads, and the mapping is closed when ``body`` returns — or
    retired until the last view something still holds is gone.
    Raises ``FileNotFoundError`` when the segment no longer exists.
    """
    segment = shared_memory.SharedMemory(name=manifest.segment, create=False)
    try:
        return body(_LazyViews(segment, manifest))
    finally:
        _release([segment])


def _publisher_alive(name: str) -> bool:
    """Is the process that published segment ``name`` still running?

    A name is ``<prefix><publisher pid>-<token>``.  A zombie no longer
    publishes or maps anything, so it counts as gone; a name without a
    pid (an older layout) has no publisher to ask and counts as gone too.
    """
    pid, _, _ = name[len(_SEGMENT_PREFIX):].partition("-")
    if not pid.isdigit():
        return False
    try:
        stat = (Path("/proc") / pid / "stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - unreadable: assume it lives
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def leaked_segments() -> List[str]:
    """Names of ``repro-kernels-*`` segments whose publisher is gone.

    Each name carries its publisher's pid (:meth:`KernelPublisher.publish`),
    and a live publisher unlinks its own segments, so a segment whose
    publisher no longer runs is a leak — the resource tracker normally
    reaps them even through SIGKILL, but a tracker killed alongside its
    supervisor (a whole process group SIGKILLed at once) leaves the
    files behind.  A live process's segments never count, whoever
    asks.  Returns an empty list on platforms without a ``/dev/shm``.
    """
    if not _SHM_ROOT.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(
        path.name
        for path in _SHM_ROOT.glob(f"{_SEGMENT_PREFIX}*")
        if not _publisher_alive(path.name)
    )


def sweep_leaked_segments() -> List[str]:
    """Unlink every leaked ``repro-kernels-*`` segment; return the names.

    Startup-time GC for the service and ``runs gc --sweep-shm``.  Only
    segments whose publisher pid no longer runs are swept
    (:func:`leaked_segments`), so a sweep never fails another live
    service's or CLI run's pooled call.
    """
    reclaimed: List[str] = []
    for name in leaked_segments():
        try:
            os.unlink(_SHM_ROOT / name)
        except FileNotFoundError:  # pragma: no cover - raced with reaper
            continue
        reclaimed.append(name)
    if reclaimed:
        _LOGGER.warning(
            "swept %d leaked shared-memory segment(s): %s",
            len(reclaimed),
            ", ".join(reclaimed),
        )
    return reclaimed


def detach_all() -> None:
    """Drop every cached attachment (worker cache-reset path).

    Mappings whose views are still referenced elsewhere stay mapped
    until those views are gone; a later :func:`attach` re-maps from
    scratch.
    """
    segments = [segment for segment, _views in _ATTACHED.values()]
    _ATTACHED.clear()
    _release(segments)
