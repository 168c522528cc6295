"""Zero-copy publication of precomputed selection kernels (DESIGN.md §12).

Pool workers used to rebuild every policy from its spec: the testbed
comes almost for free (fork inherits the memoized builder), but a CSS
selector then re-samples two full pattern matrices on the search grid
— ~20 ms of bilinear interpolation *per worker per policy*, plus a
private copy of arrays the parent already holds.

This module moves those arrays into one anonymous shared-memory file
(``memfd_create``) per (testbed, policy) configuration, published
**once** by the supervising process and opened **through its fd** by
every worker:

* :class:`KernelPublisher` (parent side) writes the arrays into a
  single memfd (64-byte-aligned offsets), keeps the fd open and hands
  out a picklable :class:`SharedKernelManifest` describing the file
  and its layout.  Segments are memoized per publication key, so
  repeated runs over the same spec — the service's warm-pool case —
  publish nothing new.
* :func:`attach` (worker side) opens ``/proc/<publisher>/fd/<fd>``,
  checks that the fd still names the published file, maps it
  read-only and returns ``np.ndarray`` views over the mapping.  The
  views are byte copies of exactly what the worker's own construction
  would compute (construction is deterministic in the spec), so
  shared-kernel workers remain bit-for-bit identical to
  rebuild-from-spec workers.

The runner also publishes each pooled execute call's trial blocks
here, one segment per call: it closes that segment with
:meth:`KernelPublisher.release` when the call settles, and a worker
maps it only for the task that reads it (:func:`borrow`).

Lifecycle: a segment has no name anywhere, so nothing is registered,
tracked or swept.  The kernel frees it once its last holder lets go:
the publisher's fd (closed by :meth:`KernelPublisher.release` and
:meth:`KernelPublisher.close`, or by the publisher's death, SIGKILL
included) and every worker mapping (closed after a :func:`borrow`, on
eviction, or by the worker's death).  A child forked after a publish
closes the fds it inherited (:func:`_close_inherited`), so a released
segment never lives on in a pool child.
"""

from __future__ import annotations

import logging
import math
import mmap
import os
import secrets
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

import numpy as np

__all__ = ["SharedKernelManifest", "KernelPublisher", "attach", "borrow"]

_LOGGER = logging.getLogger(__name__)

_T = TypeVar("_T")

#: Offset alignment for each array in a segment; keeps every view on a
#: cache-line boundary regardless of the preceding array's size.
_ALIGN = 64

#: Prefix of every segment's memfd name (``/memfd:repro-kernels-*`` in
#: ``/proc/<pid>/fd`` and ``/proc/<pid>/maps``).
_SEGMENT_PREFIX = "repro-kernels-"

#: Publisher-side cap on live segments.  Long-lived runners (the
#: service) keep one kernel segment per policy configuration; block
#: segments live for one execute call, so at most a few are live at
#: once.  Beyond the cap the oldest segment is released FIFO; a call
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


def _identity(stat: os.stat_result) -> Tuple[int, int]:
    return stat.st_dev, stat.st_ino


@dataclass(frozen=True)
class SharedKernelManifest:
    """Picklable description of one published segment.

    ``segment`` is the memfd's unique name, ``pid`` and ``fd`` the
    publisher's process and open fd, ``inode`` the file's
    ``(st_dev, st_ino)`` — what tells it apart from a later file that
    reuses the fd number — and ``size`` its length in bytes.
    ``entries`` maps array name → ``(offset, shape, dtype-str)``; the
    manifest travels to workers inside task submissions (a few hundred
    bytes) instead of the arrays themselves (hundreds of kilobytes,
    per block, per attempt).
    """

    segment: str
    pid: int
    fd: int
    inode: Tuple[int, int]
    size: int
    entries: Mapping[str, Tuple[int, Tuple[int, ...], str]]


#: Every live publisher, for the fork hook.
_PUBLISHERS: "weakref.WeakSet[KernelPublisher]" = weakref.WeakSet()


class KernelPublisher:
    """Parent-side registry of published shared-memory segments."""

    def __init__(self) -> None:
        self._manifests: Dict[str, SharedKernelManifest] = {}
        _PUBLISHERS.add(self)

    def __len__(self) -> int:
        return len(self._manifests)

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
        contiguous = {name: np.ascontiguousarray(array) for name, array in arrays.items()}
        entries: Dict[str, Tuple[int, Tuple[int, ...], str]] = {}
        offset = 0
        for name, array in contiguous.items():
            offset = _aligned(offset)
            entries[name] = (offset, tuple(array.shape), array.dtype.str)
            offset += array.nbytes
        name = f"{_SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(8)}"
        fd = os.memfd_create(name, os.MFD_CLOEXEC)
        try:
            size = max(offset, 1)
            os.ftruncate(fd, size)
            for entry, array in contiguous.items():
                written = os.pwrite(fd, array.reshape(-1).view(np.uint8), entries[entry][0])
                if written != array.nbytes:
                    raise OSError(f"short write to shared segment {name}")
            stat = os.fstat(fd)
        except BaseException:
            os.close(fd)
            raise
        manifest = SharedKernelManifest(
            segment=name,
            pid=os.getpid(),
            fd=fd,
            inode=_identity(stat),
            size=size,
            entries=entries,
        )
        self._manifests[key] = manifest
        while len(self._manifests) > _MAX_SEGMENTS:
            self.release(next(iter(self._manifests)))
        _LOGGER.debug(
            "published %d shared kernel array(s) (%d bytes) as %s",
            len(entries),
            size,
            name,
        )
        return manifest

    def release(self, key: str) -> None:
        """Close the segment published under ``key``, if any.

        Workers still reading it keep their mapping; only new attaches
        fail.
        """
        manifest = self._manifests.pop(key, None)
        if manifest is not None:
            os.close(manifest.fd)

    def close(self) -> None:
        """Close every published segment (idempotent)."""
        for key in list(self._manifests):
            self.release(key)


def _close_inherited() -> None:
    """In a freshly forked child: close the publisher fds it inherited.

    The child's copies of the parent's publishers own nothing, so a
    segment the parent releases is freed while the child lives on.
    """
    for publisher in list(_PUBLISHERS):
        for manifest in publisher._manifests.values():
            os.close(manifest.fd)
        publisher._manifests.clear()


os.register_at_fork(after_in_child=_close_inherited)


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------

#: Per-process cache of attached segments: segment name → (mapping,
#: views).  Keeping the mapping referenced keeps it alive for the
#: lifetime of the views.
_ATTACHED: Dict[str, Tuple[mmap.mmap, Dict[str, np.ndarray]]] = {}

#: Mappings dropped from ``_ATTACHED`` while some view of them was still
#: alive — a cached worker policy, selector or probe design keeps the
#: kernel views it was seeded with.  Each is unmapped once its last
#: view is gone.
_RETIRED: List[mmap.mmap] = []


def _map(manifest: SharedKernelManifest) -> mmap.mmap:
    """Map a published segment read-only through its publisher's fd.

    Raises ``FileNotFoundError`` when the publisher released the
    segment or died, or when its fd number now names another file —
    which is checked before the file is opened, and again once it is.
    """
    path = f"/proc/{manifest.pid}/fd/{manifest.fd}"
    if _identity(os.stat(path)) != manifest.inode:
        raise FileNotFoundError(2, "segment released", manifest.segment)
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if _identity(os.fstat(fd)) != manifest.inode:
            raise FileNotFoundError(2, "segment released", manifest.segment)
        return mmap.mmap(fd, manifest.size, prot=mmap.PROT_READ)
    finally:
        os.close(fd)


def _release(mappings: List[mmap.mmap]) -> None:
    """Unmap every dropped mapping no view still reads; retire the rest.

    Views come from ``np.frombuffer``, which holds a buffer export on
    the mapping, so ``close()`` raises ``BufferError`` instead of
    unmapping memory a live view reads.
    """
    live = []
    for mapping in [*_RETIRED, *mappings]:
        try:
            mapping.close()
        except BufferError:
            live.append(mapping)
    _RETIRED[:] = live


def _view(buffer, entry: Tuple[int, Tuple[int, ...], str]) -> np.ndarray:
    """One read-only array view of a manifest entry over ``buffer``."""
    offset, shape, dtype = entry
    view = np.frombuffer(buffer, dtype=dtype, count=math.prod(shape), offset=offset)
    view = view.reshape(shape)
    view.flags.writeable = False
    return view


class _LazyViews(Mapping[str, np.ndarray]):
    """A manifest's views, each built on its first read.

    A pool task reads only its own blocks of a call's segment, so it
    pays one ``frombuffer`` per entry it reads, not per entry
    published.
    """

    def __init__(self, mapping: mmap.mmap, manifest: SharedKernelManifest) -> None:
        self._buffer = mapping
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
    is no longer published (released, or the publisher died); callers
    degrade to rebuilding from the spec.
    """
    cached = _ATTACHED.get(manifest.segment)
    if cached is not None:
        return cached[1]
    mapping = _map(manifest)
    views = {name: _view(mapping, entry) for name, entry in manifest.entries.items()}
    _ATTACHED[manifest.segment] = (mapping, views)
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
    Raises ``FileNotFoundError`` when the segment is no longer
    published.
    """
    mapping = _map(manifest)
    try:
        return body(_LazyViews(mapping, manifest))
    finally:
        _release([mapping])


def detach_all() -> None:
    """Drop every cached attachment (worker cache-reset path).

    Mappings whose views are still referenced elsewhere stay mapped
    until those views are gone; a later :func:`attach` re-maps from
    scratch.
    """
    mappings = [mapping for mapping, _views in _ATTACHED.values()]
    _ATTACHED.clear()
    _release(mappings)
