"""Shared-memory publication of precomputed selection kernels (DESIGN.md §12).

Pool workers rebuild every policy from its spec: the testbed comes
almost for free (fork inherits the memoized builder), but a CSS
selector then re-samples two full pattern matrices on the search grid
— several ms of bilinear interpolation *per worker per selector
configuration*.

This module lets a worker read those arrays instead, from one
anonymous shared-memory file (``memfd_create``) per (testbed, selector
configuration), published **once** by the supervising process:

* :class:`KernelPublisher` (parent side) writes the arrays into a
  single memfd (64-byte-aligned offsets), keeps the fd open and hands
  out a picklable :class:`SharedKernelManifest` describing the file
  and its layout.  Segments are memoized per publication key, so
  repeated runs over the same configuration — the service's warm-pool
  case, or a fig7 run's probe counts — publish nothing new.
* :func:`read` (worker side) opens ``/proc/<publisher>/fd/<fd>``,
  checks that the fd still names the published file, reads every
  entry into a private array and closes the fd at once.  The arrays
  are byte copies of exactly what the worker's own construction would
  compute (construction is deterministic in the spec), so workers that
  read kernels remain bit-for-bit identical to rebuild-from-spec
  workers.  A worker reads a segment only when it builds a selector,
  and keeps no fd or mapping of it.

Only kernels travel this way.  A pool task's trial rows are read once,
by that task alone, so they ride the task's request over its child's
pipe instead (``runtime/runner.py``).

Lifecycle: a segment has no name anywhere, so nothing is registered,
tracked or swept.  Its only holder is the publisher's fd (closed by
:meth:`KernelPublisher.release` and :meth:`KernelPublisher.close`, or
by the publisher's death, SIGKILL included), plus a reading worker's
fd for the length of one :func:`read`.  A child forked after a publish
closes the fds it inherited (:func:`_close_inherited`), so a released
segment never lives on in a pool child.
"""

from __future__ import annotations

import logging
import os
import secrets
import weakref
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

__all__ = ["SharedKernelManifest", "KernelPublisher", "read"]

_LOGGER = logging.getLogger(__name__)

#: Offset alignment for each array in a segment; keeps every view on a
#: cache-line boundary regardless of the preceding array's size.
_ALIGN = 64

#: Prefix of every segment's memfd name (``/memfd:repro-kernels-*`` in
#: ``/proc/<pid>/fd`` and ``/proc/<pid>/maps``).
_SEGMENT_PREFIX = "repro-kernels-"

#: Publisher-side cap on live segments.  Long-lived runners (the
#: service) keep one kernel segment per (testbed, selector
#: configuration).  Beyond the cap the oldest segment is released FIFO;
#: a worker that has not read it yet then rebuilds its selector from
#: the spec (slower, bit-identical).
_MAX_SEGMENTS = 128


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
    bytes) instead of the kernels themselves (0.45 MB for the default
    testbed), which every task would otherwise carry.
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

        Workers keep the arrays they already read; only new reads fail.
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


def read(manifest: SharedKernelManifest) -> Dict[str, np.ndarray]:
    """Read a published segment into private read-only arrays.

    Opens the segment through its publisher's fd, reads each entry
    with one ``pread`` and closes the fd before returning.  Raises
    ``FileNotFoundError`` when the publisher released the segment or
    died, or when its fd number now names another file — which is
    checked before the file is opened, and again once it is; callers
    degrade to rebuilding from the spec.
    """
    path = f"/proc/{manifest.pid}/fd/{manifest.fd}"
    if _identity(os.stat(path)) != manifest.inode:
        raise FileNotFoundError(2, "segment released", manifest.segment)
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if _identity(os.fstat(fd)) != manifest.inode:
            raise FileNotFoundError(2, "segment released", manifest.segment)
        arrays = {}
        for name, (offset, shape, dtype) in manifest.entries.items():
            array = np.empty(shape, dtype=dtype)
            if os.preadv(fd, [array.reshape(-1).view(np.uint8)], offset) != array.nbytes:
                raise OSError(f"short read from shared segment {manifest.segment}")
            array.flags.writeable = False
            arrays[name] = array
        return arrays
    finally:
        os.close(fd)
