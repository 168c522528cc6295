"""Process-tree and shared-memory probes for the crash tests.

Read from ``/proc`` only: who a process's children are, whether they
still run, which ``repro-kernels-*`` segments they hold an fd of or
map (``/memfd:repro-kernels-*`` links and mappings) and which they
published (the publisher pid is part of each name).  Children
are forked, so they share their parent's command line; tell them apart
by parent pid, as these helpers do.
"""

import os
import time
from pathlib import Path
from typing import Iterable, List, Set

from repro.runtime import shm


def children(pid: int) -> List[int]:
    """Direct child processes of ``pid``.

    Children are listed per *thread*, since a process may fork from
    several threads: only walking every ``/proc/<pid>/task/<tid>`` sees
    them all.
    """
    found: List[int] = []
    try:
        tids = sorted(path.name for path in Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return []
    for tid in tids:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
        except OSError:
            continue
        found.extend(int(part) for part in text.split())
    return sorted(set(found))


def all_children(pid: int) -> List[int]:
    """Every descendant process of ``pid``: a service's run processes
    and their pool workers."""
    found: List[int] = []
    pending = children(pid)
    while pending:
        child = pending.pop()
        if child not in found:
            found.append(child)
            pending.extend(children(child))
    return sorted(found)


def running(pid: int) -> bool:
    """Alive and not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def survivors(pids: Iterable[int], timeout_s: float = 10.0) -> List[int]:
    """The ``pids`` still running after up to ``timeout_s`` of waiting."""
    deadline = time.monotonic() + timeout_s
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if running(pid)]
    return alive


def _memfd_name(target: str) -> str:
    """The segment name in a ``/memfd:<name> (deleted)`` path, or ''."""
    prefix = f"/memfd:{shm._SEGMENT_PREFIX}"
    if not target.startswith(prefix):
        return ""
    return target[len("/memfd:"):].removesuffix(" (deleted)")


def held_segments(pids: Iterable[int]) -> Set[str]:
    """The ``repro-kernels-*`` segments any of ``pids`` holds an fd of."""
    segments: Set[str] = set()
    for pid in pids:
        try:
            fds = list(Path(f"/proc/{pid}/fd").iterdir())
        except OSError:
            continue
        for fd in fds:
            try:
                segments.add(_memfd_name(os.readlink(fd)))
            except OSError:  # closed meanwhile
                continue
    return segments - {""}


def mapped_segments(pids: Iterable[int]) -> Set[str]:
    """The ``repro-kernels-*`` segments any of ``pids`` has mapped."""
    segments: Set[str] = set()
    for pid in pids:
        try:
            maps = Path(f"/proc/{pid}/maps").read_text()
        except OSError:
            continue
        for line in maps.splitlines():
            fields = line.split(maxsplit=5)
            if len(fields) == 6:
                segments.add(_memfd_name(fields[5]))
    return segments - {""}


def published_segments(pids: Iterable[int]) -> Set[str]:
    """The ``repro-kernels-*`` segments ``pids`` published and still hold.

    A segment's name carries its publisher's pid, so a concurrent
    process's segments are never counted.
    """
    prefixes = tuple(f"{shm._SEGMENT_PREFIX}{pid}-" for pid in pids)
    return {name for name in held_segments(pids) if name.startswith(prefixes)}


def published_kernels(publisher: "shm.KernelPublisher") -> Set[str]:
    """The segments ``publisher`` holds, each checked to be a policy's
    kernels: trial rows travel with their tasks, never as a segment."""
    manifests = list(publisher._manifests.values())
    assert all("pattern_matrix" in manifest.entries for manifest in manifests)
    return {manifest.segment for manifest in manifests}
