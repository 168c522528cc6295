"""Process-tree and shared-memory probes for the crash tests.

Read from ``/proc`` only: who a process's children are, whether they
still run, which ``repro-kernels-*`` segments they map and which they
published (the publisher pid is part of each name).  Children
are forked, so they share their parent's command line; tell them apart
by parent pid, as these helpers do.
"""

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
    """Every descendant process of ``pid``: a service's run processes,
    their pool workers and resource trackers."""
    found: List[int] = []
    pending = children(pid)
    while pending:
        child = pending.pop()
        if child not in found:
            found.append(child)
            pending.extend(children(child))
    return sorted(found)


def pool_children(pid: int) -> List[int]:
    """Descendants of ``pid`` without the resource trackers: run
    processes and pool workers."""
    found: List[int] = []
    for child in all_children(pid):
        try:
            cmdline = Path(f"/proc/{child}/cmdline").read_bytes()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline:
            found.append(child)
    return found


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


def mapped_segments(pids: Iterable[int]) -> Set[str]:
    """The ``repro-kernels-*`` segments any of ``pids`` has mapped."""
    prefix = f"/dev/shm/{shm._SEGMENT_PREFIX}"
    segments: Set[str] = set()
    for pid in pids:
        try:
            maps = Path(f"/proc/{pid}/maps").read_text()
        except OSError:
            continue
        for line in maps.splitlines():
            fields = line.split(maxsplit=5)
            if len(fields) == 6 and fields[5].startswith(prefix):
                segments.add(fields[5].removesuffix(" (deleted)"))
    return segments


def published_segments(pids: Iterable[int]) -> Set[str]:
    """The ``repro-kernels-*`` segments in ``/dev/shm`` published by ``pids``."""
    prefixes = tuple(f"{shm._SEGMENT_PREFIX}{pid}-" for pid in pids)
    root = Path("/dev/shm")
    return {path.name for path in root.iterdir() if path.name.startswith(prefixes)}
