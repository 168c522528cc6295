"""Continuous sampling profiler (DESIGN.md §15).

The repo's one profiler (``run --profile-sampling``, ``serve
--profile``): a timer-signal statistical profiler with three
properties:

* **Low overhead** — a ``SIGPROF`` handler fires every ``interval_s``
  of *consumed CPU time* and folds the interrupted stacks into a
  collapsed-stack counter; nothing is traced per call, so the cost is
  a bounded number of frame walks per second.
* **Thread-safe** — every tick walks ``sys._current_frames()``, so
  helper threads (a run process's pipe reader) are profiled alongside
  the main thread, one sample per live thread per tick; the counter
  dict is only mutated from the signal handler, which the interpreter
  serializes on the main thread.
* **Fork-aware** — POSIX interval timers do **not** survive
  ``fork()``, so a pool worker forked from a profiling supervisor
  would silently stop sampling.  An ``os.register_at_fork`` hook
  re-arms the timer in the child with a *fresh* counter; workers then
  ship their aggregates home inside the drained obs payload (the same
  channel as worker trace buffers and metric snapshots) and the
  supervisor folds them in — merge is commutative addition, so the
  jobs=N aggregate is arrival-order independent.

Sample counts are wall-clock facts, not deterministic ones: profiles
never enter metric snapshots, trace events, or anything covered by a
bit-identity pin.  They exist only when profiling was explicitly
requested (``run --profile-sampling``, ``serve --profile``).
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "StackSampler",
    "active_sampler",
    "start_profiling",
    "stop_profiling",
    "drain_profile",
    "merge_profile",
    "hotspots",
    "write_collapsed",
    "PROFILE_FORMAT",
]

#: Artifact format marker (mirrors the ``repro-trace`` convention).
PROFILE_FORMAT = "repro-profile"

#: Default sampling period, in seconds of consumed CPU time.  200 Hz
#: keeps the handler cost far under the 5 % overhead budget while
#: resolving millisecond-scale stages.
DEFAULT_INTERVAL_S = 0.005

#: Frames below (older than) any of these are the harness, not the
#: workload; stacks are truncated at the first match so profiles stay
#: comparable between CLI runs, pool workers, and run processes.
_ROOT_NAMES = frozenset(
    {"_bootstrap", "_bootstrap_inner", "_worker", "run_forever", "<module>"}
)


def _frame_label(frame) -> str:
    """``module:function`` for one frame, stable across processes."""
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{code.co_name}"


class StackSampler:
    """Collapsed-stack statistical sampler for one process.

    One instance per process; :func:`start_profiling` manages the
    module singleton and the fork hook.  ``_counts`` maps a collapsed
    stack (``root;...;leaf`` of ``module:function`` labels) to its
    sample count.
    """

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S):
        if not interval_s > 0.0:
            raise ValueError("sampling interval must be positive")
        self.interval_s = float(interval_s)
        self._counts: Dict[str, int] = {}
        self._samples = 0
        self._active = False
        self._previous_handler: Any = None

    # -- sampling ------------------------------------------------------

    def _handle(self, signum, frame) -> None:  # pragma: no cover - timing
        self._sample(frame)

    def _sample(self, signal_frame) -> None:
        """Fold every live thread's stack into the counter, one sample
        each, so ``samples`` is the sum of the stack counts."""
        frames = sys._current_frames()
        # The frame passed to the handler is the main thread's *true*
        # interrupted frame; _current_frames sees the handler itself.
        main_id = threading.main_thread().ident
        if main_id is not None and signal_frame is not None:
            frames = dict(frames)
            frames[main_id] = signal_frame
        for frame in frames.values():
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < 128:
                label = _frame_label(frame)
                stack.append(label)
                if frame.f_code.co_name in _ROOT_NAMES:
                    break
                frame = frame.f_back
                depth += 1
            if not stack:
                continue
            collapsed = ";".join(reversed(stack))
            self._counts[collapsed] = self._counts.get(collapsed, 0) + 1
            self._samples += 1

    # -- lifecycle -----------------------------------------------------

    @property
    def active(self) -> bool:
        return self._active

    @property
    def samples(self) -> int:
        return self._samples

    def start(self) -> None:
        """Install the handler and arm the CPU-time interval timer."""
        if self._active:
            return
        self._previous_handler = signal.signal(signal.SIGPROF, self._handle)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        self._active = True

    def stop(self) -> None:
        """Disarm the timer and restore the previous handler."""
        if not self._active:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGPROF, self._previous_handler)
        self._previous_handler = None
        self._active = False

    def rearm_after_fork(self) -> None:
        """Child-side reset: fresh counter, re-armed timer.

        The handler survives fork (it is process state) but the
        interval timer does not; the inherited counts belong to the
        parent and must not be double-shipped.
        """
        self._counts = {}
        self._samples = 0
        self._active = False
        self.start()

    # -- aggregation ---------------------------------------------------

    def drain(self) -> Dict[str, Any]:
        """Hand over the accumulated samples and reset the counter.

        The worker-side twin of ``TraceRecorder.drain`` — the payload
        rides ``info["obs"]["profile"]`` home and merges via
        :func:`merge_profile`.
        """
        counts, self._counts = self._counts, {}
        samples, self._samples = self._samples, 0
        return {"samples": samples, "stacks": counts}

    def merge(self, payload: Optional[Mapping[str, Any]]) -> None:
        """Fold a drained payload in (commutative, order independent)."""
        if not payload:
            return
        self._samples += int(payload.get("samples", 0))
        for stack, count in payload.get("stacks", {}).items():
            self._counts[stack] = self._counts.get(stack, 0) + int(count)

    def snapshot(self) -> Dict[str, Any]:
        """The current aggregate without resetting (sorted, JSON-safe)."""
        return {
            "samples": self._samples,
            "stacks": dict(sorted(self._counts.items())),
        }


# ----------------------------------------------------------------------
# Module singleton + fork hook.
# ----------------------------------------------------------------------

_SAMPLER: Optional[StackSampler] = None
_FORK_HOOK_INSTALLED = False


def _rearm_in_child() -> None:  # pragma: no cover - exercised via pool
    sampler = _SAMPLER
    if sampler is not None and sampler.active:
        sampler.rearm_after_fork()


def active_sampler() -> Optional[StackSampler]:
    """The process's running sampler, if profiling is on."""
    sampler = _SAMPLER
    if sampler is not None and sampler.active:
        return sampler
    return None


def start_profiling(interval_s: float = DEFAULT_INTERVAL_S) -> StackSampler:
    """Start (or return) the process-wide sampler.

    Idempotent: a second call while profiling returns the running
    sampler unchanged — the service and a traced run sharing one
    process share one profile.
    """
    global _SAMPLER, _FORK_HOOK_INSTALLED
    if _SAMPLER is not None and _SAMPLER.active:
        return _SAMPLER
    sampler = StackSampler(interval_s=interval_s)
    if not _FORK_HOOK_INSTALLED:
        os.register_at_fork(after_in_child=_rearm_in_child)
        _FORK_HOOK_INSTALLED = True
    _SAMPLER = sampler
    sampler.start()
    return sampler


def stop_profiling() -> Dict[str, Any]:
    """Stop the process-wide sampler and return its final aggregate."""
    global _SAMPLER
    sampler = _SAMPLER
    if sampler is None:
        return {"samples": 0, "stacks": {}}
    sampler.stop()
    _SAMPLER = None
    return sampler.snapshot()


def drain_profile() -> Optional[Dict[str, Any]]:
    """Drain the running sampler's buffer (worker payload hook).

    Returns ``None`` when profiling is off so obs payloads stay
    byte-identical to their pre-profiler shape in the common case.
    """
    sampler = active_sampler()
    if sampler is None:
        return None
    return sampler.drain()


def merge_profile(payload: Optional[Mapping[str, Any]]) -> None:
    """Fold a shipped worker aggregate into the local sampler."""
    if not payload:
        return
    sampler = active_sampler()
    if sampler is None:
        return
    sampler.merge(payload)


# ----------------------------------------------------------------------
# Reporting + artifact export.
# ----------------------------------------------------------------------


def hotspots(
    profile: Mapping[str, Any], top: int = 10
) -> List[Dict[str, Any]]:
    """Rank functions by self-sample count (leaf-frame attribution).

    Deterministic given a profile: ties break on the function label so
    a rendered table never reorders between invocations.
    """
    self_counts: Dict[str, int] = {}
    total_counts: Dict[str, int] = {}
    for stack, count in profile.get("stacks", {}).items():
        frames = stack.split(";")
        leaf = frames[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + int(count)
        for label in set(frames):
            total_counts[label] = total_counts.get(label, 0) + int(count)
    samples = int(profile.get("samples", 0)) or 1
    ranked = sorted(self_counts.items(), key=lambda item: (-item[1], item[0]))
    rows = []
    for label, count in ranked[: max(0, int(top))]:
        rows.append(
            {
                "function": label,
                "self": count,
                "total": total_counts.get(label, count),
                "self_pct": 100.0 * count / samples,
            }
        )
    return rows


def profile_summary(
    profile: Mapping[str, Any], top: int = 10
) -> Dict[str, Any]:
    """The compact form embedded in manifests (stacks stay external)."""
    return {
        "samples": int(profile.get("samples", 0)),
        "hotspots": hotspots(profile, top=top),
    }


def write_collapsed(
    path, profile: Mapping[str, Any], header: Optional[Mapping[str, Any]] = None
) -> Tuple[int, int]:
    """Write the flamegraph-compatible collapsed-stack artifact.

    Plain ``stack count`` lines (the format ``flamegraph.pl`` and
    speedscope ingest), preceded by ``#``-comment header lines carrying
    the run identity (spec digest, seed) so artifacts stay keyed to
    what produced them.  Returns ``(n_stacks, n_samples)``.
    """
    path = Path(path)
    stacks = profile.get("stacks", {})
    lines = [f"# format: {PROFILE_FORMAT} v1"]
    for key in sorted(header or {}):
        lines.append(f"# {key}: {(header or {})[key]}")
    for stack in sorted(stacks):
        lines.append(f"{stack} {int(stacks[stack])}")
    path.write_text("\n".join(lines) + "\n")
    return len(stacks), int(profile.get("samples", 0))
