"""`repro.obs` — the run-wide observability layer (DESIGN.md §10).

One :class:`ObsSession` bundles a span tracer (:mod:`.trace`) and a
metrics registry (:mod:`.metrics`) for one process.  Instrumented code
never holds a session: it calls the module-level helpers —
:func:`span`, :func:`event`, :func:`inc`, :func:`observe`,
:func:`set_gauge` — which dispatch to the *active* session or, when
none is active (the default), do nothing.  The disabled path is one
global read and an early return, cheap enough to leave instrumentation
always-on in hot kernels; ``bench/run.py --trace 1`` measures what a
recording session costs.

Activation is explicit and scoped: :meth:`ScenarioRunner.run`
activates its session for the duration of the run and restores the
previous one after — nested or sequential runs can't leak spans into
each other.  Pool workers activate a fresh per-block session and ship
its drained payload back piggybacked on the block result; the runner
absorbs worker payloads in deterministic block order (see
:meth:`ObsSession.absorb_payload`).

:func:`logging_setup` is the one place CLI logging is configured
(``--log-level`` flag, ``REPRO_LOG_LEVEL`` env var); every existing
``logging.getLogger(__name__)`` call site keeps working unchanged.
"""

from __future__ import annotations

import logging
import os
from contextvars import ContextVar
from typing import Any, Dict, List, Mapping, Optional

from .metrics import MetricsRegistry
from .trace import (
    NULL_SPAN,
    RotatingTraceWriter,
    TraceRecorder,
    read_trace_jsonl,
    write_trace_jsonl,
)

__all__ = [
    "ObsSession",
    "activate",
    "deactivate",
    "active_session",
    "enabled",
    "span",
    "event",
    "inc",
    "observe",
    "set_gauge",
    "logging_setup",
    "read_trace_jsonl",
    "write_trace_jsonl",
    "RotatingTraceWriter",
]


class ObsSession:
    """Tracer + metrics registry for one process (or one run).

    Args:
        trace_path: optional JSONL sink; :meth:`finalize` writes the
            accumulated trace there (the ``--trace out.jsonl`` flag).
        quality: enable estimation-quality telemetry (:mod:`.quality`)
            for runs under this session.  Off by default — the seams
            then cost one ContextVar read, keeping untelemetered runs
            inside the obs overhead budget and bit-identical.
    """

    def __init__(self, trace_path=None, quality: bool = False):
        self.tracer = TraceRecorder()
        self.metrics = MetricsRegistry()
        self.trace_path = trace_path
        self.quality = bool(quality)

    # -- cross-process shipping -----------------------------------------

    def drain_payload(self) -> Dict[str, Any]:
        """Detach everything recorded so far (worker → runner shipping).

        When the process-wide sampling profiler is running, its
        collapsed-stack aggregate rides along under ``"profile"`` —
        the same channel as trace buffers, so worker profiles reach
        the supervisor without a side path.  The key is absent when
        profiling is off, keeping the payload shape unchanged.
        """
        payload: Dict[str, Any] = {
            "events": self.tracer.drain(),
            "metrics": self.metrics.snapshot(),
        }
        from .profile import drain_profile

        profile = drain_profile()
        if profile is not None:
            payload["profile"] = profile
        return payload

    def absorb_payload(
        self,
        payload: Mapping[str, Any],
        parent_id: Optional[str],
        prefix: str,
    ) -> None:
        """Fold a worker's drained payload into this session.

        Callers must absorb in a deterministic order — the runner keys
        payloads by ``(execute call, block index)`` exactly like the
        checkpoint journal — so merged traces and metric snapshots are
        reproducible regardless of pool scheduling.  (Profile sample
        merges are commutative sums, so they are order-independent
        regardless.)
        """
        self.tracer.absorb(payload.get("events", ()), parent_id, prefix)
        self.metrics.merge(payload.get("metrics", {}))
        if "profile" in payload:
            from .profile import merge_profile

            merge_profile(payload["profile"])

    # -- lifecycle ------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh trace/metric window (one per ``run()``)."""
        self.tracer.reset()
        self.metrics.reset()

    def finalize(self, header: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Roll up the window into a manifest ``observability`` section.

        Writes the trace JSONL when a sink path is configured.  The
        event buffer is left intact so callers (tests, the CLI) can
        still inspect it; the next :meth:`reset` clears it.
        """
        from .report import span_rollup

        rollup = span_rollup(self.tracer.events)
        if self.trace_path is not None:
            write_trace_jsonl(self.trace_path, self.tracer.events, header=header)
        section: Dict[str, Any] = {"enabled": True}
        section.update(rollup)
        section["metrics"] = self.metrics.snapshot()
        from .profile import active_sampler, profile_summary

        sampler = active_sampler()
        if sampler is not None:
            # Hotspot summary only — full collapsed stacks go to the
            # profiler's own artifact, not the manifest.  Profile
            # counts are wall-clock facts and exist only when the user
            # explicitly turned profiling on, so determinism pins are
            # untouched.
            section["profile"] = profile_summary(sampler.snapshot())
        return section


#: The active session, or None when observability is off (the default).
#: A :class:`~contextvars.ContextVar` rather than a module global: the
#: service front-end runs many ScenarioRunners concurrently (one thread
#: per in-flight request), and a plain global would interleave every
#: request's spans and counters into whichever session activated last.
#: Context variables are per-thread *and* per-asyncio-task, so each
#: request's activation is invisible to its neighbours while the
#: single-process CLI behaves exactly as before.
_SESSION: ContextVar[Optional[ObsSession]] = ContextVar(
    "repro_obs_session", default=None
)


def activate(session: Optional[ObsSession]) -> Optional[ObsSession]:
    """Make ``session`` current; returns the previous one for restore."""
    previous = _SESSION.get()
    _SESSION.set(session)
    return previous


def deactivate(previous: Optional[ObsSession] = None) -> None:
    """Restore a previously active session (or none)."""
    _SESSION.set(previous)


def active_session() -> Optional[ObsSession]:
    return _SESSION.get()


def enabled() -> bool:
    """Is an observability session currently active?"""
    return _SESSION.get() is not None


# -- instrumentation face (no-ops when no session is active) ------------


def span(name: str, **attrs: Any):
    """A context-managed span under the active tracer (or a no-op)."""
    session = _SESSION.get()
    if session is None:
        return NULL_SPAN
    return session.tracer.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """A point event under the active tracer (or nothing)."""
    session = _SESSION.get()
    if session is not None:
        session.tracer.event(name, **attrs)


def inc(name: str, value: float = 1, **labels: Any) -> None:
    """Bump a counter on the active registry (or nothing)."""
    session = _SESSION.get()
    if session is not None:
        session.metrics.inc(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Record a histogram observation on the active registry."""
    session = _SESSION.get()
    if session is not None:
        session.metrics.observe(name, value, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge on the active registry (or nothing)."""
    session = _SESSION.get()
    if session is not None:
        session.metrics.set_gauge(name, value, **labels)


# -- logging ------------------------------------------------------------

#: Environment variable consulted when no explicit level is passed.
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"


def logging_setup(level: Optional[str] = None) -> int:
    """Configure root logging once for the whole ``repro`` tree.

    Resolution order: explicit ``level`` argument (the CLI's
    ``--log-level``), then the ``REPRO_LOG_LEVEL`` environment
    variable, then ``WARNING``.  Existing per-module
    ``logging.getLogger(__name__)`` call sites keep working — this
    only installs a root handler and sets the ``repro`` logger level.

    Returns the numeric level that was applied.

    Raises:
        ValueError: the level name is not a known logging level.
    """
    name = level if level is not None else os.environ.get(LOG_LEVEL_ENV)
    if name is None:
        name = "WARNING"
    numeric = logging.getLevelName(str(name).upper())
    if not isinstance(numeric, int):
        raise ValueError(
            f"unknown log level '{name}' (use debug, info, warning, error or critical)"
        )
    logging.basicConfig(
        level=numeric, format="%(asctime)s %(levelname)s %(name)s: %(message)s"
    )
    # basicConfig is a no-op when a handler already exists (pytest,
    # embedding apps); setting the package logger level still applies.
    logging.getLogger("repro").setLevel(numeric)
    return numeric
