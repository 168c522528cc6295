"""Asyncio HTTP front-end for the scenario runtime (DESIGN.md §11).

Architecture — three decoupled stages, each with an explicit bound:

* **Admission** (event loop): ``POST /runs`` parses and validates the
  :class:`~repro.runtime.ScenarioSpec` JSON, computes its digest, and
  enqueues a :class:`RunRecord` onto a bounded :class:`asyncio.Queue`.
  A full queue rejects with ``429 Too Many Requests`` + ``Retry-After``
  instead of buffering without limit — backpressure is the contract,
  not a failure mode.
* **Execution** (run processes): ``ServiceConfig.workers`` asyncio
  tasks drain the queue, and each owns one long-lived *run process*, a
  :class:`~repro.runtime.proc.Child` forked from the event-loop thread
  once the program modules are loaded and before the listening socket
  is bound.  The run process owns the worker's
  :class:`~repro.runtime.ScenarioRunner` (and its pool, at
  ``jobs >= 2``) and executes one run at a time, so runs on different
  workers never share an interpreter lock.  Only the run crosses the
  pipe: the request is the run id, spec JSON, journal path and
  deadline; the reply (awaited through ``asyncio.wrap_future``) is the
  manifest, result, metrics snapshot and trace events, or how the run
  ended.  Every run gets its own
  fsync-durable checkpoint journal (keyed by *run id*, never by digest
  alone, so concurrent submissions of the same spec cannot collide)
  and its own :class:`~repro.obs.ObsSession`.
* **Retention** (event loop): finished records keep their manifest and
  sanitized result JSON in a bounded history (oldest evicted, journals
  unlinked), so a service hammered with thousands of submissions holds
  memory and disk constant.

Durability contract: a block the service has journaled survives power
loss (``durable=True`` fsyncs), a run killed mid-flight resumes from
its journal via ``POST /runs/<id>/retry``, and a completed run's
``result_sha256`` is bit-identical to the same spec+seed run through
``repro-bench run`` — the front-end changes *how* runs are scheduled,
never *what* they compute.

Crash-safety (DESIGN.md §14): every run state transition is journaled
to a WAL-style :class:`~.registry.RunRegistry` under the service state
dir.  A restart after SIGKILL replays the registry, re-admits queued
runs and resumes interrupted ones from their checkpoint journals —
recovered digests stay bit-identical to uninterrupted runs.  SIGTERM/
SIGINT trigger a graceful drain (503 + ``Retry-After`` on admission,
in-flight runs finish up to ``drain_timeout_s``, stragglers are
cancelled back to ``queued`` so nothing is lost), ``DELETE
/runs/<id>`` cancels cooperatively, and a per-submission
``deadline_s`` bounds how long a run may be scheduled.  A run process
that dies mid-run fails its run's Future with
:class:`~repro.runtime.proc.ChildDied`; it is replaced, and the run
resumes from its journal in the new one.  Run processes and their pool
children die with their parent, never orphaned.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import math
import signal
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Set, Tuple

from .. import obs as _obs
from ..obs import profile as _profile
from ..obs.metrics import MetricsRegistry
from ..obs.trace import RotatingTraceWriter
from ..runtime import RetryPolicy, ScenarioRunner, ScenarioSpec, load_builtin
from ..runtime.checkpoint import sweep_orphaned_journals
from ..runtime.faults import DeadlineExceededError, RunCancelledError
from ..runtime.proc import Child, ChildDied
from .registry import RunRegistry

__all__ = ["RunRecord", "SelectionService", "ServiceConfig", "serve"]

#: Statuses a run can end in.  ``deadline`` is the 504-style terminal
#: state of a run whose wall-clock budget expired.
TERMINAL_STATES = ("done", "failed", "cancelled", "deadline")

_LOGGER = logging.getLogger(__name__)

#: Protocol cap on one request head line / header line.
_MAX_LINE_BYTES = 16 * 1024
#: Protocol cap on one request body (413 beyond it).
_MAX_BODY_BYTES = 1024 * 1024
#: Protocol cap on the number of request headers.
_MAX_HEADERS = 64
#: A client connection that sends no request for this long is closed,
#: so idle keep-alive sockets stay bounded like the queue and history.
IDLE_CLOSE_S = 30.0


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class ServiceConfig:
    """Every operational knob of the selection service.

    Attributes:
        host / port: bind address (port 0 picks an ephemeral port).
        workers: worker tasks (= concurrent in-flight runs, >= 1); each
            owns one run process with one reused
            :class:`~repro.runtime.ScenarioRunner`.
        queue_depth: admission bound (>= 1) — submissions past this
            many *queued* (not yet running) runs get 429.
        jobs: process-pool width inside each run (>= 1; 1 = inside the
            run process; the service's parallelism axis is across runs,
            not within one).
        max_attempts / backoff_s / timeout_s: per-block supervision
            passed to every runner (see DESIGN.md §9).  ``max_attempts``
            also bounds how many run processes one run may outlive.
        durable: fsync checkpoint journals and the run registry (the
            service default; see
            :class:`~repro.runtime.checkpoint.CheckpointStore`).
        checkpoint_dir: journal directory (default: the state dir).
        state_dir: durable service state — the run-registry WAL and,
            unless ``checkpoint_dir`` overrides it, the checkpoint
            journals.  Restarting with the same state dir recovers
            queued and in-flight runs (default: the artifact cache dir
            under ``service/``).
        drain_timeout_s: how long a graceful shutdown waits (>= 0) for
            in-flight runs before cancelling them back to ``queued``.
        history_limit: finished runs retained in memory (>= 0); older
            records (and their journals) are evicted.
        trace_path: append every finished run's span events to a
            rotating JSONL sink here (None = no trace sink).  Every
            segment carries its own ``repro-trace`` header, so any
            segment feeds ``repro-bench report`` directly.
        trace_max_mb: per-segment size cap for the trace sink.
        profile_path: run the sampling profiler for the service's
            lifetime and write the collapsed-stack aggregate here at
            shutdown (None = no profiling).
    """

    host: str = "127.0.0.1"
    port: int = 8780
    workers: int = 2
    queue_depth: int = 64
    jobs: int = 1
    max_attempts: int = 3
    backoff_s: float = 0.05
    timeout_s: Optional[float] = None
    durable: bool = True
    checkpoint_dir: Optional[str] = None
    state_dir: Optional[str] = None
    drain_timeout_s: float = 30.0
    history_limit: int = 512
    trace_path: Optional[str] = None
    trace_max_mb: float = 64.0
    profile_path: Optional[str] = None

    def __post_init__(self) -> None:
        for name, floor in (
            ("workers", 1),
            ("jobs", 1),
            ("queue_depth", 1),
            ("history_limit", 0),
            ("drain_timeout_s", 0),
        ):
            if not getattr(self, name) >= floor:
                raise ValueError(
                    f"{name} must be >= {floor}, got {getattr(self, name)!r}"
                )

    def resolved_state_dir(self) -> Path:
        if self.state_dir is not None:
            return Path(self.state_dir)
        if self.checkpoint_dir is not None:
            return Path(self.checkpoint_dir)
        from ..measurement.artifacts import cache_dir

        return cache_dir() / "service"

    def resolved_checkpoint_dir(self) -> Path:
        if self.checkpoint_dir is not None:
            return Path(self.checkpoint_dir)
        return self.resolved_state_dir()


@dataclass
class RunRecord:
    """One submitted run, from admission to retention."""

    id: str
    scenario: str
    spec_digest: str
    seed: int
    spec_json: Dict[str, Any]
    status: str = "queued"  # queued | running | done | failed | cancelled | deadline
    submitted: str = ""
    started: str = ""
    finished: str = ""
    attempts: int = 0
    error: str = ""
    checkpoint_path: str = ""
    #: Wall-clock epoch instant past which the run must not execute;
    #: epoch (not monotonic) so the deadline survives a service restart.
    deadline_wall: Optional[float] = None
    manifest: Dict[str, Any] = field(default_factory=dict)
    result: Optional[Dict[str, Any]] = None

    def summary(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "scenario": self.scenario,
            "spec_digest": self.spec_digest,
            "seed": self.seed,
            "status": self.status,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "attempts": self.attempts,
            "error": self.error,
            "result_sha256": self.manifest.get("result_sha256", ""),
        }

    def detail(self) -> Dict[str, Any]:
        data = self.summary()
        data["checkpoint"] = self.checkpoint_path
        data["manifest"] = self.manifest
        return data


# ----------------------------------------------------------------------
# Minimal HTTP/1.1 plumbing (stdlib asyncio streams only).
# ----------------------------------------------------------------------

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class _Request:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    @property
    def close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


class _ProtocolError(Exception):
    """Malformed request; carries the status code to answer with."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


async def _read_request(reader: asyncio.StreamReader) -> Optional[_Request]:
    """Parse one HTTP/1.1 request, or None on a clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line:
        return None
    if len(line) > _MAX_LINE_BYTES:
        raise _ProtocolError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _ProtocolError(400, "malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = await reader.readline()
        if not line:
            raise _ProtocolError(400, "truncated headers")
        if line in (b"\r\n", b"\n"):
            break
        if len(line) > _MAX_LINE_BYTES:
            raise _ProtocolError(400, "header line too long")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _ProtocolError(400, "too many headers")
    if headers.get("transfer-encoding"):
        raise _ProtocolError(400, "chunked request bodies are not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _ProtocolError(400, "bad content-length") from None
    if length < 0:
        raise _ProtocolError(400, "bad content-length")
    if length > _MAX_BODY_BYTES:
        raise _ProtocolError(413, f"request body exceeds {_MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return _Request(method=method, path=path, headers=headers, body=body)


def _encode_response(
    code: int,
    body: bytes,
    content_type: str,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    head = [
        f"HTTP/1.1 {code} {_REASONS.get(code, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    head.extend(f"{name}: {value}" for name, value in extra_headers)
    head.append("\r\n")
    return "\r\n".join(head).encode("latin-1") + body


def _json_body(code: int, payload: Any, *extra: Tuple[str, str]) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return _encode_response(code, body, "application/json", tuple(extra))


def _text_body(code: int, text: str) -> bytes:
    return _encode_response(
        code, text.encode(), "text/plain; version=0.0.4; charset=utf-8"
    )


def _valid_deadline(deadline_s: Any) -> bool:
    """Absent, or a positive JSON number (``true`` is not one)."""
    return deadline_s is None or (type(deadline_s) in (int, float) and deadline_s > 0)


# ----------------------------------------------------------------------
# Run processes.
# ----------------------------------------------------------------------

class _RunRequest(NamedTuple):
    """All of a run that crosses into its run process."""

    id: str
    spec_json: Dict[str, Any]
    checkpoint_path: str
    deadline_wall: Optional[float]


def _make_runner(config: ServiceConfig) -> ScenarioRunner:
    return ScenarioRunner(
        jobs=config.jobs,
        retry=RetryPolicy(
            max_attempts=config.max_attempts,
            backoff_base_s=config.backoff_s,
            timeout_s=config.timeout_s,
        ),
        durable=config.durable,
    )


def _execute(
    runner: ScenarioRunner, record: _RunRequest
) -> Tuple[
    Dict[str, Any],
    Optional[Dict[str, Any]],
    Dict[str, Any],
    List[Dict[str, Any]],
]:
    """Run one request in the run process (the only place a run executes).

    ``resume=True`` is unconditional: a fresh run id has no journal
    (so it starts clean), while a retried record, or one whose previous
    run process died, picks up exactly the blocks journaled before.
    """
    spec = ScenarioSpec.from_json(record.spec_json)
    session = _obs.ObsSession()
    deadline_s: Optional[float] = None
    if record.deadline_wall is not None:
        deadline_s = max(0.0, record.deadline_wall - time.time())
    outcome = runner.run(
        spec,
        checkpoint=record.checkpoint_path,
        resume=True,
        obs=session,
        deadline_s=deadline_s,
    )
    manifest = outcome.manifest.to_json()
    result: Optional[Dict[str, Any]] = None
    try:
        from ..experiments.io import result_to_dict

        result = result_to_dict(outcome.result)
    except TypeError:
        result = None
    # The event buffer survives finalize (reset clears it); the serve
    # process appends it to the rotating sink, if one is configured.
    return manifest, result, session.metrics.snapshot(), list(session.tracer.events)


class _RunLane:
    """A run process's handler (a :class:`~repro.runtime.proc.Child`).

    It owns the worker's runner, and its pool at ``jobs >= 2``.  The
    serve process sends a run only after the previous one's reply, so
    one run at a time is current here.  The child's reader thread makes
    a run current as it arrives, re-arming the runner's cancel flag
    under the lock, and applies a cancel note only when it names the
    current run: a cancel before ``run()`` starts lands, and a late one
    never aborts the next run.  A hang-up aborts the current run.
    """

    def __init__(self, config: ServiceConfig):
        self.runner = _make_runner(config)
        self._lock = threading.Lock()
        self._current: Optional[str] = None

    def message(self, message: Any) -> None:
        with self._lock:
            if isinstance(message, _RunRequest):
                self._current = message.id
                self.runner.clear_cancel()
            elif self._current is not None and message in (None, self._current):
                # The serve process hung up, or a cancel names this run.
                self.runner.cancel()

    def __call__(self, request: _RunRequest) -> Dict[str, Any]:
        try:
            return self._outcome(request)
        finally:
            with self._lock:
                self._current = None

    def close(self) -> None:
        self.runner.close()

    def _outcome(self, request: _RunRequest) -> Dict[str, Any]:
        reply: Dict[str, Any]
        try:
            manifest, result, metrics, events = _execute(self.runner, request)
        except RunCancelledError:
            reply = {"outcome": "cancelled"}
        except DeadlineExceededError:
            reply = {"outcome": "deadline"}
        except Exception as error:
            reply = {
                "outcome": "failed",
                "error": f"{type(error).__name__}: {error}",
                "traceback": traceback.format_exc(),
            }
        else:
            reply = {
                "outcome": "done",
                "manifest": manifest,
                "result": result,
                "metrics": metrics,
                "events": events,
            }
        reply["shm_segments"] = len(self.runner._shm)
        reply["profile"] = _profile.drain_profile()
        return reply


# ----------------------------------------------------------------------
# The service.
# ----------------------------------------------------------------------


class SelectionService:
    """Long-lived scenario-execution service over asyncio HTTP.

    Lifecycle::

        service = SelectionService(ServiceConfig(port=0))
        await service.start()        # binds; service.port is now real
        ...
        await service.stop()

    All shared state (records, queue, metric registries) is touched only
    from the event-loop thread; run processes hand results back over
    their pipes to the worker coroutines.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.port: int = self.config.port
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: List[asyncio.Task] = []
        #: Each worker's run process, by worker index.
        self._children: List[Child] = []
        # Unbounded on purpose: admission control enforces
        # ``queue_depth`` explicitly in ``_submit``/``_retry`` (429),
        # while crash recovery must always be able to re-admit every
        # journaled run regardless of the configured depth.
        self._queue: "asyncio.Queue[RunRecord]" = asyncio.Queue()
        self._runs: Dict[str, RunRecord] = {}
        self._finished: Deque[str] = deque()
        #: Worker index of every executing run, keyed by run id — the
        #: cancel endpoint's route to the run's process.
        self._running: Dict[str, int] = {}
        #: Executing runs a cancel was sent for (client or drain).
        self._cancelling: Set[str] = set()
        self._registry: Optional[RunRegistry] = None
        self._sequence = 0
        self._inflight = 0
        self._draining = False
        self._started_at = 0.0
        #: Recent run wall times; feeds the computed Retry-After.
        self._durations: Deque[float] = deque(maxlen=64)
        #: Service-plane metrics (admission, HTTP, run latency).
        self.metrics = MetricsRegistry()
        #: Cumulative data-plane metrics folded from every finished
        #: run's ObsSession snapshot (counters/histograms add).
        self.run_metrics = MetricsRegistry()
        #: Live shm segments of each worker's runner, from its last reply.
        self._shm_segments: List[int] = []
        #: Rotating span-trace sink (``--trace``), None when off.
        self._trace_writer: Optional[RotatingTraceWriter] = None
        #: Open client connections: each one's handler task and writer.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._stopping = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("service already started")
        self._stopping = False
        self.config.resolved_state_dir().mkdir(parents=True, exist_ok=True)
        self.config.resolved_checkpoint_dir().mkdir(parents=True, exist_ok=True)
        self._registry = RunRegistry(
            self.config.resolved_state_dir() / "registry.jsonl",
            durable=self.config.durable,
        )
        if self.config.trace_path:
            self._trace_writer = RotatingTraceWriter(
                self.config.trace_path,
                header={"service": "repro-selection-service"},
                max_bytes=max(1024, int(self.config.trace_max_mb * 1024 * 1024)),
            )
        if self.config.profile_path:
            _profile.start_profiling()
        self._recover()
        self._collect_garbage()
        # Fork after the program modules are loaded (no run process
        # imports them again) and before the socket is bound.
        load_builtin()
        self._children = [
            Child(functools.partial(_RunLane, self.config))
            for _ in range(self.config.workers)
        ]
        self._shm_segments = [0] * self.config.workers
        self._workers = [
            asyncio.get_running_loop().create_task(self._worker_loop(index))
            for index in range(self.config.workers)
        ]
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._update_gauges()
        _LOGGER.info(
            "selection service listening on %s:%d (%d workers, queue %d)",
            self.config.host,
            self.port,
            self.config.workers,
            self.config.queue_depth,
        )

    async def stop(self) -> None:
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._close_connections()
            await self._server.wait_closed()
            self._server = None
        for task in self._workers:
            task.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        for child in self._children:
            child.close()
        self._children = []
        if self._registry is not None:
            self._registry.close()
            self._registry = None
        if self._trace_writer is not None:
            self._trace_writer.close()
            self._trace_writer = None
        if self.config.profile_path and _profile.active_sampler() is not None:
            profile = _profile.stop_profiling()
            stacks, samples = _profile.write_collapsed(
                self.config.profile_path,
                profile,
                header={"service": "repro-selection-service"},
            )
            _LOGGER.info(
                "wrote service profile to %s (%d stacks, %d samples)",
                self.config.profile_path,
                stacks,
                samples,
            )

    async def drain(self, timeout_s: Optional[float] = None) -> None:
        """Graceful shutdown, phase 1: stop admitting, finish in flight.

        New submissions get 503 + ``Retry-After`` the moment this is
        entered; queued runs stay queued (their registry state already
        says so, a restart re-admits them).  In-flight runs get up to
        ``timeout_s`` to finish; stragglers are cooperatively cancelled
        and journaled back to ``queued`` — a drain never loses a run,
        it only decides how much of it happens now versus after the
        next start.
        """
        if timeout_s is None:
            timeout_s = self.config.drain_timeout_s
        self._draining = True
        self._update_gauges()
        deadline = time.monotonic() + max(0.0, float(timeout_s))
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        if self._inflight > 0:
            _LOGGER.warning(
                "drain timeout: cancelling %d in-flight run(s) back to queued",
                self._inflight,
            )
            for run_id in list(self._running):
                self._send_cancel(run_id)
            # The cancel lands at the next chunk boundary; wait for the
            # workers to journal the interrupted runs back to queued.
            while self._inflight > 0:
                await asyncio.sleep(0.05)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # -- crash recovery / startup GC -------------------------------------

    @staticmethod
    def _record_from_state(state: Dict[str, Any]) -> RunRecord:
        return RunRecord(
            id=str(state["id"]),
            scenario=str(state.get("scenario", "")),
            spec_digest=str(state.get("spec_digest", "")),
            seed=int(state.get("seed", 0)),
            spec_json=dict(state.get("spec_json") or {}),
            status=str(state.get("status", "queued")),
            submitted=str(state.get("submitted", "")),
            started=str(state.get("started", "")),
            finished=str(state.get("finished", "")),
            attempts=int(state.get("attempts", 0)),
            error=str(state.get("error", "")),
            checkpoint_path=str(state.get("checkpoint_path", "")),
            deadline_wall=state.get("deadline_wall"),
            manifest=dict(state.get("manifest") or {}),
        )

    @staticmethod
    def _sequence_of(run_id: str) -> int:
        try:
            return int(run_id[1:].split("-", 1)[0])
        except (ValueError, IndexError):
            return 0

    def _recover(self) -> None:
        """Replay the run registry: restore history, re-admit live runs.

        Queued and running runs are re-admitted in submission order
        with ``resume=True`` semantics — an interrupted run picks up
        from its checkpoint journal, so its final digest is
        bit-identical to an uninterrupted execution.  Terminal runs
        come back as history (manifests only; result payloads are not
        retained across restarts — re-submit to recompute cheaply from
        the digest-stable pipeline).
        """
        assert self._registry is not None
        replayed = self._registry.replay()
        if not replayed:
            self._registry.maybe_compact()
            return
        recovered = {"queued": 0, "running": 0, "terminal": 0}
        for run_id in sorted(replayed, key=self._sequence_of):
            state = replayed[run_id]
            record = self._record_from_state(state)
            self._sequence = max(self._sequence, self._sequence_of(run_id))
            self._runs[run_id] = record
            if record.status in TERMINAL_STATES:
                self._finished.append(run_id)
                recovered["terminal"] += 1
                continue
            recovered[record.status] = recovered.get(record.status, 0) + 1
            # An interrupted ``running`` run restarts as queued; its
            # attempt counter survives and its journal resumes it.
            if record.status != "queued":
                record.status = "queued"
                self._registry.record(run_id, "queued", attempts=record.attempts)
            self._queue.put_nowait(record)
            self.metrics.inc("service_recovered_total", state="queued")
        if recovered["queued"] or recovered["running"]:
            _LOGGER.warning(
                "recovered %d queued and %d interrupted run(s) from %s",
                recovered["queued"],
                recovered["running"],
                self._registry.path,
            )
        compacted = self._registry.compact()
        if compacted:
            _LOGGER.info("compacted run registry (%d events dropped)", compacted)

    def _collect_garbage(self) -> None:
        """Sweep the checkpoint journals a crashed predecessor left
        behind: those in the journal dir that no retained run
        references (their runs were evicted, or the registry that knew
        them is gone)."""
        swept = sweep_orphaned_journals(
            self.config.resolved_checkpoint_dir(),
            (record.checkpoint_path for record in self._runs.values()),
        )
        for path in swept:
            self.metrics.inc("service_gc_total", kind="journal")
            _LOGGER.warning("gc: reclaimed orphaned checkpoint journal %s", path)

    # -- HTTP dispatch ---------------------------------------------------

    async def _close_connections(self) -> None:
        """Close every client connection and await its handler.

        An idle connection's handler wakes at EOF and returns; one
        mid-exchange loses its response, as it would at process exit.
        """
        for writer in self._connections.values():
            writer.close()
        await asyncio.gather(*self._connections, return_exceptions=True)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._stopping:  # accepted just before stop() closed the rest
            writer.close()
            return
        task = asyncio.current_task()
        self._connections[task] = writer
        loop = asyncio.get_running_loop()
        try:
            while True:
                # Closing the transport ends a request wait at EOF.
                idle = loop.call_later(IDLE_CLOSE_S, writer.close)
                try:
                    request = await _read_request(reader)
                except _ProtocolError as error:
                    writer.write(
                        _json_body(error.code, {"error": str(error)})
                    )
                    await writer.drain()
                    break
                except asyncio.IncompleteReadError:
                    break
                finally:
                    idle.cancel()
                if request is None:
                    break
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if request.close:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _dispatch(self, request: _Request) -> bytes:
        route, response = await self._route(request)
        code = int(response.split(b" ", 2)[1])
        self.metrics.inc("service_http_requests_total", route=route, code=code)
        return response

    async def _route(self, request: _Request) -> Tuple[str, bytes]:
        method, path = request.method, request.path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return "healthz", _json_body(200, self._healthz())
        if path == "/metrics" and method == "GET":
            return "metrics", _text_body(200, self._render_metrics())
        if path == "/runs" and method == "POST":
            response = self._submit(request.body)
            await self._hand_off()
            return "submit", response
        if path == "/runs" and method == "GET":
            return "list", _json_body(
                200, {"runs": [self._runs[rid].summary() for rid in self._runs]}
            )
        if path.startswith("/runs/"):
            tail = path[len("/runs/"):]
            if tail.endswith("/retry") and method == "POST":
                response = self._retry(tail[: -len("/retry")], request.body)
                await self._hand_off()
                return "retry", response
            if tail.endswith("/result") and method == "GET":
                return "result", self._result(tail[: -len("/result")])
            if method == "DELETE":
                return "cancel", self._cancel(tail)
            if method == "GET":
                record = self._runs.get(tail)
                if record is None:
                    return "status", _json_body(404, {"error": f"no run '{tail}'"})
                return "status", _json_body(200, record.detail())
        if path == "/" and method == "GET":
            return "index", _json_body(
                200,
                {
                    "service": "repro-selection-service",
                    "routes": [
                        "POST /runs",
                        "GET /runs",
                        "GET /runs/<id>",
                        "GET /runs/<id>/result",
                        "POST /runs/<id>/retry",
                        "DELETE /runs/<id>",
                        "GET /metrics",
                        "GET /healthz",
                    ],
                },
            )
        return "unknown", _json_body(
            405 if path in ("/runs", "/metrics", "/healthz", "/") else 404,
            {"error": f"no route for {method} {path}"},
        )

    # -- admission -------------------------------------------------------

    @staticmethod
    async def _hand_off() -> None:
        """Let an idle worker take a just-queued run before the 202 leaves.

        ``put_nowait`` woke the worker; yielding once lets it journal
        the run ``running`` and send it to its run process (all without
        awaiting), so the run starts while the response is written, and
        a client holding the 202 of a run an idle worker took finds its
        ``running`` transition already journaled.
        """
        await asyncio.sleep(0)

    def _retry_after_s(self) -> float:
        """How long a rejected client should wait, from observed drain rate.

        p50 run duration × waiting runs ÷ workers, clamped to [1, 60] —
        an empty-history service answers 1 s, a backed-up one tells
        clients the truth instead of inviting a thundering herd.
        """
        if self._durations:
            ordered = sorted(self._durations)
            p50 = ordered[len(ordered) // 2]
        else:
            p50 = 1.0
        waiting = self._queue.qsize() + self._inflight
        value = p50 * max(1, waiting) / self.config.workers
        value = max(1.0, min(60.0, value))
        self.metrics.set_gauge("service_retry_after_s", value)
        return value

    def _reject(self, code: int, payload: Dict[str, Any]) -> bytes:
        retry_after = self._retry_after_s()
        payload.setdefault("retry_after_s", round(retry_after, 3))
        return _json_body(
            code, payload, ("Retry-After", str(int(math.ceil(retry_after))))
        )

    def _submit(self, body: bytes) -> bytes:
        try:
            data = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError):
            self.metrics.inc("service_submissions_total", outcome="invalid")
            return _json_body(400, {"error": "request body is not valid JSON"})
        if not isinstance(data, dict):
            self.metrics.inc("service_submissions_total", outcome="invalid")
            return _json_body(400, {"error": "request body must be a spec object"})
        # Two accepted shapes: a bare spec object (optionally carrying a
        # top-level ``deadline_s``, which the spec parser ignores), or
        # an envelope ``{"spec": {...}, "deadline_s": ...}``.
        spec_data = data["spec"] if isinstance(data.get("spec"), dict) else data
        deadline_s = data.get("deadline_s")
        if not _valid_deadline(deadline_s):
            self.metrics.inc("service_submissions_total", outcome="invalid")
            return _json_body(400, {"error": "deadline_s must be a positive number"})
        try:
            spec = ScenarioSpec.from_json(spec_data)
            from ..runtime.registry import get_scenario

            get_scenario(spec.scenario)
        except (KeyError, TypeError, ValueError) as error:
            self.metrics.inc("service_submissions_total", outcome="invalid")
            return _json_body(400, {"error": f"invalid scenario spec: {error}"})

        if self._draining:
            self.metrics.inc("service_submissions_total", outcome="drained")
            return self._reject(503, {"error": "service is draining"})
        if self._queue.qsize() >= self.config.queue_depth:
            self.metrics.inc("service_submissions_total", outcome="rejected")
            self._update_gauges()
            return self._reject(
                429,
                {
                    "error": "run queue is full",
                    "queue_depth": self._queue.qsize(),
                    "queue_limit": self.config.queue_depth,
                },
            )
        digest = spec.digest()
        self._sequence += 1
        run_id = f"r{self._sequence:06d}-{digest[:8]}"
        record = RunRecord(
            id=run_id,
            scenario=spec.scenario,
            spec_digest=digest,
            seed=spec.seed,
            spec_json=spec.to_json(),
            submitted=_utcnow(),
            checkpoint_path=str(
                self.config.resolved_checkpoint_dir() / f"{run_id}.jsonl"
            ),
            deadline_wall=(
                time.time() + float(deadline_s) if deadline_s is not None else None
            ),
        )
        self._journal_transition(
            record,
            "queued",
            scenario=record.scenario,
            spec_digest=record.spec_digest,
            seed=record.seed,
            spec_json=record.spec_json,
            submitted=record.submitted,
            checkpoint_path=record.checkpoint_path,
            deadline_wall=record.deadline_wall,
        )
        self._queue.put_nowait(record)
        self._runs[run_id] = record
        self.metrics.inc("service_submissions_total", outcome="accepted")
        self._update_gauges()
        return _json_body(
            202,
            {
                "run": run_id,
                "spec_digest": digest,
                "status": record.status,
                "queue_depth": self._queue.qsize(),
            },
        )

    def _retry(self, run_id: str, body: bytes) -> bytes:
        record = self._runs.get(run_id)
        if record is None:
            return _json_body(404, {"error": f"no run '{run_id}'"})
        if record.status in ("queued", "running"):
            return _json_body(409, {"error": f"run '{run_id}' is {record.status}"})
        options: Dict[str, Any] = {}
        if body:
            try:
                options = json.loads(body.decode())
            except (json.JSONDecodeError, UnicodeDecodeError):
                return _json_body(400, {"error": "retry body is not valid JSON"})
        if not isinstance(options, dict):
            return _json_body(400, {"error": "retry body must be an object"})
        deadline_s = options.get("deadline_s")
        if not _valid_deadline(deadline_s):
            return _json_body(400, {"error": "deadline_s must be a positive number"})
        if self._draining:
            return self._reject(503, {"error": "service is draining"})
        if self._queue.qsize() >= self.config.queue_depth:
            return self._reject(429, {"error": "run queue is full"})
        # A retry recovers from an interrupted/failed execution by
        # resuming the durable journal; an injected fault-plan overlay
        # describes the *failure experiment*, so replaying it would
        # deterministically fail again — drop it unless asked not to.
        if options.get("keep_faults") is not True:
            record.spec_json.pop("faults", None)
        record.status = "queued"
        record.error = ""
        # A retried run gets a fresh deadline budget only if the caller
        # provides one; the original (likely already blown) is cleared.
        record.deadline_wall = (
            time.time() + float(deadline_s) if deadline_s is not None else None
        )
        self._journal_transition(
            record,
            "queued",
            spec_json=record.spec_json,
            error="",
            finished="",
            deadline_wall=record.deadline_wall,
        )
        self._queue.put_nowait(record)
        self._finished = deque(rid for rid in self._finished if rid != run_id)
        self.metrics.inc("service_submissions_total", outcome="retried")
        self._update_gauges()
        return _json_body(
            202, {"run": run_id, "status": "queued", "resume": True}
        )

    def _cancel(self, run_id: str) -> bytes:
        """Cooperative cancellation of a queued or running run.

        A queued run is settled immediately (the worker skips its queue
        entry).  A running run's process gets a cancel naming the run;
        the abort lands at the next chunk boundary and the worker
        finalizes the record.
        Either way the checkpoint journal is *kept* — ``POST
        /runs/<id>/retry`` resumes from exactly the blocks that
        finished before the cancel.
        """
        record = self._runs.get(run_id)
        if record is None:
            return _json_body(404, {"error": f"no run '{run_id}'"})
        if record.status in TERMINAL_STATES:
            return _json_body(
                409, {"error": f"run '{run_id}' already {record.status}"}
            )
        if record.status == "queued":
            record.status = "cancelled"
            record.error = "cancelled before start"
            record.finished = _utcnow()
            self._journal_transition(
                record, "cancelled", error=record.error, finished=record.finished
            )
            self._finished.append(run_id)
            self.metrics.inc(
                "service_runs_total", scenario=record.scenario, status="cancelled"
            )
            self._evict_history()
            self._update_gauges()
            return _json_body(200, {"run": run_id, "status": "cancelled"})
        self._send_cancel(run_id)
        self.metrics.inc("service_cancellations_total", state="running")
        return _json_body(202, {"run": run_id, "status": "cancelling"})

    def _result(self, run_id: str) -> bytes:
        record = self._runs.get(run_id)
        if record is None:
            return _json_body(404, {"error": f"no run '{run_id}'"})
        if record.status != "done" or record.result is None:
            return _json_body(
                404,
                {"error": f"run '{run_id}' has no result (status {record.status})"},
            )
        return _json_body(200, {"run": run_id, "result": record.result})

    # -- execution -------------------------------------------------------

    def _send_cancel(self, run_id: str) -> None:
        """Route a cancel, tagged with its run id, to the run's process."""
        index = self._running.get(run_id)
        if index is not None:
            self._cancelling.add(run_id)
            self._children[index].note(run_id)

    def _replace_child(self, index: int) -> Child:
        """Reap worker ``index``'s dead run process and fork a
        replacement (from the event-loop thread)."""
        self._children[index].close()
        self._children[index] = Child(functools.partial(_RunLane, self.config))
        self._shm_segments[index] = 0
        return self._children[index]

    async def _run_in_process(self, index: int, record: RunRecord) -> Dict[str, Any]:
        """Execute ``record`` in worker ``index``'s run process.

        A run process that dies is replaced, and the run resumes from
        its checkpoint journal in the new one, journaled ``running``
        with one more attempt — the resume ≡ clean path of restart
        recovery.  After ``max_attempts`` deaths the run fails; a run
        that was being cancelled ends cancelled instead.
        """
        request = _RunRequest(
            record.id, record.spec_json, record.checkpoint_path, record.deadline_wall
        )
        child = self._children[index]
        if child.dead:  # died between runs: no attempt's cost
            child = self._replace_child(index)
        deaths = 0
        while True:
            try:
                return await asyncio.wrap_future(child.submit(request))
            except ChildDied as death:
                deaths += 1
                child = self._replace_child(index)
                _LOGGER.warning(
                    "run %s: %s (attempt %d)", record.id, death, record.attempts
                )
                if record.id in self._cancelling:
                    return {"outcome": "cancelled"}
                if deaths >= self.config.max_attempts:
                    return {
                        "outcome": "failed",
                        "error": f"{type(death).__name__}: {death} "
                        f"on all {deaths} attempt(s)",
                    }
                record.attempts += 1
                self._journal_transition(record, "running", attempts=record.attempts)

    async def _worker_loop(self, index: int) -> None:
        try:
            while True:
                record = await self._queue.get()
                if record.status != "queued":
                    # Cancelled while waiting in the queue — its
                    # terminal transition is already journaled.
                    self._queue.task_done()
                    continue
                if self._draining:
                    # Stay queued: the registry already says so, and
                    # the next start re-admits it.  Consumed once, so
                    # this never spins.
                    self._queue.task_done()
                    continue
                if (
                    record.deadline_wall is not None
                    and time.time() >= record.deadline_wall
                ):
                    self._settle_terminal(
                        record, "deadline", "deadline expired before the run started"
                    )
                    self._queue.task_done()
                    continue
                self._inflight += 1
                record.status = "running"
                record.started = _utcnow()
                record.attempts += 1
                self._journal_transition(
                    record,
                    "running",
                    started=record.started,
                    attempts=record.attempts,
                )
                self._update_gauges()
                begin = time.perf_counter()
                requeued = False
                self._running[record.id] = index
                try:
                    reply = await self._run_in_process(index, record)
                    requeued = self._settle_reply(index, record, reply)
                finally:
                    self._running.pop(record.id, None)
                    self._cancelling.discard(record.id)
                    elapsed = time.perf_counter() - begin
                    self.metrics.observe(
                        "service_run_seconds",
                        elapsed,
                        scenario=record.scenario,
                    )
                    self._inflight -= 1
                    if not requeued:
                        if not record.finished:
                            record.finished = _utcnow()
                        self._durations.append(elapsed)
                        self._finished.append(record.id)
                        self._evict_history()
                    self._update_gauges()
                    self._queue.task_done()
        except asyncio.CancelledError:
            pass

    def _settle_reply(
        self, index: int, record: RunRecord, reply: Dict[str, Any]
    ) -> bool:
        """Journal how a run ended; True when it went back to ``queued``."""
        if "shm_segments" in reply:
            self._shm_segments[index] = reply["shm_segments"]
        _profile.merge_profile(reply.get("profile"))
        outcome = reply["outcome"]
        if outcome == "cancelled":
            if self._draining:
                # Drain-timeout interruption is not a client cancel:
                # journal the run back to queued so the next start
                # resumes it — zero lost runs.
                record.status = "queued"
                record.started = ""
                self._journal_transition(
                    record, "queued", attempts=record.attempts, started=""
                )
                _LOGGER.warning(
                    "run %s interrupted by drain; resumes on next start", record.id
                )
                return True
            record.finished = _utcnow()
            self._settle_terminal(
                record, "cancelled", "cancelled while running", retain=False
            )
        elif outcome == "deadline":
            record.finished = _utcnow()
            self._settle_terminal(
                record, "deadline", "run deadline exceeded", retain=False
            )
        elif outcome == "failed":
            record.status = "failed"
            record.error = reply["error"]
            record.finished = _utcnow()
            self._journal_transition(
                record, "failed", error=record.error, finished=record.finished
            )
            self.metrics.inc(
                "service_runs_total", scenario=record.scenario, status="failed"
            )
            _LOGGER.warning(
                "run %s (%s) failed: %s\n%s",
                record.id,
                record.scenario,
                record.error,
                reply.get("traceback", ""),
            )
        else:
            record.status = "done"
            record.manifest = reply["manifest"]
            record.result = reply["result"]
            record.finished = _utcnow()
            self.run_metrics.merge(reply["metrics"])
            if self._trace_writer is not None and reply["events"]:
                # One batch per run, stamped with the run id; rotation
                # happens between batches so a run's trace never splits
                # across segments.
                self._trace_writer.write(reply["events"], run=record.id)
            self.metrics.inc(
                "service_runs_total", scenario=record.scenario, status="done"
            )
            self._journal_transition(
                record, "done", finished=record.finished, manifest=record.manifest
            )
            self._discard_journal(record)
        return False

    def _settle_terminal(
        self, record: RunRecord, status: str, error: str, retain: bool = True
    ) -> None:
        """Finalize a run that ended without a result (journal kept)."""
        record.status = status
        record.error = error
        if not record.finished:
            record.finished = _utcnow()
        self._journal_transition(
            record, status, error=error, finished=record.finished
        )
        self.metrics.inc(
            "service_runs_total", scenario=record.scenario, status=status
        )
        if retain:
            self._finished.append(record.id)
            self._evict_history()
            self._update_gauges()

    # -- retention / introspection --------------------------------------

    def _journal_transition(self, record: RunRecord, to: str, **fields: Any) -> None:
        """Append one state transition to the durable run registry."""
        if self._registry is not None:
            self._registry.record(record.id, to, **fields)
            self._registry.maybe_compact()

    def _discard_journal(self, record: RunRecord) -> None:
        """A completed run's journal has served its purpose — drop it."""
        try:
            Path(record.checkpoint_path).unlink(missing_ok=True)
        except OSError:  # pragma: no cover - non-fatal cleanup race
            pass

    def _evict_history(self) -> None:
        while len(self._finished) > self.config.history_limit:
            run_id = self._finished.popleft()
            record = self._runs.pop(run_id, None)
            if record is not None:
                self._journal_transition(record, "evicted")
                self._discard_journal(record)

    def _update_gauges(self) -> None:
        self.metrics.set_gauge("service_queue_depth", self._queue.qsize())
        self.metrics.set_gauge("service_runs_inflight", self._inflight)
        self.metrics.set_gauge("service_runs_retained", len(self._runs))
        self.metrics.set_gauge("service_draining", 1 if self._draining else 0)
        # Resource-plane gauges: live shared-memory segments across the
        # run processes' runners (as of each one's last reply), the
        # registry WAL's size on disk, and how full the finished-run
        # history is.  The segments are anonymous, so this gauge is the
        # only place an operator sees them counted.
        self.metrics.set_gauge("service_shm_segments", sum(self._shm_segments))
        if self._registry is not None:
            try:
                journal_bytes = self._registry.path.stat().st_size
            except OSError:  # pragma: no cover - racing a compaction
                journal_bytes = 0
            self.metrics.set_gauge("service_registry_journal_bytes", journal_bytes)
            self.metrics.set_gauge("service_registry_events", self._registry.events)
        self.metrics.set_gauge("service_history_occupancy", len(self._finished))
        self.metrics.set_gauge("service_history_limit", self.config.history_limit)
        sampler = _profile.active_sampler()
        if sampler is not None:
            self.metrics.set_gauge("service_profile_samples_total", sampler.samples)

    def _status_counts(self) -> Dict[str, int]:
        counts = {
            "queued": 0,
            "running": 0,
            "done": 0,
            "failed": 0,
            "cancelled": 0,
            "deadline": 0,
        }
        for record in self._runs.values():
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    def _healthz(self) -> Dict[str, Any]:
        counts = self._status_counts()
        active = [
            record.summary()
            for record in self._runs.values()
            if record.status in ("queued", "running")
        ]
        degraded = counts["failed"] > 0
        return {
            "status": "draining" if self._draining else (
                "degraded" if degraded else "ok"
            ),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "workers": self.config.workers,
            "queue": {
                "depth": self._queue.qsize(),
                "limit": self.config.queue_depth,
            },
            "inflight": self._inflight,
            "draining": self._draining,
            "retry_after_s": round(self._retry_after_s(), 3),
            "runs": counts,
            "active": active,
            "durable": self.config.durable,
        }

    def _render_metrics(self) -> str:
        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        merged.merge(self.run_metrics.snapshot())
        return merged.render_prometheus()


async def serve(config: Optional[ServiceConfig] = None) -> None:
    """Run the service until signalled (the ``repro-bench serve`` body).

    SIGTERM/SIGINT trigger a graceful drain instead of tearing the
    loop down mid-run: admission flips to 503, in-flight runs get
    ``drain_timeout_s`` to finish (stragglers are cancelled back to
    ``queued``), every transition is journaled, and the coroutine
    returns normally so the process exits 0.
    """
    service = SelectionService(config)
    await service.start()
    # One write, so a run process logging meanwhile to the same pipe
    # cannot split the line a supervisor parses the port from.
    sys.stdout.write(
        f"selection service listening on "
        f"http://{service.config.host}:{service.port}\n"
    )
    sys.stdout.flush()
    loop = asyncio.get_running_loop()
    shutdown = asyncio.Event()
    installed: List[int] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, shutdown.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            pass
    server_task = asyncio.ensure_future(service.serve_forever())
    shutdown_task = asyncio.ensure_future(shutdown.wait())
    try:
        await asyncio.wait(
            {server_task, shutdown_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if shutdown.is_set():
            print("shutdown signal received; draining...", flush=True)
            await service.drain()
            print("drain complete", flush=True)
    finally:
        for task in (server_task, shutdown_task):
            task.cancel()
        await asyncio.gather(server_task, shutdown_task, return_exceptions=True)
        for signum in installed:
            loop.remove_signal_handler(signum)
        await service.stop()
