"""`repro.service` — the long-lived selection-service front-end (DESIGN.md §11).

Everything before this package ran one scenario per process: the CLI
built a :class:`~repro.runtime.ScenarioRunner`, executed one spec and
exited.  The service keeps the runtime alive and puts an asyncio HTTP
front door on it:

* :class:`~.server.SelectionService` — validates and digests incoming
  :class:`~repro.runtime.ScenarioSpec` JSON, admits it onto a bounded
  queue (429 past the configured depth), schedules it onto a fixed set
  of workers that each own one run process *reusing* one ScenarioRunner
  across requests, journals progress durably (fsync'd checkpoints) so
  an in-flight request survives the death of its run process, and
  retains a bounded history of manifests.
* :class:`~.server.ServiceConfig` — every operational knob (workers,
  queue depth, durability, retention) in one dataclass, validated at
  construction.
* :mod:`.registry` — the WAL-style durable run registry (DESIGN.md
  §14): every run state transition journaled with per-entry hashes and
  torn-tail truncation, replayed at startup so a crashed or redeployed
  service re-admits queued runs and resumes in-flight ones.
* :mod:`.client` — a small stdlib HTTP client used by the CLI, the CI
  smoke job and the tests.
* :mod:`.load` — the saturation-finding load harness behind
  ``repro-bench load``; its headline numbers land in BENCH_core.json.

The service deliberately speaks plain HTTP/1.1 over ``asyncio`` streams
(no third-party framework): the request surface is five routes and the
container ships no async HTTP dependency.
"""

from .registry import RunRegistry
from .server import RunRecord, SelectionService, ServiceConfig, serve

__all__ = [
    "RunRecord",
    "RunRegistry",
    "SelectionService",
    "ServiceConfig",
    "serve",
]
