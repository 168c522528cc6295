"""Chaos campaign harness: prove the service survives real crashes.

``repro-bench chaos`` drives a *live* ``repro-bench serve`` subprocess
through a deterministic, seeded campaign of failure events and checks
the recovery invariants the design promises (DESIGN.md §14):

* ``worker-kill``    — SIGKILL the run's run process or one of its
  fork-pool workers mid-run; the service replaces the run process and
  resumes the run from its journal, or supervision replaces the pool;
  the run shows the hit, and its digest still matches a clean local
  execution.
* ``serve-restart``  — SIGKILL the whole service mid-run, restart it on
  the same ``--state-dir``; the run registry re-admits the interrupted
  run, the checkpoint journal resumes it (``checkpoint_hits > 0``) and
  the final digest is bit-identical to an uninterrupted run.
* ``torn-tail``      — while the service is down, append a torn
  (newline-less) line to the run registry and tear an interrupted
  run's checkpoint journal mid-entry; the restart truncates both tails,
  retained history survives intact and the resumed run's digest
  matches a clean run.
* ``shm-evict``      — plant a leaked ``/dev/shm/repro-kernels-*``
  segment; startup GC reclaims it.
* ``deadline-storm`` — a burst of submissions with microscopic
  deadlines all settle in the terminal ``deadline`` state while a
  normal bystander run completes unharmed.

The bar everywhere is *bit-identity*, not mere survival: every digest
produced under chaos must equal the digest of the same spec run
uninterrupted through a local :class:`~repro.runtime.ScenarioRunner`.
The campaign ends with a graceful SIGTERM (drain must exit 0 with zero
lost runs) and offline invariants: the registry replays consistently,
no checkpoint journal is orphaned, no shm segment leaked, and the
health accounting matches the event ledger exactly.

``service_recovery_s`` (kill → restarted service answering for the
interrupted run) lands in BENCH_core.json; ``--gate-recovery-s`` turns
it into a CI gate.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ChaosConfig", "ChaosReport", "run_chaos", "DEFAULT_EVENTS"]

#: The full campaign, in execution order.
DEFAULT_EVENTS: Tuple[str, ...] = (
    "worker-kill",
    "serve-restart",
    "torn-tail",
    "shm-evict",
    "deadline-storm",
)

#: States the service will never leave.
_TERMINAL = ("done", "failed", "cancelled", "deadline")


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one chaos campaign."""

    state_dir: str
    seed: int = 2017
    events: Tuple[str, ...] = DEFAULT_EVENTS
    workers: int = 2
    jobs: int = 2
    drain_timeout_s: float = 30.0
    startup_timeout_s: float = 90.0
    run_timeout_s: float = 240.0
    gate_recovery_s: Optional[float] = None


@dataclass
class ChaosReport:
    """Everything one campaign observed."""

    seed: int
    events: List[Dict[str, Any]] = field(default_factory=list)
    invariants: Dict[str, bool] = field(default_factory=dict)
    details: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    def ok(self) -> bool:
        return bool(self.invariants) and all(self.invariants.values())

    def format_rows(self) -> List[str]:
        rows = [f"chaos campaign: seed={self.seed}"]
        for event in self.events:
            parts = " ".join(
                f"{key}={value}" for key, value in event.items() if key != "event"
            )
            rows.append(f"  event {event['event']:<16s} {parts}")
        for name in sorted(self.invariants):
            verdict = "ok" if self.invariants[name] else "FAILED"
            detail = self.details.get(name, "")
            suffix = f"  ({detail})" if detail and verdict == "FAILED" else ""
            rows.append(f"  invariant {name:<36s} {verdict}{suffix}")
        for name in sorted(self.metrics):
            rows.append(f"  {name:46s} {self.metrics[name]:12.5g}")
        return rows


def _children(pid: int) -> List[int]:
    """Direct child processes of ``pid``.

    Children are listed per *thread*, since a process may fork from
    several threads: only walking every ``/proc/<pid>/task/<tid>`` sees
    them all.
    """
    children: List[int] = []
    try:
        tids = sorted(path.name for path in Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return []
    for tid in tids:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
        except OSError:
            continue
        children.extend(int(part) for part in text.split())
    return sorted(set(children))


def _all_children(pid: int) -> List[int]:
    """Every descendant process of a service: its run processes, their
    pool workers and resource trackers."""
    found: List[int] = []
    pending = _children(pid)
    while pending:
        child = pending.pop()
        if child not in found:
            found.append(child)
            pending.extend(_children(child))
    return sorted(found)


def _pool_children(pid: int) -> List[int]:
    """Run processes and pool workers of a service, resource trackers
    excluded: the processes a ``worker-kill`` may shoot."""
    children: List[int] = []
    for child in _all_children(pid):
        try:
            cmdline = (
                Path(f"/proc/{child}/cmdline")
                .read_bytes()
                .replace(b"\0", b" ")
                .decode(errors="replace")
            )
        except OSError:
            continue
        if "resource_tracker" in cmdline:
            continue
        children.append(child)
    return children


def _holder(path: Path, pids: List[int]) -> Optional[int]:
    """The process among ``pids`` that holds ``path`` open, or None."""
    target = os.path.realpath(path)
    for pid in pids:
        try:
            fds = os.listdir(f"/proc/{pid}/fd")
        except OSError:
            continue
        for fd in fds:
            try:
                if os.readlink(f"/proc/{pid}/fd/{fd}") == target:
                    return pid
            except OSError:
                continue
    return None


def _journal_entries(path: Path) -> int:
    """Completed-block entries in a checkpoint journal (header excluded)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return 0
    return max(0, text.count("\n") - 1)


class _ManagedService:
    """One ``repro-bench serve`` subprocess the campaign owns."""

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None
        self._lines: List[str] = []

    def start(self) -> None:
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            str(self.port),
            "--state-dir",
            str(self.config.state_dir),
            "--workers",
            str(self.config.workers),
            "--jobs",
            str(self.config.jobs),
            "--drain-timeout",
            str(self.config.drain_timeout_s),
            "--sweep-shm",
        ]
        self._lines = []
        # The subprocess must import the same repro package as this
        # process, installed or straight from a source tree.
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (package_root, env.get("PYTHONPATH", ""))
            if part
        )
        # Post-mortem stacks on a fatal signal cost nothing and turn a
        # wedged service under chaos into a readable bug report.
        env.setdefault("PYTHONFAULTHANDLER", "1")
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        threading.Thread(
            target=self._pump, args=(self.proc,), daemon=True
        ).start()
        deadline = time.monotonic() + self.config.startup_timeout_s
        while time.monotonic() < deadline:
            for line in tuple(self._lines):
                if "listening on http://" in line:
                    self.port = int(line.strip().rsplit(":", 1)[1])
                    return
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "service exited during startup "
                    f"(rc={self.proc.returncode}):\n{''.join(self._lines)}"
                )
            time.sleep(0.02)
        raise TimeoutError("service never reported a listening port")

    def _pump(self, proc: subprocess.Popen) -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            self._lines.append(line)

    @property
    def client(self):
        from ..service.client import ServiceClient

        return ServiceClient(port=self.port, timeout=30.0)

    def kill(self) -> None:
        """SIGKILL: the crash the durable state dir must survive.

        Run processes and their pool workers die with the service; any
        descendant still alive is killed too, then the restart waits
        for the port to actually free.
        """
        assert self.proc is not None
        orphans = _all_children(self.proc.pid)
        self.proc.kill()
        self.proc.wait()
        for child in orphans:
            try:
                os.kill(child, signal.SIGKILL)
            except OSError:
                pass
        self._wait_port_free()

    def _wait_port_free(self, timeout_s: float = 30.0) -> None:
        if not self.port:
            return
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            probe = socket.socket()
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                probe.bind(("127.0.0.1", self.port))
                return
            except OSError:
                time.sleep(0.05)
            finally:
                probe.close()
        raise TimeoutError(f"port {self.port} never freed after SIGKILL")

    def terminate(self, timeout_s: float = 120.0) -> Tuple[int, str]:
        """SIGTERM: graceful drain; returns (exit code, captured output)."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        rc = self.proc.wait(timeout=timeout_s)
        time.sleep(0.2)  # let the pump thread drain the last lines
        return rc, "".join(self._lines)

    def reap(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class _Campaign:
    """The seeded event sequence and its invariant ledger."""

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.state_dir = Path(config.state_dir)
        self.service = _ManagedService(config)
        self.report = ChaosReport(seed=config.seed)
        self._clean: Dict[str, str] = {}
        self._expected = {"done": 0, "deadline": 0}

    # -- plumbing --------------------------------------------------------

    @property
    def client(self):
        return self.service.client

    def spec(self, offset: int, n_sweeps: int = 4, probe_counts=(14,)):
        from .spec import PolicySpec, ScenarioSpec

        return ScenarioSpec(
            scenario="policy-eval",
            seed=self.config.seed + offset,
            policies=tuple(
                PolicySpec("css", {"n_probes": m}) for m in probe_counts
            ),
            params={
                "azimuth_step_deg": 30.0,
                "distance_m": 6.0,
                "n_sweeps": n_sweeps,
            },
        )

    def clean_digest(self, spec) -> str:
        """The uninterrupted local digest every chaos run must match."""
        key = spec.digest()
        if key not in self._clean:
            from .runner import ScenarioRunner

            with ScenarioRunner() as runner:
                outcome = runner.run(spec)
            self._clean[key] = outcome.manifest.result_sha256
        return self._clean[key]

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.report.invariants[name] = bool(passed)
        if detail:
            self.report.details[name] = detail
        print(f"chaos: {'ok  ' if passed else 'FAIL'} {name}"
              + (f" ({detail})" if detail and not passed else ""),
              flush=True)

    # -- events ----------------------------------------------------------

    def event_worker_kill(self) -> Dict[str, Any]:
        # Three policies are three execute calls.  The shot comes after
        # the run's first journal commit, and each call is long enough
        # that the later ones still meet the death: the run resumes in
        # a new run process, or supervision replaces the broken pool.
        spec = self.spec(1, n_sweeps=256, probe_counts=(14, 10, 6))
        run_id = self.client.submit(spec.to_json())["run"]
        journal = Path(self.client.status(run_id)["checkpoint"])
        killed = 0
        victim_kind = ""
        deadline = time.monotonic() + self.config.run_timeout_s
        while time.monotonic() < deadline:
            payload = self.client.status(run_id)
            if payload["status"] in _TERMINAL:
                break
            # The run's own process is the one holding its journal (an
            # idle worker's run process keeps a warm pool too).  Shoot
            # once its pool is up, so it and its pool workers are all
            # candidates.
            run_process = _holder(journal, _children(self.service.proc.pid))
            pool = [] if run_process is None else _pool_children(run_process)
            if payload["status"] == "running" and pool and _journal_entries(journal):
                victim = self.rng.choice([run_process, *pool])
                # A helper mid-spawn (fork→exec window) still shows the
                # parent's cmdline and can masquerade as a pool worker —
                # SIGKILLing the half-born resource tracker is a
                # different experiment.  Re-classify after a settle
                # delay and only shoot a confirmed pool worker.
                time.sleep(0.05)
                if victim not in _pool_children(self.service.proc.pid):
                    continue
                victim_kind = "run-process" if victim == run_process else "pool-worker"
                os.kill(victim, signal.SIGKILL)
                killed = 1
                break
            time.sleep(0.01)
        final = self.client.wait(run_id, timeout=self.config.run_timeout_s)
        self._expected["done"] += 1
        self.check(
            "worker_kill_run_done",
            final["status"] == "done",
            final.get("error", ""),
        )
        self.check(
            "worker_kill_digest_identical",
            final.get("result_sha256") == self.clean_digest(spec),
        )
        health = self.client.status(run_id)["manifest"].get("health", {})
        replacements = health.get("pool_replacements", 0)
        attempts = final.get("attempts", 0)
        # The victim belonged to this run: it resumed in a new run
        # process, or its pool was replaced.
        self.check(
            "worker_kill_hit_the_run",
            killed == 1 and (attempts > 1 or replacements > 0),
            f"killed={killed} victim={victim_kind or 'none'} "
            f"attempts={attempts} pool_replacements={replacements}",
        )
        return {
            "event": "worker-kill",
            "run": run_id,
            "killed": killed,
            "victim": victim_kind or "none",
            "attempts": attempts,
            "pool_replacements": replacements,
        }

    def _catch_midrun(self, label: str, offset: int):
        """Submit a run and return ``(spec, run_id, journal)`` once it is
        running with at least one block journaled, or None.

        Blocks are journaled a chunk at a time, so a one-policy run
        this small commits once, at its very end; three policies are
        three execute calls, and the first call's commit lands while
        the other two still run.  The spec grows if the run keeps
        finishing before it is caught (fast machines); every run that
        finishes untouched must still match its clean digest.
        """
        for attempt, sweeps in enumerate((4, 8, 16)):
            spec = self.spec(offset + attempt, n_sweeps=sweeps, probe_counts=(14, 10, 6))
            run_id = self.client.submit(spec.to_json())["run"]
            journal = Path(self.client.status(run_id)["checkpoint"])
            deadline = time.monotonic() + self.config.run_timeout_s
            while time.monotonic() < deadline:
                payload = self.client.status(run_id)
                if payload["status"] in _TERMINAL:
                    break
                if payload["status"] == "running" and _journal_entries(journal) >= 1:
                    return spec, run_id, journal
                time.sleep(0.005)
            final = self.client.wait(run_id, timeout=self.config.run_timeout_s)
            self._expected["done"] += 1
            self.check(
                f"{label}_warmup{attempt}_digest",
                final.get("result_sha256") == self.clean_digest(spec),
            )
        return None

    def event_serve_restart(self) -> Dict[str, Any]:
        caught = self._catch_midrun("serve_restart", 30)
        self.check("serve_restart_caught_midrun", caught is not None)
        if caught is None:
            return {"event": "serve-restart", "caught": 0}
        spec, run_id, _journal = caught
        self.service.kill()
        begin = time.perf_counter()
        self.service.start()
        payload = self.client.status(run_id)
        recovery_s = time.perf_counter() - begin
        self.check(
            "serve_restart_run_readmitted",
            payload["status"] in ("queued", "running"),
            f"status={payload['status']}",
        )
        final = self.client.wait(run_id, timeout=self.config.run_timeout_s)
        self._expected["done"] += 1
        self.check(
            "serve_restart_digest_identical",
            final.get("result_sha256") == self.clean_digest(spec),
        )
        hits = (
            self.client.status(run_id)["manifest"]
            .get("health", {})
            .get("checkpoint_hits", 0)
        )
        self.check("serve_restart_resumed_from_journal", hits > 0, f"hits={hits}")
        self.report.metrics["service_recovery_s"] = round(recovery_s, 3)
        return {
            "event": "serve-restart",
            "run": run_id,
            "caught": 1,
            "recovery_s": round(recovery_s, 3),
            "checkpoint_hits": hits,
        }

    def event_torn_tail(self) -> Dict[str, Any]:
        spec = self.spec(50)
        run_id = self.client.submit(spec.to_json())["run"]
        final = self.client.wait(run_id, timeout=self.config.run_timeout_s)
        self._expected["done"] += 1
        digest = final.get("result_sha256")
        self.check(
            "torn_tail_precondition_done",
            final["status"] == "done" and digest == self.clean_digest(spec),
        )
        caught = self._catch_midrun("torn_tail", 52)
        self.check("torn_tail_caught_midrun", caught is not None)
        self.service.kill()
        registry = self.state_dir / "registry.jsonl"
        with registry.open("a", encoding="utf-8") as handle:
            handle.write('{"event": {"run": "r-torn", "to": "done"')
        if caught is not None:
            # Tear the interrupted run's journal mid-way through its
            # last entry, as a crash inside a chunk's write would.
            data = caught[2].read_bytes()
            last = data.rstrip(b"\n").rfind(b"\n") + 1
            caught[2].write_bytes(data[: last + (len(data) - last) // 2])
        self.service.start()
        payload = self.client.status(run_id)
        self.check(
            "torn_tail_history_survives",
            payload["status"] == "done"
            and payload.get("result_sha256") == digest,
        )
        if caught is None:
            return {"event": "torn-tail", "run": run_id, "caught": 0}
        torn_spec, torn_run, _journal = caught
        final = self.client.wait(torn_run, timeout=self.config.run_timeout_s)
        self._expected["done"] += 1
        self.check(
            "torn_tail_resumed_digest_identical",
            final.get("result_sha256") == self.clean_digest(torn_spec),
        )
        return {"event": "torn-tail", "run": run_id, "caught": 1, "resumed": torn_run}

    def event_shm_evict(self) -> Dict[str, Any]:
        self.service.kill()
        marker = Path(f"/dev/shm/repro-kernels-chaos{os.getpid()}")
        try:
            marker.write_bytes(b"\x00")
        except OSError as error:
            self.service.start()
            return {"event": "shm-evict", "skipped": f"no /dev/shm: {error}"}
        self.service.start()
        self.check("shm_evict_swept", not marker.exists())
        marker.unlink(missing_ok=True)
        return {"event": "shm-evict", "planted": str(marker)}

    def event_deadline_storm(self) -> Dict[str, Any]:
        storm_spec = self.spec(60)
        storm = [
            self.client.submit(storm_spec.to_json(), deadline_s=0.001)["run"]
            for _ in range(4)
        ]
        bystander_spec = self.spec(61)
        bystander = self.client.submit(bystander_spec.to_json())["run"]
        finals = [
            self.client.wait(run, timeout=self.config.run_timeout_s)
            for run in storm
        ]
        self._expected["deadline"] += len(storm)
        self.check(
            "deadline_storm_all_expired",
            all(final["status"] == "deadline" for final in finals),
            ",".join(final["status"] for final in finals),
        )
        final = self.client.wait(bystander, timeout=self.config.run_timeout_s)
        self._expected["done"] += 1
        self.check(
            "deadline_storm_bystander_done",
            final["status"] == "done"
            and final.get("result_sha256") == self.clean_digest(bystander_spec),
        )
        return {"event": "deadline-storm", "expired": len(storm), "bystander": bystander}

    # -- end-of-campaign invariants --------------------------------------

    def finish(self) -> None:
        health = self.client.healthz()
        counts = health["runs"]
        self.check(
            "health_no_live_runs",
            counts.get("queued", 0) == 0 and counts.get("running", 0) == 0,
            f"queued={counts.get('queued')} running={counts.get('running')}",
        )
        self.check(
            "health_accounting_exact",
            counts.get("done", 0) == self._expected["done"]
            and counts.get("deadline", 0) == self._expected["deadline"]
            and counts.get("failed", 0) == 0
            and counts.get("cancelled", 0) == 0,
            f"saw {counts}, expected {self._expected}",
        )
        retained = sum(counts.values())
        rc, output = self.service.terminate()
        self.check("graceful_exit_rc0", rc == 0, f"rc={rc}")
        self.check("graceful_drain_logged", "drain complete" in output)

        from ..service.registry import RunRegistry

        registry = RunRegistry(self.state_dir / "registry.jsonl", durable=False)
        try:
            first, second = registry.replay(), registry.replay()
            self.check(
                "registry_replay_consistent",
                first == second and len(first) == retained,
                f"replayed={len(first)} retained={retained}",
            )
            referenced = {
                str(state.get("checkpoint_path", "")) for state in first.values()
            }
        finally:
            registry.close()
        orphans = [
            str(path)
            for path in sorted(self.state_dir.glob("*.jsonl"))
            if path.name != "registry.jsonl" and str(path) not in referenced
        ]
        self.check("no_orphan_journals", orphans == [], ";".join(orphans))

        from .shm import leaked_segments

        leaked = leaked_segments()
        self.check("no_leaked_shm", leaked == [], ";".join(leaked))

    # -- driver ----------------------------------------------------------

    def run(self) -> ChaosReport:
        handlers = {
            "worker-kill": self.event_worker_kill,
            "serve-restart": self.event_serve_restart,
            "torn-tail": self.event_torn_tail,
            "shm-evict": self.event_shm_evict,
            "deadline-storm": self.event_deadline_storm,
        }
        unknown = [name for name in self.config.events if name not in handlers]
        if unknown:
            raise ValueError(f"unknown chaos event(s): {', '.join(unknown)}")
        begin = time.perf_counter()
        self.service.start()
        try:
            for name in self.config.events:
                print(f"chaos: event {name}", flush=True)
                self.report.events.append(handlers[name]())
            self.finish()
        finally:
            self.service.reap()
        self.report.metrics.setdefault("service_recovery_s", 0.0)
        self.report.metrics["chaos_wall_s"] = round(
            time.perf_counter() - begin, 3
        )
        self.report.metrics["chaos_events_total"] = float(len(self.report.events))
        self.report.metrics["chaos_invariants_failed"] = float(
            sum(1 for passed in self.report.invariants.values() if not passed)
        )
        return self.report


def run_chaos(
    config: ChaosConfig,
    output: Optional[str] = None,
    label: str = "chaos",
) -> int:
    """Execute the campaign; print the report; optionally append a BENCH
    point; return a process exit code (nonzero = invariant or gate broke)."""
    Path(config.state_dir).mkdir(parents=True, exist_ok=True)
    report = _Campaign(config).run()
    print("\n".join(report.format_rows()))

    status = 0 if report.ok() else 1
    if status:
        print("CHAOS FAILED: at least one invariant broke")
    if config.gate_recovery_s is not None:
        recovery = report.metrics.get("service_recovery_s", float("inf"))
        if recovery > config.gate_recovery_s:
            print(
                f"GATE FAILED: recovery {recovery:.2f} s exceeds "
                f"{config.gate_recovery_s:.2f} s"
            )
            status = 1
        else:
            print(
                f"gate: recovery {recovery:.2f} s within "
                f"{config.gate_recovery_s:.2f} s budget"
            )
    if output:
        from datetime import datetime, timezone

        from ..perf import PerfPoint, _environment, append_point

        point = PerfPoint(
            label=label,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            metrics=report.metrics,
            environment=_environment(),
        )
        append_point(output, point)
        print(f"appended trajectory point '{label}' to {output}")
    return status
