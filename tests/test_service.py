"""The selection service (DESIGN.md §11): admission, backpressure,
digest equality with the CLI path, durable resume, bounded retention.

The contracts under test:

* **Bit-identity** — a spec submitted over HTTP produces the same
  ``result_sha256`` as the same spec run through a local
  :class:`~repro.runtime.ScenarioRunner`; the front-end changes how
  runs are scheduled, never what they compute.
* **Isolation** — N concurrent submissions of the *same* spec digest
  get distinct run ids and distinct checkpoint journals, and their
  ObsSession metric snapshots fold into exactly N× the single-run
  counters (no interleaved or lost samples).
* **Backpressure** — a full queue answers 429 + Retry-After instead of
  buffering without bound.
* **Resume** — a run that died mid-flight keeps its fsync'd journal;
  ``POST /runs/<id>/retry`` re-executes only the blocks that never
  journaled (``checkpoint_hits`` in the manifest) and converges on the
  clean run's digest.
* **Bounded retention** — finished records and their journals are
  evicted past ``history_limit``.
* **Run processes** — a run executes in its worker's run process, not
  in the serve process; a run process that dies is replaced and the
  run resumes from its journal, up to ``max_attempts`` deaths.
* **Connections** — a client thread keeps one keep-alive connection,
  resends only GET and DELETE after its connection went stale, and
  ``stop()`` closes every open connection and awaits its handler, so a
  leaked handler (an unraisable-exception warning) fails the test.
"""

import asyncio
import http.client
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.runtime import (
    FaultPlan,
    FaultSpec,
    PolicySpec,
    ScenarioRunner,
    ScenarioSpec,
)
from repro.service import server
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import SelectionService, ServiceConfig
from tests.process_tree import (
    all_children,
    children,
    held_segments,
    mapped_segments,
    survivors,
)

pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")

#: Events shared with run processes, which the service forks.
_FORK = multiprocessing.get_context("fork")


def _small_spec(seed: int = 2017) -> ScenarioSpec:
    return ScenarioSpec(
        scenario="policy-eval",
        seed=seed,
        policies=(PolicySpec("css", {"n_probes": 14}),),
        params={"azimuth_step_deg": 30.0, "distance_m": 6.0, "n_sweeps": 2},
    )


class _Harness:
    """One in-process service on a background event loop + thread."""

    def __init__(self, config: ServiceConfig):
        self.loop = asyncio.new_event_loop()
        self.service = SelectionService(config)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._ready.set()
        self.loop.run_forever()

    def start(self) -> "_Harness":
        self._thread.start()
        assert self._ready.wait(15), "service failed to start"
        self.client = ServiceClient(port=self.service.port)
        return self

    def call(self, function):
        """Run ``function()`` on the service's event loop; its result."""

        async def on_loop():
            return function()

        return asyncio.run_coroutine_threadsafe(on_loop(), self.loop).result(10)

    def stop(self):
        if self.loop.is_closed():
            return
        # The client's idle connection stays open: stop() must close it.
        future = asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop)
        future.result(20)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        self.loop.close()
        self.client.close()


@pytest.fixture()
def make_service(tmp_path):
    harnesses = []

    def factory(**overrides) -> _Harness:
        overrides.setdefault("port", 0)
        overrides.setdefault("checkpoint_dir", str(tmp_path / "journals"))
        harness = _Harness(ServiceConfig(**overrides)).start()
        harnesses.append(harness)
        return harness

    yield factory
    for harness in harnesses:
        harness.stop()


def _direct_digest(spec: ScenarioSpec) -> str:
    with ScenarioRunner() as runner:
        outcome = runner.run(spec)
    assert outcome.manifest.result_sha256
    return outcome.manifest.result_sha256


class TestSubmission:
    def test_http_run_matches_direct_runner_digest(self, make_service):
        spec = _small_spec()
        harness = make_service(workers=2)
        accepted = harness.client.submit(spec.to_json())
        assert accepted["spec_digest"] == spec.digest()
        final = harness.client.wait(accepted["run"])
        assert final["status"] == "done"
        assert final["result_sha256"] == _direct_digest(spec)
        payload = harness.client.result(accepted["run"])
        assert payload["result"]["rows"]

    def test_probe_design_block_accepted_with_cli_digest(self, make_service):
        # The probe_design block rides the canonical spec JSON, so a
        # designed policy is service-submittable like any other — and
        # the HTTP digest matches the local runner bit-for-bit.
        spec = ScenarioSpec(
            scenario="policy-eval",
            seed=2017,
            policies=(
                PolicySpec(
                    "css",
                    {"n_probes": 14},
                    probe_design={"designer": "coherence-min"},
                ),
            ),
            params={"azimuth_step_deg": 30.0, "distance_m": 6.0, "n_sweeps": 2},
        )
        harness = make_service(workers=2)
        accepted = harness.client.submit(spec.to_json())
        assert accepted["spec_digest"] == spec.digest()
        final = harness.client.wait(accepted["run"])
        assert final["status"] == "done"
        assert final["result_sha256"] == _direct_digest(spec)

    def test_an_idle_worker_journals_the_run_running_before_the_202(
        self, make_service, monkeypatch
    ):
        # A slow ``running`` append would let a 202 written first reach
        # the client before it; the hand-off orders them.
        from repro.service.registry import RunRegistry

        journaled = []
        original = RunRegistry.record

        def slow_running(self, run_id, to, **fields):
            if to == "running":
                time.sleep(0.2)
            original(self, run_id, to, **fields)
            journaled.append((run_id, to))

        monkeypatch.setattr(RunRegistry, "record", slow_running)
        harness = make_service(workers=1)
        for seed in (47, 48):
            accepted = harness.client.submit(_small_spec(seed).to_json())
            assert (accepted["run"], "running") in journaled
            assert harness.client.wait(accepted["run"])["status"] == "done"

    def test_invalid_submissions_answer_400(self, make_service):
        harness = make_service()
        code, payload = harness.client.request("POST", "/runs", {"scenario": "nope"})
        assert code == 400
        assert "invalid scenario spec" in payload["error"]
        connection_code, _ = harness.client.request(
            "GET", "/runs/r999999-deadbeef"
        )
        assert connection_code == 404

    def test_an_oversized_body_answers_413(self, make_service):
        # The head announces one byte over the cap and the client then
        # stops sending: only the cap check answers before the body.
        harness = make_service()
        head = (
            "POST /runs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {server._MAX_BODY_BYTES + 1}\r\n\r\n{{"
        )
        reply = b""
        with socket.create_connection(
            ("127.0.0.1", harness.service.port), timeout=10
        ) as sock:
            sock.sendall(head.encode("latin-1"))
            sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 413 ")
        body = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        assert body["error"] == f"request body exceeds {server._MAX_BODY_BYTES} bytes"

    def test_metrics_and_healthz_expose_service_and_run_planes(self, make_service):
        harness = make_service(workers=1)
        accepted = harness.client.submit(_small_spec().to_json())
        harness.client.wait(accepted["run"])
        text = harness.client.metrics()
        assert 'service_runs_total{scenario="policy-eval",status="done"} 1' in text
        assert "service_queue_depth" in text
        # Data-plane metrics from the run's own ObsSession fold in too.
        assert "runner_kernel_path_total" in text
        health = harness.client.healthz()
        assert health["status"] == "ok"
        assert health["runs"]["done"] == 1
        assert health["durable"] is True


class TestConcurrency:
    def test_parallel_same_digest_runs_do_not_collide(self, make_service):
        n_runs = 8
        spec = _small_spec()
        harness = make_service(workers=4, queue_depth=32)
        accepted = [harness.client.submit(spec.to_json()) for _ in range(n_runs)]
        assert len({entry["run"] for entry in accepted}) == n_runs
        finals = [harness.client.wait(entry["run"]) for entry in accepted]
        assert all(final["status"] == "done" for final in finals)
        digests = {final["result_sha256"] for final in finals}
        assert digests == {_direct_digest(spec)}
        # Distinct journals per run id, even at identical spec digest.
        details = [harness.client.status(entry["run"]) for entry in accepted]
        journals = {detail["checkpoint"] for detail in details}
        assert len(journals) == n_runs

    def test_obs_sessions_do_not_interleave_across_workers(self, make_service):
        """The merged run-plane counters must be exactly N× one run's —
        a shared/global ObsSession would double-count or drop samples
        when four workers run concurrently."""
        n_runs = 8
        spec = _small_spec()
        harness = make_service(workers=4, queue_depth=32)
        accepted = [harness.client.submit(spec.to_json()) for _ in range(n_runs)]
        for entry in accepted:
            assert harness.client.wait(entry["run"])["status"] == "done"

        from repro import obs as _obs
        from repro.obs.metrics import MetricsRegistry

        session = _obs.ObsSession()
        with ScenarioRunner(obs=session) as runner:
            runner.run(spec)
        single = session.metrics.snapshot()
        merged = MetricsRegistry()
        merged.merge(harness.service.run_metrics.snapshot())
        snapshot = merged.snapshot()
        for key, value in single["counters"].items():
            assert snapshot["counters"].get(key) == pytest.approx(n_runs * value), key
        for key, histogram in single["histograms"].items():
            assert snapshot["histograms"][key]["count"] == n_runs * histogram["count"]

    def test_full_queue_rejects_with_429(self, make_service):
        # One worker, queue of one: occupy the worker with a 2 s hang,
        # fill the queue slot, and the next submissions must bounce.
        hang_spec = _small_spec().with_faults(
            FaultPlan(faults=(FaultSpec(kind="hang", block=0, times=1),), hang_s=2.0)
        )
        harness = make_service(workers=1, queue_depth=1)
        first = harness.client.submit(hang_spec.to_json())
        # Wait until the worker has dequeued the first run.
        deadline = 50
        while harness.client.healthz()["runs"]["running"] == 0 and deadline:
            deadline -= 1
            time.sleep(0.05)
        assert harness.client.healthz()["runs"]["running"] == 1
        second = harness.client.submit(_small_spec().to_json())  # fills the queue
        with pytest.raises(ServiceError) as rejected:
            harness.client.submit(_small_spec().to_json())
        assert rejected.value.code == 429
        assert rejected.value.payload["queue_limit"] == 1
        text = harness.client.metrics()
        assert 'service_submissions_total{outcome="rejected"} 1' in text
        # Backpressure is transient: everything admitted still finishes.
        assert harness.client.wait(first["run"])["status"] == "done"
        assert harness.client.wait(second["run"])["status"] == "done"


class TestResume:
    def test_failed_run_retries_from_its_journal(self, make_service, tmp_path):
        # Block 1 raises on every attempt: block 0 journals, the run
        # fails, the journal survives.  The retry drops the fault
        # overlay, restores block 0 (checkpoint_hits) and converges on
        # the clean digest.
        spec = _small_spec()
        faulty = spec.with_faults(
            FaultPlan(faults=(FaultSpec(kind="exception", block=1, times=99),))
        )
        harness = make_service(workers=1, max_attempts=2, backoff_s=0.01)
        accepted = harness.client.submit(faulty.to_json())
        failed = harness.client.wait(accepted["run"])
        assert failed["status"] == "failed"
        assert "RetryExhausted" in failed["error"]
        assert harness.client.healthz()["status"] == "degraded"
        journal = Path(harness.client.status(accepted["run"])["checkpoint"])
        assert journal.is_file(), "a failed run must keep its journal"

        harness.client.retry(accepted["run"])
        final = harness.client.wait(accepted["run"])
        assert final["status"] == "done"
        detail = harness.client.status(accepted["run"])
        health = detail["manifest"]["health"]
        assert health["checkpoint_hits"] >= 1
        assert final["result_sha256"] == _direct_digest(spec)
        assert not journal.exists(), "a finished run's journal is discarded"

    def test_retry_of_inflight_or_unknown_run_is_rejected(self, make_service):
        harness = make_service(workers=1)
        code, _ = harness.client.request("POST", "/runs/r000042-nope/retry")
        assert code == 404
        accepted = harness.client.submit(_small_spec().to_json())
        code, payload = harness.client.request(
            "POST", f"/runs/{accepted['run']}/retry"
        )
        assert code == 409
        assert harness.client.wait(accepted["run"])["status"] == "done"

    def test_a_malformed_retry_body_answers_400_and_changes_nothing(
        self, make_service
    ):
        harness = make_service(workers=1)
        accepted = harness.client.submit(_small_spec().to_json())
        assert harness.client.wait(accepted["run"])["status"] == "done"
        path = f"/runs/{accepted['run']}/retry"
        for body in ([], 5, "x"):
            code, payload = harness.client.request("POST", path, body)
            assert code == 400
            assert "object" in payload["error"]
        for bad in (0, -1.5, "soon", True, [60]):
            code, payload = harness.client.request("POST", path, {"deadline_s": bad})
            assert code == 400
            assert "deadline_s" in payload["error"]
        assert harness.client.status(accepted["run"])["status"] == "done"
        code, _ = harness.client.request("POST", path, {"deadline_s": 600})
        assert code == 202
        assert harness.client.wait(accepted["run"])["status"] == "done"

    def test_pool_worker_crash_mid_run_is_survived(self, make_service):
        # jobs=2 runs blocks on a fork pool; an injected crash kills one
        # worker process mid-run and supervision replaces it, so the
        # service still converges on the clean digest.
        spec = _small_spec()
        crashing = spec.with_faults(
            FaultPlan(faults=(FaultSpec(kind="crash", block=0, times=1),))
        )
        harness = make_service(workers=1, jobs=2, backoff_s=0.01)
        accepted = harness.client.submit(crashing.to_json())
        final = harness.client.wait(accepted["run"], timeout=240)
        assert final["status"] == "done"
        health = harness.client.status(accepted["run"])["manifest"]["health"]
        assert health["pool_replacements"] >= 1
        assert final["result_sha256"] == _direct_digest(spec)


class TestRetention:
    def test_history_eviction_bounds_records_and_journals(self, make_service, tmp_path):
        spec = _small_spec()
        harness = make_service(workers=2, history_limit=3)
        accepted = [harness.client.submit(spec.to_json()) for _ in range(6)]
        for entry in accepted:
            try:
                harness.client.wait(entry["run"])
            except ServiceError as error:  # evicted while we polled
                assert error.code == 404
        deadline = 100
        while deadline and harness.client.healthz()["runs"]["done"] > 3:
            deadline -= 1
            time.sleep(0.05)
        health = harness.client.healthz()
        assert sum(health["runs"].values()) <= 3
        # Every checkpoint journal was discarded (on completion or on
        # eviction); only the durable run registry remains.
        journal_dir = tmp_path / "journals"
        leftover = [
            path
            for path in journal_dir.glob("*.jsonl")
            if path.name != "registry.jsonl"
        ]
        assert leftover == []
        # History is FIFO by finish order, which two workers need not
        # keep in submission order: the registry journals each run's
        # `done` and `evicted` events in the order they happened.
        lines = (journal_dir / "registry.jsonl").read_text().splitlines()[1:]
        events = [json.loads(line)["event"] for line in lines]
        finished = [event["run"] for event in events if event["to"] == "done"]
        evicted = [event["run"] for event in events if event["to"] == "evicted"]
        assert sorted(finished) == sorted(entry["run"] for entry in accepted)
        assert evicted == finished[:3]
        for run_id in finished:
            code, _ = harness.client.request("GET", f"/runs/{run_id}")
            assert code == (404 if run_id in evicted else 200), run_id


class TestLifecycle:
    """Deadline, cancellation, drain backpressure (DESIGN.md §14)."""

    def _sized_spec(self, seed: int, n_sweeps: int) -> ScenarioSpec:
        return ScenarioSpec(
            scenario="policy-eval",
            seed=seed,
            policies=(PolicySpec("css", {"n_probes": 14}),),
            params={
                "azimuth_step_deg": 30.0,
                "distance_m": 6.0,
                "n_sweeps": n_sweeps,
            },
        )

    def test_deadline_expired_run_settles_terminal(self, make_service):
        harness = make_service(workers=1)
        accepted = harness.client.submit(
            _small_spec().to_json(), deadline_s=0.001
        )
        final = harness.client.wait(accepted["run"])
        assert final["status"] == "deadline"
        assert "deadline" in final["error"]
        # No result to fetch; the terminal state is the 504-style answer.
        code, _ = harness.client.request(
            "GET", f"/runs/{accepted['run']}/result"
        )
        assert code == 404
        assert harness.client.healthz()["runs"]["deadline"] == 1
        # A generous deadline changes nothing about a healthy run.
        relaxed = harness.client.submit(
            _small_spec(seed=2018).to_json(), deadline_s=600.0
        )
        assert harness.client.wait(relaxed["run"])["status"] == "done"

    def test_a_deadline_storm_settles_beside_a_healthy_run(self, make_service):
        harness = make_service(workers=2)
        storm = [
            harness.client.submit(_small_spec(seed=60).to_json(), deadline_s=0.001)
            for _ in range(4)
        ]
        bystander = harness.client.submit(_small_spec(seed=61).to_json())
        for accepted in storm:
            assert harness.client.wait(accepted["run"])["status"] == "deadline"
        final = harness.client.wait(bystander["run"])
        assert final["status"] == "done"
        assert final["result_sha256"] == _direct_digest(_small_spec(seed=61))
        # Every run settled, each counted once, in its own state.
        counts = harness.client.healthz()["runs"]
        assert {state: n for state, n in counts.items() if n} == {
            "done": 1,
            "deadline": 4,
        }

    def test_invalid_deadline_is_rejected(self, make_service):
        harness = make_service(workers=1)
        # JSON ``true`` is a bool, not a one-second budget.
        for bad in (0, -1.5, "soon", True):
            code, payload = harness.client.request(
                "POST", "/runs", {"spec": _small_spec().to_json(), "deadline_s": bad}
            )
            assert code == 400
            assert "deadline_s" in payload["error"]

    def test_cancel_queued_run_then_retry_converges(self, make_service):
        spec = self._sized_spec(seed=31, n_sweeps=2)
        blocker = self._sized_spec(seed=30, n_sweeps=8)
        harness = make_service(workers=1)
        harness.client.submit(blocker.to_json())
        queued = harness.client.submit(spec.to_json())
        payload = harness.client.cancel(queued["run"])
        assert payload["status"] == "cancelled"
        assert harness.client.status(queued["run"])["status"] == "cancelled"
        # The journal (if any) was kept, so a retry resumes cleanly and
        # converges on the uninterrupted digest.
        harness.client.retry(queued["run"])
        final = harness.client.wait(queued["run"], timeout=240)
        assert final["status"] == "done"
        assert final["result_sha256"] == _direct_digest(spec)

    def test_cancel_running_run_is_cooperative_and_retryable(self, make_service):
        spec = self._sized_spec(seed=32, n_sweeps=30)
        harness = make_service(workers=1)
        accepted = harness.client.submit(spec.to_json())
        deadline = time.monotonic() + 60
        while harness.client.status(accepted["run"])["status"] == "queued":
            assert time.monotonic() < deadline, "run never started"
            time.sleep(0.01)
        payload = harness.client.cancel(accepted["run"])
        assert payload["status"] in ("cancelling", "cancelled")
        final = harness.client.wait(accepted["run"], timeout=240)
        assert final["status"] == "cancelled"
        # Cancelling a terminal run is a conflict, not a crash.
        code, _ = harness.client.request("DELETE", f"/runs/{accepted['run']}")
        assert code == 409
        harness.client.retry(accepted["run"])
        assert (
            harness.client.wait(accepted["run"], timeout=240)["status"] == "done"
        )

    def test_cancel_before_the_runner_starts_lands(self, make_service, monkeypatch):
        # The run process has the request but has not entered run(); a
        # DELETE in that window must land, not be answered 202
        # "cancelling" and lost while the run finishes done.
        entered, gate = _FORK.Event(), _FORK.Event()
        original = server._execute

        def gated(runner, record):
            entered.set()
            assert gate.wait(30)
            return original(runner, record)

        monkeypatch.setattr(server, "_execute", gated)
        harness = make_service(workers=1)
        accepted = harness.client.submit(_small_spec(seed=33).to_json())
        assert entered.wait(30)
        assert harness.client.cancel(accepted["run"])["status"] == "cancelling"
        gate.set()
        final = harness.client.wait(accepted["run"], timeout=120)
        assert final["status"] == "cancelled"

    def test_a_cancel_after_the_run_ended_never_aborts_the_next(
        self, make_service, monkeypatch
    ):
        # A DELETE that lands after run() returned, while the service
        # still lists the run as running, reaches the runner too late.
        ended = _FORK.Event()
        original = server._execute

        def late_cancel(runner, record):
            out = original(runner, record)
            if record.spec_json["seed"] == 34:
                ended.set()
                assert runner._cancel.wait(30), "the late cancel never arrived"
            return out

        monkeypatch.setattr(server, "_execute", late_cancel)
        harness = make_service(workers=1)
        first = harness.client.submit(_small_spec(seed=34).to_json())
        assert ended.wait(60)
        assert harness.client.cancel(first["run"])["status"] == "cancelling"
        assert harness.client.wait(first["run"], timeout=120)["status"] == "done"
        second = harness.client.submit(_small_spec(seed=35).to_json())
        assert harness.client.wait(second["run"], timeout=120)["status"] == "done"

    def test_draining_service_rejects_with_503_and_retry_after(self, make_service):
        harness = make_service(workers=1)
        harness.service._draining = True
        try:
            code, payload, retry_after = harness.client._round_trip(
                "POST", "/runs", _small_spec().to_json()
            )
            assert code == 503
            assert "draining" in payload["error"]
            assert retry_after is not None and retry_after >= 1.0
            assert payload["retry_after_s"] >= 1.0
        finally:
            harness.service._draining = False
        accepted = harness.client.submit(_small_spec().to_json())
        assert harness.client.wait(accepted["run"])["status"] == "done"
        assert "service_retry_after_s" in harness.client.metrics()

    def test_retry_after_tracks_queue_drain_rate(self, make_service):
        harness = make_service(workers=2)
        service = harness.service
        # Empty history, empty queue: the floor answer.
        assert service._retry_after_s() == 1.0
        # p50 × waiting ÷ workers, from observed run durations.
        service._durations.extend([2.0, 4.0, 6.0])
        service._inflight = 3
        try:
            assert service._retry_after_s() == pytest.approx(4.0 * 3 / 2)
            # Clamped to at most a minute.
            service._durations.extend([500.0] * 10)
            assert service._retry_after_s() == 60.0
        finally:
            service._inflight = 0
            service._durations.clear()


@pytest.fixture()
def connects(monkeypatch):
    """How many TCP connections every client has opened so far."""
    opened = []
    connect = http.client.HTTPConnection.connect

    def counting(connection):
        opened.append(connection)
        connect(connection)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return opened


class _ScriptedPeer:
    """A raw HTTP peer that answers each request or, when its script
    says ``"drop"``, reads the request and closes without answering —
    what a client sees when the service closes a connection it is about
    to reuse."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []  # (connection number, method, path)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        number = 0
        while self.script:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            number += 1
            with connection, connection.makefile("rb") as stream:
                while self.script:
                    line = stream.readline()
                    if not line:
                        break
                    method, path, _ = line.decode().split(" ", 2)
                    length = 0
                    for header in iter(stream.readline, b"\r\n"):
                        name, _, value = header.decode().partition(":")
                        if name.lower() == "content-length":
                            length = int(value)
                    stream.read(length)
                    self.requests.append((number, method, path))
                    if self.script.pop(0) == "drop":
                        break
                    body = b'{"ok": true}'
                    connection.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                    )

    def close(self):
        self._listener.close()
        self._thread.join(5)


class TestKeepAlive:
    def test_one_connection_per_thread(self, make_service, connects):
        harness = make_service(workers=1)
        client = ServiceClient(port=harness.service.port)
        for _ in range(10):
            client.healthz()
        assert len(connects) == 1
        assert harness.call(lambda: len(harness.service._connections)) == 1

        barrier = threading.Barrier(2)

        def poll():
            barrier.wait(5)
            for _ in range(5):
                client.request("GET", "/runs")

        threads = [threading.Thread(target=poll) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert len(connects) == 3
        client.healthz()
        assert len(connects) == 3, "the first thread's connection was dropped"
        client.close()

    def test_close_closes_every_connection(self, make_service, connects):
        harness = make_service(workers=1)
        client = ServiceClient(port=harness.service.port)
        polled, hold = threading.Event(), threading.Event()

        def poll():
            client.healthz()
            polled.set()
            hold.wait(10)

        thread = threading.Thread(target=poll)
        thread.start()
        # The other thread's connection is idle, not mid-request, when
        # the close lands.
        assert polled.wait(10)
        with client:
            client.healthz()
        hold.set()
        thread.join(10)
        assert all(connection.sock is None for connection in connects)
        deadline = time.monotonic() + 5
        while harness.call(lambda: len(harness.service._connections)) > 0:
            assert time.monotonic() < deadline, "the service never saw the close"
            time.sleep(0.01)
        client.healthz()  # a closed client reconnects on demand
        assert len(connects) == 3
        client.close()

    def test_a_restart_on_the_same_port_is_met_with_a_fresh_connection(
        self, make_service, connects
    ):
        first = make_service(workers=1)
        port = first.service.port
        client = ServiceClient(port=port)
        client.healthz()
        first.stop()
        second = make_service(workers=1, port=port)
        # The probe finds the closed connection before the POST is sent
        # (a POST is never resent, so sending it there would fail).
        code, _ = client.request("POST", "/runs", {"scenario": "no-such-scenario"})
        assert code == 400
        assert second.client.healthz()["status"] == "ok"
        assert client.healthz()["status"] == "ok"
        assert len(connects) == 3
        client.close()

    def test_the_service_closes_idle_connections(self, make_service, connects, monkeypatch):
        monkeypatch.setattr(server, "IDLE_CLOSE_S", 0.2)
        harness = make_service(workers=1)
        client = ServiceClient(port=harness.service.port)
        client.healthz()
        deadline = time.monotonic() + 5
        while harness.call(lambda: len(harness.service._connections)) > 0:
            assert time.monotonic() < deadline, "an idle connection stayed open"
            time.sleep(0.05)
        client.healthz()
        assert len(connects) == 2
        client.close()

    @pytest.mark.parametrize("method", ["GET", "DELETE"])
    def test_an_idempotent_call_is_resent_once_on_a_fresh_connection(self, method):
        peer = _ScriptedPeer(["answer", "drop", "answer"])
        try:
            with ServiceClient(port=peer.port, timeout=5) as client:
                assert client.request("GET", "/healthz")[0] == 200
                assert client.request(method, "/runs/r1")[0] == 200
        finally:
            peer.close()
        assert peer.requests == [
            (1, "GET", "/healthz"), (1, method, "/runs/r1"), (2, method, "/runs/r1"),
        ]

    def test_a_post_is_never_sent_twice(self):
        peer = _ScriptedPeer(["answer", "drop", "answer"])
        try:
            with ServiceClient(port=peer.port, timeout=5) as client:
                client.request("GET", "/healthz")
                with pytest.raises((ConnectionError, http.client.HTTPException)):
                    client.request("POST", "/runs", {"scenario": "fig10"})
                # The failed connection is gone; the next call opens one.
                assert client.request("GET", "/healthz")[0] == 200
        finally:
            peer.close()
        assert [request[1] for request in peer.requests] == ["GET", "POST", "GET"]
        assert [request[0] for request in peer.requests] == [1, 1, 2]

    def test_a_failure_on_a_fresh_connection_is_not_resent(self):
        peer = _ScriptedPeer(["drop", "answer"])
        try:
            with ServiceClient(port=peer.port, timeout=5) as client:
                with pytest.raises((ConnectionError, http.client.HTTPException)):
                    client.request("GET", "/healthz")
        finally:
            peer.close()
        assert peer.requests == [(1, "GET", "/healthz")]

    def test_stop_is_prompt_with_an_idle_connection_open(self, tmp_path):
        async def scenario():
            service = SelectionService(
                ServiceConfig(port=0, workers=1, checkpoint_dir=str(tmp_path / "j"))
            )
            await service.start()
            client = ServiceClient(port=service.port)
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, client.healthz)
            assert len(service._connections) == 1
            began = time.monotonic()
            await service.stop()
            elapsed = time.monotonic() - began
            handlers = [
                task for task in asyncio.all_tasks()
                if "_handle_client" in repr(task.get_coro())
            ]
            client.close()
            return elapsed, handlers, len(service._connections)

        elapsed, handlers, still_open = asyncio.run(scenario())
        assert elapsed < 5.0
        assert handlers == [] and still_open == 0


def _three_policy_spec(seed: int) -> ScenarioSpec:
    # Three policies are three execute calls, each journaled as it
    # ends: the run has journal entries well before it finishes.
    return ScenarioSpec(
        scenario="policy-eval",
        seed=seed,
        policies=tuple(PolicySpec("css", {"n_probes": m}) for m in (14, 10, 6)),
        params={"azimuth_step_deg": 30.0, "distance_m": 6.0, "n_sweeps": 4},
    )


def _reduced_fig7_spec(seed: int) -> ScenarioSpec:
    from repro.experiments.fig7 import Fig7Config, fig7_spec

    return fig7_spec(
        Fig7Config(
            probe_counts=(8, 20),
            lab_azimuth_step_deg=10.0,
            lab_elevation_step_deg=15.0,
            conference_azimuth_step_deg=10.0,
            n_sweeps=1,
            subsamples_per_sweep=1,
        )
    ).with_seed(seed)


class TestRunProcesses:
    def test_a_served_run_executes_outside_the_serve_process(
        self, make_service, monkeypatch
    ):
        executed_in = _FORK.Value("i", 0)
        original = server._execute

        def recording(runner, record):
            executed_in.value = os.getpid()
            return original(runner, record)

        monkeypatch.setattr(server, "_execute", recording)
        harness = make_service(workers=1)
        accepted = harness.client.submit(_small_spec().to_json())
        assert harness.client.wait(accepted["run"])["status"] == "done"
        assert executed_in.value not in (0, os.getpid())
        assert executed_in.value == harness.service._children[0].pid

    def test_a_killed_run_process_resumes_the_run_from_its_journal(
        self, make_service, monkeypatch
    ):
        # Hold the first attempt just after its first journal commit,
        # SIGKILL its run process there, and the replacement resumes.
        from repro.runtime.checkpoint import CheckpointStore

        journaled = _FORK.Event()
        original = CheckpointStore.put

        def put_then_hold(self, *args, **kwargs):
            original(self, *args, **kwargs)
            if not journaled.is_set():
                journaled.set()
                time.sleep(60)

        monkeypatch.setattr(CheckpointStore, "put", put_then_hold)
        spec = _three_policy_spec(seed=36)
        harness = make_service(workers=1)
        accepted = harness.client.submit(spec.to_json())
        assert journaled.wait(60)
        victim = harness.service._children[0].pid
        os.kill(victim, signal.SIGKILL)
        final = harness.client.wait(accepted["run"], timeout=120)
        assert final["status"] == "done"
        assert final["attempts"] == 2
        assert final["result_sha256"] == _direct_digest(spec)
        health = harness.client.status(accepted["run"])["manifest"]["health"]
        assert health["checkpoint_hits"] > 0
        replacement = harness.service._children[0].pid
        assert replacement != victim
        # Forked after the port was bound, it holds no socket but its
        # pipe (beside the standard streams, whatever they are).
        fds = Path(f"/proc/{replacement}/fd")
        sockets = [
            fd for fd in fds.iterdir()
            if int(fd.name) > 2 and os.readlink(fd).startswith("socket:")
        ]
        assert len(sockets) == 1

    def test_a_run_that_kills_every_run_process_fails_naming_the_signal(
        self, make_service, monkeypatch
    ):
        original = server._execute

        def lethal(runner, record):
            if record.spec_json["seed"] == 37:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(runner, record)

        monkeypatch.setattr(server, "_execute", lethal)
        harness = make_service(workers=1, max_attempts=3)
        accepted = harness.client.submit(_small_spec(seed=37).to_json())
        final = harness.client.wait(accepted["run"], timeout=120)
        assert final["status"] == "failed"
        assert final["attempts"] == 3
        assert "SIGKILL" in final["error"]
        # The worker carries on with a fresh run process.
        healthy = harness.client.submit(_small_spec(seed=38).to_json())
        assert harness.client.wait(healthy["run"], timeout=120)["status"] == "done"

    def test_shm_gauge_counts_the_run_processes_segments(self, make_service):
        harness = make_service(workers=1, jobs=2)
        accepted = harness.client.submit(_reduced_fig7_spec(seed=39).to_json())
        assert harness.client.wait(accepted["run"], timeout=240)["status"] == "done"
        text = harness.client.metrics()
        gauge = [
            line for line in text.splitlines()
            if line.startswith("service_shm_segments ")
        ]
        assert gauge and float(gauge[0].split()[1]) > 0

    def test_profile_samples_kernel_frames_of_served_runs(self, tmp_path):
        # The sampler's timer signal needs the event loop on the main
        # thread, as under ``repro-bench serve --profile``.
        from repro.obs import profile as profile_mod

        collapsed = tmp_path / "serve.collapsed"
        config = ServiceConfig(
            port=0,
            workers=1,
            checkpoint_dir=str(tmp_path / "journals"),
            profile_path=str(collapsed),
        )

        async def serve_two_runs():
            service = SelectionService(config)
            await service.start()
            client = ServiceClient(port=service.port)

            def drive():
                for seed in (40, 41):
                    accepted = client.submit(_reduced_fig7_spec(seed).to_json())
                    final = client.wait(accepted["run"], timeout=240)
                    assert final["status"] == "done"

            try:
                await asyncio.get_running_loop().run_in_executor(None, drive)
            finally:
                await service.stop()
                client.close()

        asyncio.run(serve_two_runs())
        assert profile_mod.active_sampler() is None
        stacks = [
            line for line in collapsed.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert any("repro.core.compressive:" in line for line in stacks)


class TestNoOrphans:
    def test_a_drained_serve_leaves_no_descendant(self, serve_process):
        proc, client = serve_process("--workers", "2", "--jobs", "2")
        accepted = client.submit(_reduced_fig7_spec(seed=42).to_json())
        assert client.wait(accepted["run"], timeout=120)["status"] == "done"
        # Two run processes and the pool the run warmed.
        descendants = all_children(proc.pid)
        assert len(descendants) == 4
        tree = [proc.pid, *descendants]
        assert held_segments(tree), "the pooled run published no segment"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(60) == 0
        assert "drain complete" in proc.stdout.read()
        assert survivors(descendants) == []
        assert held_segments(tree) | mapped_segments(tree) == set()

    def test_a_sigtermed_run_process_dies_and_serve_keeps_serving(
        self, serve_process
    ):
        # A replacement run process is forked after serve installed its
        # asyncio SIGTERM handler and wakeup fd.  It must reset both:
        # the handler would make it immune to SIGTERM, and the wakeup fd
        # would echo its signal into serve's loop, which then drains.
        proc, client = serve_process("--workers", "1")
        (first,) = children(proc.pid)
        os.kill(first, signal.SIGKILL)
        assert survivors([first]) == []
        accepted = client.submit(_small_spec(seed=47).to_json())
        assert client.wait(accepted["run"], timeout=120)["status"] == "done"
        (replacement,) = children(proc.pid)
        assert replacement != first
        os.kill(replacement, signal.SIGTERM)
        assert survivors([replacement]) == []
        again = client.submit(_small_spec(seed=48).to_json())
        assert client.wait(again["run"], timeout=120)["status"] == "done"
        assert client.healthz()["status"] != "draining"

    def test_a_busy_run_process_dies_with_a_killed_serve(self, serve_process):
        # A run that never reaches a chunk boundary: no cancel lands
        # there, only the parent-death signal ends its process.
        proc, client = serve_process(
            "--workers", "1",
            prelude=(
                "import time\n"
                "from repro.service import server\n"
                "server._execute = lambda runner, record: time.sleep(120)"
            ),
        )
        accepted = client.submit(_small_spec(seed=43).to_json())
        deadline = time.monotonic() + 60
        while client.status(accepted["run"])["status"] != "running":
            assert time.monotonic() < deadline, "run never started"
            time.sleep(0.01)
        descendants = all_children(proc.pid)
        assert descendants
        proc.kill()
        proc.wait(60)
        assert survivors(descendants) == []

    def test_run_processes_keep_a_socket_stderr(self, serve_process):
        # Under a service manager stderr may be a stream socket; a run
        # process closes the sockets it inherited, but not that one.
        import socket

        ours, theirs = socket.socketpair()
        with ours, theirs:
            proc, client = serve_process("--workers", "1", stderr=theirs.fileno())
            accepted = client.submit(_small_spec(seed=46).to_json())
            assert client.wait(accepted["run"], timeout=120)["status"] == "done"
            (run_process,) = children(proc.pid)
            stderr = os.readlink(f"/proc/{proc.pid}/fd/2")
            assert stderr.startswith("socket:")
            assert os.readlink(f"/proc/{run_process}/fd/2") == stderr

    def test_pool_workers_die_with_their_run_process(self, serve_process):
        proc, client = serve_process("--workers", "1", "--jobs", "2")
        accepted = client.submit(_reduced_fig7_spec(seed=44).to_json())
        assert client.wait(accepted["run"], timeout=120)["status"] == "done"
        (run_process,) = children(proc.pid)
        pool = all_children(run_process)
        assert len(pool) >= 2
        os.kill(run_process, signal.SIGKILL)
        assert survivors(pool) == []
        # The worker forks a replacement for its next run.
        again = client.submit(_reduced_fig7_spec(seed=45).to_json())
        assert client.wait(again["run"], timeout=120)["status"] == "done"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("workers", 0),
            ("jobs", 0),
            ("queue_depth", 0),
            ("history_limit", -1),
            ("drain_timeout_s", -0.5),
        ],
    )
    def test_out_of_range_fields_are_refused_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    def test_the_floors_themselves_are_accepted(self):
        config = ServiceConfig(
            workers=1, jobs=1, queue_depth=1, history_limit=0, drain_timeout_s=0
        )
        assert config.history_limit == 0

    def test_serve_exits_2_with_one_line(self, capsys):
        from repro.cli import main

        assert main(["serve", "--port", "0", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err.strip().count("\n") == 0
        assert "workers must be >= 1" in err


class TestLoadHarness:
    def test_small_load_self_hosts_reports_and_benches(self, capsys, tmp_path):
        import json

        from repro.service.load import LoadConfig, run_load

        bench = tmp_path / "bench.json"
        status = run_load(
            LoadConfig(
                levels=(2, 4),
                workers=2,
                queue_depth=16,
                history_limit=8,
                gate_p99_ms=5000.0,
            ),
            output=str(bench),
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "service load: scenario=fig10" in out
        assert "within 5000.00 ms budget" in out
        point = json.loads(bench.read_text())["points"][-1]
        assert point["label"] == "service-load"
        metrics = point["metrics"]
        assert metrics["service_load_max_sustained_concurrency"] >= 2
        assert metrics["service_load_total_requests"] == 6
        assert metrics["service_load_rejected_total"] == 0

    def test_cli_parses_serve_and_load_surfaces(self):
        from repro.cli import build_parser, main

        parser = build_parser()
        args = parser.parse_args(
            ["load", "--levels", "2,4", "--gate-p99-ms", "100", "--scenario", "fig10"]
        )
        assert args.levels == "2,4" and args.gate_p99_ms == 100.0
        args = parser.parse_args(
            ["serve", "--port", "0", "--workers", "1", "--no-durable"]
        )
        assert args.port == 0 and args.no_durable
        assert main(["load", "--levels", "nope"]) == 2
        assert main(["load", "--levels", "0,-3"]) == 2
