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
"""

import asyncio
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
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import SelectionService, ServiceConfig


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

    def stop(self):
        future = asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop)
        future.result(20)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        self.loop.close()


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

    def test_invalid_submissions_answer_400(self, make_service):
        harness = make_service()
        code, payload = harness.client.request("POST", "/runs", {"scenario": "nope"})
        assert code == 400
        assert "invalid scenario spec" in payload["error"]
        connection_code, _ = harness.client.request(
            "GET", "/runs/r999999-deadbeef"
        )
        assert connection_code == 404

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
        # The unit-cache hit/miss *split* legitimately depends on which
        # reused runner a run landed on (a warm runner hits where a cold
        # one misses) — only its total is structural.
        cache_family = "estimator_unit_cache_total"
        for key, value in single["counters"].items():
            if key.startswith(cache_family):
                continue
            assert snapshot["counters"].get(key) == pytest.approx(n_runs * value), key
        single_cache = sum(
            value for key, value in single["counters"].items()
            if key.startswith(cache_family)
        )
        merged_cache = sum(
            value for key, value in snapshot["counters"].items()
            if key.startswith(cache_family)
        )
        assert merged_cache == pytest.approx(n_runs * single_cache)
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
        # The evicted earliest run no longer resolves.
        code, _ = harness.client.request("GET", f"/runs/{accepted[0]['run']}")
        assert code == 404


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

    def test_invalid_deadline_is_rejected(self, make_service):
        harness = make_service(workers=1)
        for bad in (0, -1.5, "soon"):
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
