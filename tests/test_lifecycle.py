"""Crash-safe service lifecycle (DESIGN.md §14): the durable run
registry, deadline/cancellation propagation through the runner, client
backoff, startup garbage collection, and SIGKILL-restart recovery.

The contracts under test:

* **Registry durability** — every transition is hash-verified JSONL; a
  torn tail is physically truncated on reopen; compaction folds the log
  to one snapshot per live run without changing the replayed answer.
* **Abort propagation** — ``ScenarioRunner.cancel()`` and
  ``deadline_s`` surface as :class:`RunAbortedError` subclasses that
  pierce supervision; finished blocks stay journaled.
* **Client backoff** — the retry schedule is pure and bounded, and
  never sleeps less than the service's ``Retry-After``.
* **GC** — ``repro-bench runs gc`` removes only orphaned checkpoint
  journals (valid header, unreferenced by the registry).
* **Recovery** — SIGKILL of a serving process mid-run, then a restart
  on the same state dir, resumes the run from its journal and produces
  a digest bit-identical to an uninterrupted run (driven through the
  chaos harness's serve-restart event).
"""

import json
import threading
import time
from pathlib import Path

import pytest

import repro.runtime.runner as runner_module
from repro.cli import main
from repro.runtime import (
    DeadlineExceededError,
    PolicySpec,
    RunCancelledError,
    ScenarioRunner,
    ScenarioSpec,
)
from repro.runtime.checkpoint import CheckpointStore, journal_header
from repro.service.client import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    ServiceClient,
    backoff_delay,
)
from repro.service.registry import RunRegistry

pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")


def _spec(seed: int = 2017, n_sweeps: int = 2) -> ScenarioSpec:
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


class TestRunRegistry:
    def test_transitions_replay_into_folded_state(self, tmp_path):
        registry = RunRegistry(tmp_path / "registry.jsonl", durable=False)
        registry.record(
            "r1", "queued", spec_digest="abc", checkpoint_path="/j/r1.jsonl"
        )
        registry.record("r1", "running", attempts=1)
        registry.record("r1", "done", finished="t1")
        registry.record("r2", "queued", spec_digest="def")
        runs = registry.replay()
        assert runs["r1"]["status"] == "done"
        assert runs["r1"]["spec_digest"] == "abc"  # first event's fields stick
        assert runs["r1"]["attempts"] == 1
        assert runs["r2"]["status"] == "queued"
        assert registry.replay() == runs, "replay must be idempotent"
        registry.close()

    def test_unknown_transition_is_refused(self, tmp_path):
        registry = RunRegistry(tmp_path / "registry.jsonl", durable=False)
        with pytest.raises(ValueError):
            registry.record("r1", "exploded")
        registry.close()

    def test_evicted_runs_vanish_from_replay(self, tmp_path):
        registry = RunRegistry(tmp_path / "registry.jsonl", durable=False)
        registry.record("r1", "queued")
        registry.record("r1", "done")
        registry.record("r1", "evicted")
        assert registry.replay() == {}
        registry.close()

    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        path = tmp_path / "registry.jsonl"
        registry = RunRegistry(path, durable=False)
        registry.record("r1", "queued", spec_digest="abc")
        registry.record("r1", "done")
        registry.close()
        intact = path.read_bytes()
        # A crash mid-append leaves a torn final line.
        path.write_bytes(intact + b'{"event": {"run": "r2", "to": "done"')
        reopened = RunRegistry(path, durable=False)
        assert reopened.tail_dropped
        assert path.read_bytes() == intact, "torn tail physically removed"
        assert reopened.replay()["r1"]["status"] == "done"
        # Appending after the repair produces a clean log again.
        reopened.record("r3", "queued")
        reopened.close()
        third = RunRegistry(path, durable=False)
        assert not third.tail_dropped
        assert set(third.replay()) == {"r1", "r3"}
        third.close()

    def test_tampered_entry_hash_drops_the_tail(self, tmp_path):
        path = tmp_path / "registry.jsonl"
        registry = RunRegistry(path, durable=False)
        registry.record("r1", "queued")
        registry.record("r1", "done")
        registry.close()
        lines = path.read_text().splitlines()
        entry = json.loads(lines[2])
        entry["event"]["to"] = "failed"  # flip the outcome, keep the hash
        lines[2] = json.dumps(entry, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        reopened = RunRegistry(path, durable=False)
        assert reopened.tail_dropped
        assert reopened.replay()["r1"]["status"] == "queued"
        reopened.close()

    def test_a_high_bit_flip_in_the_last_entry_drops_only_that_entry(self, tmp_path):
        path = tmp_path / "registry.jsonl"
        registry = RunRegistry(path, durable=False)
        for index in range(5):
            registry.record(f"r{index}", "queued")
        registry.close()
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x80  # the last line is no longer UTF-8
        path.write_bytes(bytes(data))
        reopened = RunRegistry(path, durable=False)
        assert reopened.tail_dropped
        assert sorted(reopened.replay()) == ["r0", "r1", "r2", "r3"]
        reopened.close()

    def test_compaction_preserves_replay_and_shrinks_log(self, tmp_path):
        path = tmp_path / "registry.jsonl"
        registry = RunRegistry(path, durable=False)
        for index in range(20):
            run = f"r{index % 4}"
            registry.record(run, "queued", spec_digest=f"d{index % 4}")
            registry.record(run, "running")
            registry.record(run, "done")
        before = registry.replay()
        dropped = registry.compact()
        assert dropped == 60 - 4
        assert registry.events == 4
        assert registry.replay() == before
        registry.close()
        # The compacted file replays identically from disk.
        reopened = RunRegistry(path, durable=False)
        assert reopened.replay() == before
        reopened.close()


class TestClientBackoff:
    def test_schedule_doubles_and_caps(self):
        delays = [backoff_delay(attempt) for attempt in range(12)]
        assert delays[:4] == [
            BACKOFF_BASE_S,
            BACKOFF_BASE_S * 2,
            BACKOFF_BASE_S * 4,
            BACKOFF_BASE_S * 8,
        ]
        assert delays[-1] == BACKOFF_CAP_S
        assert all(a <= b for a, b in zip(delays, delays[1:]))

    def test_retry_after_is_a_floor_not_a_ceiling(self):
        assert backoff_delay(0, retry_after=5.0) == 5.0
        assert backoff_delay(10, retry_after=5.0) == BACKOFF_CAP_S
        assert backoff_delay(0, retry_after=10_000.0) == BACKOFF_CAP_S
        assert backoff_delay(3, retry_after=0.0) == BACKOFF_BASE_S * 8

    def test_request_retries_rejections_and_honours_retry_after(self):
        client = ServiceClient(port=1)
        answers = [
            (429, {"error": "full"}, 7.0),
            (503, {"error": "draining"}, None),
            (202, {"run": "r000001-abc"}, None),
        ]
        trips = []
        client._round_trip = lambda method, path, body=None: answers[
            min(len(trips), len(answers) - 1)
        ]
        original = client._round_trip

        def tracking(method, path, body=None):
            result = original(method, path, body)
            trips.append((method, path))
            return result

        client._round_trip = tracking
        sleeps = []
        client._sleep = sleeps.append
        code, payload = client.request("POST", "/runs", {"x": 1}, retries=5)
        assert code == 202 and payload["run"] == "r000001-abc"
        assert len(trips) == 3
        assert sleeps == [7.0, backoff_delay(1)]

    def test_exhausted_budget_returns_the_last_rejection(self):
        client = ServiceClient(port=1)
        client._round_trip = lambda method, path, body=None: (429, {"e": 1}, None)
        sleeps = []
        client._sleep = sleeps.append
        code, payload = client.request("POST", "/runs", {"x": 1}, retries=2)
        assert code == 429
        assert sleeps == [backoff_delay(0), backoff_delay(1)]

    def test_zero_retries_never_sleeps(self):
        client = ServiceClient(port=1)
        client._round_trip = lambda method, path, body=None: (503, {}, 9.0)
        client._sleep = lambda _s: pytest.fail("retries=0 must not sleep")
        code, _ = client.request("GET", "/healthz")
        assert code == 503


class TestRunnerAbort:
    def test_deadline_exceeded_pierces_supervision(self, tmp_path):
        with ScenarioRunner(checkpoint=tmp_path / "j.jsonl") as runner:
            with pytest.raises(DeadlineExceededError):
                runner.run(_spec(), deadline_s=1e-9)

    def test_a_cancel_before_run_cancels_that_run_only(self):
        with ScenarioRunner() as runner:
            runner.cancel()
            with pytest.raises(RunCancelledError):
                runner.run(_spec())
            # The run consumed the request; the next one is unaffected.
            assert runner.run(_spec()).manifest.result_sha256
            runner.cancel()
            runner.clear_cancel()
            assert runner.run(_spec()).manifest.result_sha256

    def test_cancel_lands_at_a_block_boundary(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        caught = []
        with ScenarioRunner(checkpoint=journal) as runner:

            def target():
                try:
                    runner.run(_spec(seed=77, n_sweeps=500))
                except BaseException as error:  # noqa: BLE001 - test probe
                    caught.append(error)

            thread = threading.Thread(target=target)
            thread.start()
            # Cancel as soon as the first block journals, so the run is
            # provably mid-flight with most of its 5 blocks (500 rows
            # each, one chunk apiece) still to go.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if journal.is_file() and journal.read_text().count("\n") > 1:
                    break
                time.sleep(0.002)
            runner.cancel()
            thread.join(60)
            assert not thread.is_alive()
        assert caught and isinstance(caught[0], RunCancelledError)
        # Finished blocks stayed journaled for a later resume.
        assert journal_header(journal) is not None

    def test_cancel_with_hundreds_of_one_row_blocks(self, tmp_path):
        # One sweep per recording on a fine azimuth grid: hundreds of
        # one-row blocks, which run as several stacked chunks.  The
        # cancel lands on a chunk boundary, so only whole chunks are
        # journaled and most blocks never run.
        journal = tmp_path / "j.jsonl"
        spec = ScenarioSpec(
            scenario="policy-eval",
            seed=78,
            policies=(PolicySpec("css", {"n_probes": 14}),),
            params={"azimuth_step_deg": 0.1, "distance_m": 6.0, "n_sweeps": 1},
        )
        caught = []
        with ScenarioRunner(checkpoint=journal) as runner:
            blocks = []
            original = runner.execute

            def execute(policy, planned, *args, **kwargs):
                blocks.append(len(planned))
                return original(policy, planned, *args, **kwargs)

            runner.execute = execute

            def target():
                try:
                    runner.run(spec)
                except BaseException as error:  # noqa: BLE001 - test probe
                    caught.append(error)

            thread = threading.Thread(target=target)
            thread.start()
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if journal.is_file() and journal.read_text().count("\n") > 1:
                    break
                time.sleep(0.002)
            runner.cancel()
            thread.join(60)
            assert not thread.is_alive()
        assert caught and isinstance(caught[0], RunCancelledError)
        assert blocks and blocks[0] > 4 * runner_module.CHUNK_ROWS
        journaled = journal.read_text().count("\n") - 1
        assert 0 < journaled < sum(blocks)

    def test_deadline_survives_into_next_run_until_rebound(self, tmp_path):
        # deadline_s is per-call: the next run() without one is unbounded.
        with ScenarioRunner(checkpoint=tmp_path / "j.jsonl") as runner:
            with pytest.raises(DeadlineExceededError):
                runner.run(_spec(), deadline_s=1e-9)
            outcome = runner.run(_spec(), checkpoint=tmp_path / "j2.jsonl")
            assert outcome.manifest.result_sha256


class TestRunsGC:
    def _journal(self, path: Path, digest: str = "d0", seed: int = 1) -> None:
        CheckpointStore(path, spec_digest=digest, seed=seed).close()

    def test_gc_removes_only_orphaned_journals(self, tmp_path, capsys):
        state = tmp_path / "service"
        state.mkdir(parents=True)
        registry = RunRegistry(state / "registry.jsonl", durable=False)
        referenced = state / "r000001-aaaa.jsonl"
        self._journal(referenced)
        registry.record(
            "r000001-aaaa", "queued", checkpoint_path=str(referenced)
        )
        registry.close()
        orphan = state / "r000099-dead.jsonl"
        self._journal(orphan)
        stray = state / "notes.jsonl"
        stray.write_text("not a journal\n")
        assert main(["runs", "gc", "--state-dir", str(state)]) == 0
        out = capsys.readouterr().out
        assert not orphan.exists(), "orphaned journal must be swept"
        assert referenced.exists(), "journal referenced by the registry stays"
        assert stray.exists(), "non-journal files are not ours to delete"
        assert (state / "registry.jsonl").exists()
        assert "gc: reclaimed 1 journal(s)" in out

    def test_gc_of_missing_state_dir_is_an_error(self, tmp_path):
        assert main(["runs", "gc", "--state-dir", str(tmp_path / "nope")]) == 2

    def test_cli_parses_lifecycle_surfaces(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--state-dir", "/s", "--drain-timeout", "5"])
        assert args.state_dir == "/s" and args.drain_timeout == 5.0
        args = parser.parse_args(["runs", "gc", "--sweep-shm"])
        assert args.action == "gc" and args.sweep_shm
        args = parser.parse_args(
            ["chaos", "--seed", "3", "--events", "torn-tail,shm-evict"]
        )
        assert args.seed == 3 and args.events == "torn-tail,shm-evict"
        assert main(["chaos", "--events", "nope"]) == 2
        args = parser.parse_args(["run", "--deadline", "1.5", "fig10"])
        assert args.deadline == 1.5


class TestCrashRecovery:
    def test_sigkill_restart_resumes_bit_identical(self, tmp_path):
        # Drive the chaos harness's serve-restart event: a subprocess
        # service is SIGKILLed mid-run (≥1 block journaled), restarted
        # on the same state dir, and must resume the run to the clean
        # local digest with checkpoint_hits > 0, then drain cleanly.
        from repro.runtime.chaos import ChaosConfig, _Campaign

        campaign = _Campaign(
            ChaosConfig(
                state_dir=str(tmp_path / "state"),
                seed=11,
                events=("serve-restart",),
            )
        )
        report = campaign.run()
        assert report.ok(), "\n".join(report.format_rows())
        assert report.metrics["service_recovery_s"] > 0.0
        detail = report.events[0]
        assert detail["caught"] == 1
        assert detail["checkpoint_hits"] >= 1
