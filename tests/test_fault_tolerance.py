"""Fault-tolerant execution: supervision, checkpoints, injection.

The contract under test (DESIGN.md §9): because randomness is consumed
only during planning and block evaluation is pure, every recovery path
— retry, pool replacement, timeout, checkpoint resume — is
bit-invisible in the records.  A fault plan may change a run's
*health* section, never its *results*.

The pinned acceptance test is ``TestRecoveryEquivalence``: a jobs=4
policy-eval run with an injected worker crash, an injected hang
(timeout + retry) and injected transient exceptions produces records
bit-identical to a clean jobs=1 run of the same spec+seed, with exact
health accounting.  ``TestKillResume`` pins the kill–``--resume``
cycle.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.runtime.runner as runner_module
from repro.cli import main as cli_main
from repro.core.selector import Selections
from repro.runtime import (
    CheckpointStore,
    FaultInjectionError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PolicyContext,
    PolicySpec,
    RetryExhaustedError,
    RetryPolicy,
    ScenarioRunner,
    ScenarioSpec,
    TestbedSpec as _TestbedSpec,
    build_policy,
)

# A narrow policy-eval arc: 5 recordings x 3 sweeps per policy, both
# batched built-ins.  Small enough for supervised-execution tests, wide
# enough that fault plans can target blocks 0-4.
def _small_spec() -> ScenarioSpec:
    return ScenarioSpec(
        scenario="policy-eval",
        seed=2017,
        policies=(
            PolicySpec("css", {"n_probes": 14}),
            PolicySpec("full-sweep", {}),
        ),
        params={"azimuth_step_deg": 30.0, "distance_m": 6.0, "n_sweeps": 3},
    )


@pytest.fixture(scope="module")
def clean_result(testbed):
    """The reference jobs=1 run every recovery test compares against."""
    with ScenarioRunner() as runner:
        outcome = runner.run(_small_spec())
    return outcome


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_grows(self):
        retry = RetryPolicy(max_attempts=5, backoff_base_s=0.1, seed=3)
        first = [retry.backoff_s(2, attempt) for attempt in (1, 2, 3)]
        again = [retry.backoff_s(2, attempt) for attempt in (1, 2, 3)]
        assert first == again
        assert first[0] < first[1] < first[2]
        # jitter stays within the declared fraction of the base
        assert 0.1 <= first[0] <= 0.1 * (1 + retry.jitter)

    def test_jitter_differs_across_blocks(self):
        retry = RetryPolicy()
        assert retry.backoff_s(0, 1) != retry.backoff_s(1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)

    def test_json_round_trip(self):
        retry = RetryPolicy(max_attempts=7, timeout_s=2.5, seed=11)
        assert RetryPolicy.from_json(retry.to_json()) == retry


class TestFaultPlan:
    def test_parse_grammar(self):
        plan = FaultPlan.parse(["crash@1", "exception@0,2*3"], hang_s=4.0)
        assert plan.hang_s == 4.0
        assert plan.faults == (
            FaultSpec("crash", 1),
            FaultSpec("exception", 0, times=3),
            FaultSpec("exception", 2, times=3),
        )

    @pytest.mark.parametrize("token", ["crash", "crash@", "nope@1", "hang@-1"])
    def test_parse_rejects_bad_tokens(self, token):
        with pytest.raises(ValueError):
            FaultPlan.parse([token])

    def test_json_round_trip(self):
        plan = FaultPlan.parse(["hang@2", "cache-corrupt@0"], hang_s=1.5)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_injector_is_a_pure_function_of_block_and_attempt(self):
        injector = FaultInjector(FaultPlan.parse(["exception@1*2", "hang@3"]))
        assert injector.directive(0, 1) is None
        assert injector.directive(1, 1) == {"kind": "exception"}
        assert injector.directive(1, 2) == {"kind": "exception"}
        assert injector.directive(1, 3) is None
        # hang directives carry the plan's duration
        assert injector.directive(3, 1) == {"kind": "hang", "hang_s": 30.0}
        # replaying the same dispatch replays the same decision
        assert injector.directive(1, 2) == injector.directive(1, 2)

    def test_spec_round_trips_faults_but_digest_ignores_them(self):
        spec = _small_spec()
        faulty = spec.with_faults(FaultPlan.parse(["crash@0"]))
        assert ScenarioSpec.from_json(faulty.to_json()) == faulty
        assert ScenarioSpec.from_json(spec.to_json()).faults is None
        # the overlay changes execution, never results: same digest
        assert faulty.digest() == spec.digest()


def _rows(*sectors):
    """A block's selections: one row per sector id, no estimate."""
    return Selections.from_columns(
        np.array(sectors, dtype=np.int64), np.zeros(len(sectors), dtype=bool)
    )


class TestCheckpointStore:
    def test_round_trip_and_idempotent_put(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path, "digest-a", 7)
        store.put("policy", 0, 0, _rows(1, 2, 3))
        store.put("policy", 0, 0, _rows(9, 9, 9))  # second put is a no-op
        store.close()
        resumed = CheckpointStore(path, "digest-a", 7, resume=True)
        assert resumed.restored == 1
        assert resumed.get("policy", 0, 0) == _rows(1, 2, 3)
        assert resumed.get("policy", 0, 1) is None
        resumed.close()

    def test_call_index_separates_repeated_policy_specs(self, tmp_path):
        # fig7 shape: the same policy spec is executed once per
        # environment — identical digest, identical block indices.
        # Each execute call journals under its own ordinal, so one
        # environment's results can never be served as the other's.
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path, "digest-a", 7)
        store.put("policy", 0, 0, _rows(11))
        store.put("policy", 1, 0, _rows(12))
        assert store.get("policy", 0, 0) == _rows(11)
        assert store.get("policy", 1, 0) == _rows(12)
        store.close()
        resumed = CheckpointStore(path, "digest-a", 7, resume=True)
        assert resumed.restored == 2
        assert resumed.get("policy", 1, 0) == _rows(12)
        resumed.close()

    def test_get_call_matches_per_block_gets_and_their_miss_count(self, tmp_path):
        from repro import obs

        def counted(read):
            session = obs.ObsSession()
            previous = obs.activate(session)
            try:
                answers = read()
            finally:
                obs.deactivate(previous)
            return answers, session.metrics.snapshot()["counters"]

        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path, "digest-a", 7)
        # Nothing restored: every block misses, counted in one step.
        answers, counters = counted(lambda: store.get_call("policy", 0, 5))
        assert answers == [None] * 5
        assert counters == {"checkpoint_misses_total": 5}
        assert counted(lambda: store.get_call("policy", 0, 0)) == ([], {})
        store.put("policy", 0, [1, 3], [_rows(31), _rows(33)])
        store.close()
        resumed = CheckpointStore(path, "digest-a", 7, resume=True)
        whole, whole_counters = counted(lambda: resumed.get_call("policy", 0, 5))
        single, single_counters = counted(
            lambda: [resumed.get("policy", 0, block) for block in range(5)]
        )
        assert whole == single == [None, _rows(31), None, _rows(33), None]
        assert whole_counters == single_counters
        assert whole_counters["checkpoint_misses_total"] == 3
        assert counted(lambda: resumed.get_call("policy", 1, 2))[0] == [None, None]
        resumed.close()

    def test_stale_header_starts_fresh(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path, "digest-a", 7)
        store.put("policy", 0, 0, _rows(13))
        store.close()
        other = CheckpointStore(path, "digest-B", 7, resume=True)
        assert other.restored == 0
        assert other.get("policy", 0, 0) is None
        other.close()

    def test_fresh_open_refuses_a_matching_journal(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path, "digest-a", 7)
        store.put("policy", 0, 0, _rows(14))
        store.close()
        before = path.read_bytes()
        # without resume, a journal this run could have resumed is
        # never truncated — the caller is told about --resume instead
        with pytest.raises(FileExistsError, match="--resume"):
            CheckpointStore(path, "digest-a", 7, resume=False)
        assert path.read_bytes() == before
        resumed = CheckpointStore(path, "digest-a", 7, resume=True)
        assert resumed.restored == 1
        resumed.close()
        # a journal of a *different* spec or seed is overwritten freely
        fresh = CheckpointStore(path, "digest-B", 9, resume=False)
        assert len(fresh) == 0
        fresh.close()

    def test_corrupt_tail_is_dropped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path, "digest-a", 7)
        store.put("policy", 0, 0, _rows(15))
        store.put("policy", 0, 1, _rows(16))
        store.close()
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        resumed = CheckpointStore(path, "digest-a", 7, resume=True)
        assert resumed.restored == 1
        assert resumed.get("policy", 0, 0) == _rows(15)
        assert resumed.get("policy", 0, 1) is None
        resumed.close()

    def test_a_flipped_key_digit_is_never_served_as_another_block(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path, "digest-a", 7)
        store.put(
            "policy", 0, [0, 1, 2, 3], [_rows(20), _rows(21), _rows(22), _rows(23)]
        )
        store.close()
        key = CheckpointStore.entry_key("policy", 0, 3).encode()
        data = bytearray(path.read_bytes())
        data[data.index(key) + len(key) - 1] ^= 0x01  # block 3 -> block 2
        path.write_bytes(bytes(data))
        resumed = CheckpointStore(path, "digest-a", 7, resume=True)
        assert resumed.restored == 3
        assert [resumed.get("policy", 0, b) for b in range(4)] == [
            _rows(20), _rows(21), _rows(22), None
        ]
        resumed.close()

    def test_durable_mode_fsyncs_header_and_every_put(self, tmp_path, monkeypatch):
        import os as os_module

        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "repro.runtime.checkpoint.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd))[1],
        )
        path = tmp_path / "ck.jsonl"
        lax = CheckpointStore(path, "digest-a", 7)
        lax.put("policy", 0, 0, _rows(1))
        lax.close()
        assert synced == []  # default stays flush-only
        durable = CheckpointStore(
            tmp_path / "ck2.jsonl", "digest-a", 7, durable=True
        )
        assert len(synced) == 1  # header
        durable.put("policy", 0, 0, _rows(1))
        durable.put("policy", 0, 1, _rows(2))
        assert len(synced) == 3
        durable.put("policy", 0, 0, _rows(9))  # idempotent no-op: no I/O
        assert len(synced) == 3
        durable.close()

    def test_durable_corrupt_tail_still_drops_and_resumes(self, tmp_path):
        # The crash model durable mode exists for: power loss tears the
        # last entry mid-write.  Recovery must keep every fsync'd
        # prefix entry and drop only the torn tail.
        path = tmp_path / "ck.jsonl"
        store = CheckpointStore(path, "digest-a", 7, durable=True)
        store.put("policy", 0, 0, _rows(15))
        store.put("policy", 0, 1, _rows(16))
        store.close()
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        resumed = CheckpointStore(path, "digest-a", 7, resume=True, durable=True)
        assert resumed.restored == 1
        assert resumed.get("policy", 0, 0) == _rows(15)
        assert resumed.get("policy", 0, 1) is None
        # the re-journaled replacement for the torn entry is durable too
        resumed.put("policy", 0, 1, _rows(17))
        resumed.close()
        final = CheckpointStore(path, "digest-a", 7, resume=True)
        assert final.restored == 2
        final.close()


class TestContextManager:
    def test_with_block_closes_the_pool_on_exit(self):
        with ScenarioRunner(jobs=2) as runner:
            assert runner._pool() is not None
        assert runner._children == []

    def test_close_is_idempotent(self):
        runner = ScenarioRunner()
        runner.close()
        runner.close()

    def test_pool_is_released_when_the_body_raises(self):
        with pytest.raises(RuntimeError, match="boom"):
            with ScenarioRunner(jobs=2) as runner:
                runner._pool()
                raise RuntimeError("boom")
        assert runner._children == []


class TestLocalSupervision:
    def test_injected_exceptions_recover_bit_identically(self, clean_result):
        plan = FaultPlan.parse(["exception@0*2", "exception@3"])
        retry = RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        with ScenarioRunner(retry=retry, faults=plan) as runner:
            outcome = runner.run(_small_spec())
        assert outcome.result.rows == clean_result.result.rows
        health = outcome.manifest.health
        assert health["blocks"] == 10
        assert health["executed"] == 10
        assert health["retries"] == 6  # (2 + 1) per batched policy
        assert health["injected"] == 6
        assert health["attempts"] == {
            "css[0]": 3, "css[3]": 2, "full-sweep[0]": 3, "full-sweep[3]": 2,
        }

    def test_exhaustion_raises_with_structured_fields(self):
        plan = FaultPlan.parse(["exception@1*9"])
        retry = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        with ScenarioRunner(retry=retry, faults=plan) as runner:
            with pytest.raises(RetryExhaustedError) as excinfo:
                runner.run(_small_spec())
        error = excinfo.value
        assert error.label == "css"
        assert error.block_index == 1
        assert error.attempts == 2
        assert isinstance(error.cause, FaultInjectionError)

    def test_spec_carried_fault_plan_is_honored(self, clean_result):
        spec = _small_spec().with_faults(FaultPlan.parse(["exception@2"]))
        retry = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        with ScenarioRunner(retry=retry) as runner:
            outcome = runner.run(spec)
        assert outcome.result.rows == clean_result.result.rows
        assert outcome.manifest.health["injected"] == 2

    def test_default_runner_fails_fast(self):
        spec = _small_spec().with_faults(FaultPlan.parse(["exception@0"]))
        with ScenarioRunner() as runner:
            with pytest.raises(RetryExhaustedError) as excinfo:
                runner.run(spec)
        assert excinfo.value.attempts == 1


@pytest.fixture(scope="class")
def isolated_memo(tmp_path_factory):
    """A private testbed cache: cache-corrupt directives truncate its memo."""
    from repro.experiments.common import build_testbed

    def forget():
        build_testbed.cache_clear()
        runner_module._WORKER_CONTEXTS.clear()
        runner_module._WORKER_POLICIES.clear()

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("memo")))
        patch.delenv("REPRO_TESTBED_CACHE", raising=False)
        forget()
        yield
    forget()


class TestOneSupervisionLoop:
    """jobs=1 runs its chunks as in-process tasks of the pool's rounds."""

    @settings(max_examples=8, deadline=None)
    @given(
        faults=st.lists(
            st.builds(
                FaultSpec,
                st.sampled_from(["exception", "crash", "cache-corrupt"]),
                st.integers(0, 4),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=3,
        )
    )
    # Block 2 is lost with block 0's crashing child at jobs=2 and
    # settles a round later than at jobs=1: health must not show it.
    @example(
        faults=[
            FaultSpec("crash", 0),
            FaultSpec("exception", 1, times=2),
            FaultSpec("exception", 2),
        ]
    )
    def test_jobs1_and_jobs2_settle_a_plan_alike(
        self, clean_result, isolated_memo, faults
    ):
        """A plan that completes gives the clean digest and the same
        health bytes (pool replacements aside) at jobs 1 and 2; one that
        exhausts a block raises the same structured error at both."""
        retry = RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        plan = FaultPlan(faults=tuple(faults))
        settled = []
        for jobs in (1, 2):
            with ScenarioRunner(jobs=jobs, retry=retry, faults=plan) as runner:
                try:
                    manifest = runner.run(_small_spec()).manifest
                except RetryExhaustedError as error:
                    settled.append((error.label, error.block_index, error.attempts))
                    continue
            assert manifest.result_sha256 == clean_result.manifest.result_sha256
            health = dict(manifest.health)
            del health["pool_replacements"]
            settled.append(json.dumps(health))
        assert settled[0] == settled[1]

    def test_default_runner_runs_no_chunk_after_the_failed_block(self, monkeypatch):
        from repro.core.policy import CompressivePolicy

        kernel_calls = []
        for name in ("select_batch", "select_fused_stacked"):
            def counted(self, *args, _real=getattr(CompressivePolicy, name), **kwargs):
                kernel_calls.append(args)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(CompressivePolicy, name, counted)
        spec = _small_spec().with_faults(FaultPlan.parse(["exception@0"]))
        with ScenarioRunner() as runner:
            with pytest.raises(RetryExhaustedError) as excinfo:
                runner.run(spec)
        assert (excinfo.value.label, excinfo.value.block_index) == ("css", 0)
        # Block 0 fails before its kernel; blocks 1-4 share a later chunk.
        assert kernel_calls == []


class TestRecoveryEquivalence:
    """The pinned acceptance test: crash + hang + exceptions at jobs=4."""

    def test_supervised_jobs4_matches_clean_jobs1_bit_for_bit(self, clean_result):
        plan = FaultPlan(
            faults=(
                FaultSpec("exception", 0, times=2),
                FaultSpec("crash", 1),
                FaultSpec("hang", 2),
            ),
            hang_s=10.0,
        )
        retry = RetryPolicy(max_attempts=4, backoff_base_s=0.01, timeout_s=3.0)
        with ScenarioRunner(jobs=4, retry=retry, faults=plan) as runner:
            outcome = runner.run(_small_spec())

        assert outcome.result.rows == clean_result.result.rows

        health = outcome.manifest.health
        assert health["blocks"] == 10
        assert health["executed"] == 10
        assert health["checkpoint_hits"] == 0
        # per batched policy: 2 exception retries + 1 crash + 1 timeout
        assert health["retries"] == 8
        assert health["timeouts"] == 2
        assert health["injected"] == 8
        # crash and hang each cost one pool child per policy
        assert health["pool_replacements"] == 4
        assert health["attempts"] == {
            "css[0]": 3, "css[1]": 2, "css[2]": 2,
            "full-sweep[0]": 3, "full-sweep[1]": 2, "full-sweep[2]": 2,
        }

    def test_clean_jobs4_matches_jobs1_with_clean_health(self, clean_result):
        with ScenarioRunner(jobs=4, retry=RetryPolicy()) as runner:
            outcome = runner.run(_small_spec())
        assert outcome.result.rows == clean_result.result.rows
        health = outcome.manifest.health
        assert health["retries"] == 0
        assert health["timeouts"] == 0
        assert health["pool_replacements"] == 0
        assert health["injected"] == 0


class TestKillResume:
    def test_exhausted_run_leaves_a_resumable_checkpoint(
        self, clean_result, tmp_path
    ):
        spec = _small_spec()
        ckpt = tmp_path / "campaign.jsonl"
        plan = FaultPlan.parse(["exception@3*10"])
        retry = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        with ScenarioRunner(jobs=4, retry=retry, faults=plan, checkpoint=ckpt) as runner:
            with pytest.raises(RetryExhaustedError):
                runner.run(spec)

        # the dying run journaled every css block it did finish
        lines = ckpt.read_text().splitlines()
        assert json.loads(lines[0])["spec_digest"] == spec.digest()
        assert len(lines) - 1 == 4  # css blocks 0, 1, 2, 4

        with ScenarioRunner(jobs=4, checkpoint=ckpt, resume=True) as runner:
            outcome = runner.run(spec)
        assert outcome.result.rows == clean_result.result.rows
        health = outcome.manifest.health
        assert health["checkpoint_hits"] == 4
        assert health["executed"] == 6
        assert health["retries"] == 0
        assert health["checkpoint"] == str(ckpt)

    def test_finished_checkpoint_skips_every_block(self, clean_result, tmp_path):
        spec = _small_spec()
        ckpt = tmp_path / "done.jsonl"
        with ScenarioRunner(checkpoint=ckpt) as runner:
            runner.run(spec)
        with ScenarioRunner(checkpoint=ckpt, resume=True) as runner:
            outcome = runner.run(spec)
        assert outcome.result.rows == clean_result.result.rows
        assert outcome.manifest.health["checkpoint_hits"] == 10
        assert outcome.manifest.health["executed"] == 0

    def test_checkpoint_without_resume_refuses_to_destroy_a_journal(self, tmp_path):
        spec = _small_spec()
        ckpt = tmp_path / "guarded.jsonl"
        with ScenarioRunner(checkpoint=ckpt) as runner:
            runner.run(spec)
        with ScenarioRunner(checkpoint=ckpt) as runner:
            with pytest.raises(FileExistsError, match="--resume"):
                runner.run(spec)


class TestRepeatedPolicyCheckpointing:
    """fig7's shape: one policy spec evaluated once per environment.

    Identical policy digest, identical block indices, *different*
    recordings — a checkpoint keyed only on (policy, block) would serve
    the first environment's journaled results as the second's, silently.
    """

    def _blocks(self, runner, policy, testbed, azimuths, seed):
        from repro.channel.environment import conference_room
        from repro.experiments.common import record_directions

        recordings = record_directions(
            testbed, conference_room(6.0), azimuths, [0.0], 2,
            np.random.default_rng(seed),
        )
        return runner.plan_trials(
            policy, recordings, testbed.tx_sector_ids,
            np.random.default_rng(seed + 1),
        )

    def test_identical_specs_on_different_recordings_do_not_collide(
        self, testbed, tmp_path
    ):
        policy_spec = PolicySpec("css", {"n_probes": 14})
        with ScenarioRunner() as reference:
            policy = build_policy(policy_spec, reference.context(testbed))
            blocks_a = self._blocks(reference, policy, testbed, [-20.0, 20.0], 11)
            blocks_b = self._blocks(reference, policy, testbed, [-40.0, 40.0], 12)
            want_a = reference.execute(policy, blocks_a)
            want_b = reference.execute(policy, blocks_b)
        assert [r.result for r in want_a] != [r.result for r in want_b]

        ckpt = tmp_path / "ck.jsonl"
        with ScenarioRunner() as runner:
            runner._store = CheckpointStore(ckpt, "digest", 7)
            policy = build_policy(policy_spec, runner.context(testbed))
            got_a = runner.execute(policy, blocks_a, policy_spec=policy_spec)
            got_b = runner.execute(policy, blocks_b, policy_spec=policy_spec)
            # within one run, the second call must not be fed the first
            # call's freshly journaled blocks
            assert runner.health.checkpoint_hits == 0
        assert [r.result for r in got_a] == [r.result for r in want_a]
        assert [r.result for r in got_b] == [r.result for r in want_b]

        # and across a resume, each call restores its own blocks
        with ScenarioRunner() as resumed:
            resumed._store = CheckpointStore(ckpt, "digest", 7, resume=True)
            policy = build_policy(policy_spec, resumed.context(testbed))
            re_a = resumed.execute(policy, blocks_a, policy_spec=policy_spec)
            re_b = resumed.execute(policy, blocks_b, policy_spec=policy_spec)
            assert resumed.health.checkpoint_hits == len(blocks_a) + len(blocks_b)
        assert [r.result for r in re_a] == [r.result for r in want_a]
        assert [r.result for r in re_b] == [r.result for r in want_b]


class TestWorkerCacheCorruption:
    """A corrupted testbed memo self-heals instead of crashing the pool."""

    def _small_testbed_spec(self):
        return _TestbedSpec(
            seed=7,
            azimuth_step_deg=30.0,
            elevation_step_deg=16.0,
            max_elevation_deg=32.0,
            campaign_sweeps=1,
        )

    @pytest.fixture()
    def isolated_cache(self, tmp_path, monkeypatch):
        from repro.experiments.common import build_testbed

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_TESTBED_CACHE", raising=False)
        build_testbed.cache_clear()
        runner_module._WORKER_CONTEXTS.clear()
        runner_module._WORKER_POLICIES.clear()
        yield tmp_path
        build_testbed.cache_clear()
        runner_module._WORKER_CONTEXTS.clear()
        runner_module._WORKER_POLICIES.clear()

    def test_truncated_memo_triggers_the_self_healing_rebuild(self, isolated_cache):
        testbed_key = self._small_testbed_spec().key()
        policy_key = PolicySpec("css", {"n_probes": 6}).key()

        # cold build populates the on-disk memo
        policy = runner_module._worker_policy(testbed_key, policy_key)
        memo = runner_module._memoized_testbed_path(testbed_key)
        assert memo.is_file()

        # truncate the cache entry mid-file, drop every warm cache, and
        # warm up again: load_or_build_table must rebuild, not raise
        data = memo.read_bytes()
        memo.write_bytes(data[: len(data) // 2])
        runner_module._reset_worker_caches()
        healed = runner_module._worker_policy(testbed_key, policy_key)
        assert healed is not policy
        assert memo.is_file() and memo.read_bytes() != data[: len(data) // 2]

    def _planned(self, azimuths):
        """``(testbed spec, policy spec, policy, plan)`` on the small testbed."""
        from repro.channel.environment import conference_room
        from repro.experiments.common import record_directions

        spec = self._small_testbed_spec()
        policy_spec = PolicySpec("css", {"n_probes": 6})
        testbed = spec.build()
        policy = build_policy(policy_spec, PolicyContext(testbed=testbed))
        recordings = record_directions(
            testbed, conference_room(6.0), azimuths, [0.0], 2,
            np.random.default_rng(3),
        )
        with ScenarioRunner() as planner:
            blocks = planner.plan_trials(
                policy, recordings, testbed.tx_sector_ids,
                np.random.default_rng(4),
            )
        return spec, policy_spec, policy, blocks

    def test_worker_block_runs_through_an_injected_corruption(self, isolated_cache):
        spec, policy_spec, _, plan = self._planned([0.0])
        testbed_key = spec.key()

        def worker_policy():
            return runner_module._worker_policy(testbed_key, policy_spec.key())

        done, failure = runner_module._run_chunks(
            worker_policy, runner_module._task(plan, [(0, 1)]), testbed_key, False
        )
        assert failure is None
        ((first, stop, clean, payload),) = done
        assert (first, stop, payload) == (0, 1, None)
        done, failure = runner_module._run_chunks(
            worker_policy,
            runner_module._task(plan, [(0, 1)], directive={"kind": "cache-corrupt"}),
            testbed_key, False,
        )
        assert failure is None
        ((first, stop, corrupted, payload),) = done
        assert (first, stop, payload) == (0, 1, None)
        assert [r.sector_id for r in corrupted] == [r.sector_id for r in clean]

    def test_local_cache_corrupt_directive_truncates_the_memo(self, isolated_cache):
        spec, policy_spec, policy, blocks = self._planned([-30.0, 30.0])
        testbed_key = spec.key()
        policy_key = policy_spec.key()
        runner_module._worker_policy(testbed_key, policy_key)
        memo = runner_module._memoized_testbed_path(testbed_key)
        data = memo.read_bytes()

        with ScenarioRunner() as runner:
            clean = runner.execute(policy, blocks)
        plan = FaultPlan.parse(["cache-corrupt@1"])
        with ScenarioRunner(faults=plan) as runner:
            records = runner.execute(
                policy, blocks, policy_spec=policy_spec, testbed_spec=spec
            )
            assert runner.health.injected == 1
        assert records.selections == clean.selections
        assert memo.read_bytes() == data[: max(16, len(data) // 2)]
        # the warm caches were dropped with the memo: the next warm-up
        # takes the self-healing rebuild path
        healed = runner_module._worker_policy(testbed_key, policy_key)
        assert healed is not None
        assert memo.read_bytes() != data[: max(16, len(data) // 2)]

    def test_local_cache_corrupt_without_a_testbed_spec_is_not_counted(
        self, isolated_cache
    ):
        spec, policy_spec, policy, blocks = self._planned([-30.0, 30.0])
        memo = runner_module._memoized_testbed_path(spec.key())
        data = memo.read_bytes()
        plan = FaultPlan.parse(["cache-corrupt@1"])
        with ScenarioRunner(faults=plan) as runner:
            runner.execute(policy, blocks, policy_spec=policy_spec)
            assert runner.health.injected == 0
        assert memo.read_bytes() == data


class _BrokenBatch:
    """A policy whose batched kernel always fails."""

    def __init__(self, inner):
        self._inner = inner
        self.name = "broken-batch"

    def reset(self):
        self._inner.reset()

    def probe_positions(self, n_trials, pool, rng):
        return self._inner.probe_positions(n_trials, pool, rng)

    def select_batch(self, *args, **kwargs):
        raise RuntimeError("batched kernel rejected")

    def training_time_us(self, probes_used, n_rounds):
        return self._inner.training_time_us(probes_used, n_rounds)


class TestKernelFailure:
    def test_failing_kernel_is_retried_then_fails(self, testbed):
        """A raising kernel is a failed block attempt: retried, then a
        structured retry-exhaustion error."""
        from repro.channel.environment import conference_room
        from repro.experiments.common import record_directions

        policy_spec = PolicySpec("css", {"n_probes": 14})
        recordings = record_directions(
            testbed, conference_room(6.0), [-20.0, 0.0, 20.0], [0.0], 2,
            np.random.default_rng(5),
        )
        retry = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        with ScenarioRunner(retry=retry) as runner:
            broken = _BrokenBatch(build_policy(policy_spec, runner.context(testbed)))
            blocks = runner.plan_trials(
                broken, recordings, testbed.tx_sector_ids, np.random.default_rng(6),
            )
            with pytest.raises(RetryExhaustedError) as excinfo:
                runner.execute(broken, blocks)
            assert runner.health.retries == 1

        error = excinfo.value
        assert (error.label, error.block_index, error.attempts) == ("broken-batch", 0, 2)
        assert isinstance(error.cause, RuntimeError)


class TestStackedPassFailure:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_stacked_pass_reruns_blocks_uncharged(
        self, clean_result, monkeypatch, jobs
    ):
        """A raising stacked pass falls back to per-block evaluation:
        same records, no retry charged, and no trace of the failed
        attempt — one ``execute.block`` span per block.  (Patched
        before the fork pool starts, so workers inherit it.)"""
        from repro import obs
        from repro.core.policy import CompressivePolicy

        def broken(self, parts, around=None):
            # Fail after the first part's build, inside the pass.
            if around is not None:
                with around(0):
                    pass
            raise RuntimeError("stacked kernel rejected")

        monkeypatch.setattr(CompressivePolicy, "select_fused_stacked", broken)
        session = obs.ObsSession()
        with ScenarioRunner(jobs=jobs, obs=session) as runner:
            outcome = runner.run(_small_spec())
        assert outcome.result.rows == clean_result.result.rows
        assert outcome.manifest.health["retries"] == 0
        spans = outcome.manifest.observability["spans"]
        assert spans["execute.block"]["count"] == 10


class TestCliFaultSurface:
    def test_retry_exhaustion_exits_one_with_a_structured_line(self, capsys):
        status = cli_main(
            [
                "run", "policy-eval",
                "--inject", "exception@0*9", "--max-attempts", "2",
                "--backoff", "0",
            ]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "retries exhausted" in err
        assert "policy=css block=0 attempts=2" in err
        assert "Traceback" not in err

    def test_bad_inject_token_exits_two(self, capsys):
        status = cli_main(["run", "policy-eval", "--inject", "nonsense"])
        assert status == 2
        assert "--inject" in capsys.readouterr().err

    def test_injected_run_recovers_and_reports_health(self, capsys):
        status = cli_main(
            [
                "run", "policy-eval",
                "--inject", "exception@1", "--max-attempts", "3",
                "--backoff", "0",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "health" in out
        assert "retries=2" in out  # one retry for each batched policy

    def test_checkpoint_without_resume_refuses_and_exits_two(self, capsys, tmp_path):
        ckpt = tmp_path / "campaign.jsonl"
        assert cli_main(["run", "policy-eval", "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        status = cli_main(["run", "policy-eval", "--checkpoint", str(ckpt)])
        assert status == 2
        err = capsys.readouterr().err
        assert "--resume" in err
        assert "Traceback" not in err
        # with --resume the journal is honored, not destroyed
        assert cli_main(
            ["run", "policy-eval", "--checkpoint", str(ckpt), "--resume"]
        ) == 0
        assert "checkpoint_hits=" in capsys.readouterr().out
