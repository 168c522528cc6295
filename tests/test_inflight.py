"""Execute calls in flight on the pool (DESIGN.md §12).

``ScenarioRunner.execute_each`` dispatches a pooled call's first round
as soon as the scenario plans it, keeps up to ``_MAX_INFLIGHT_CALLS``
calls unsettled while the next ones are planned, and settles them
first in, first out.  The contracts under test:

* **Bit-identity** — records equal one ``execute`` per call at
  ``jobs=1``, over random call streams; fig7's digest and trace span
  set do not depend on ``jobs``.
* **Supervision with calls in flight** — an external worker SIGKILL
  costs exactly one pool replacement and no retry; a cancel or a
  deadline journals every finished block of every in-flight call, and
  a resume equals a clean run; injected faults (one call in flight)
  keep their health sections.
* **Segments** — tasks carry their own rows, so the runner publishes
  only kernels, whatever calls settled or were dropped; a pool child
  holds no segment it did not attach.
"""

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.runner as runner_module
import repro.runtime.shm as shm
from repro import obs
from repro.channel.environment import conference_room
from repro.experiments.common import record_directions
from repro.experiments.fig7 import Fig7Config, fig7_spec
from repro.runtime import (
    DeadlineExceededError,
    FaultPlan,
    PolicySpec,
    RetryPolicy,
    RunCancelledError,
    ScenarioRunner,
)
from repro.runtime import spec as runtime_spec
from tests.process_tree import held_segments, published_kernels

#: 12 execute calls of 5–15 one- or two-row blocks each: more calls
#: than the in-flight cap, so dispatching continues after the first
#: settle.
_SMALL = Fig7Config(
    probe_counts=(6, 10, 14, 18, 22, 26),
    lab_azimuth_step_deg=30.0,
    lab_elevation_step_deg=15.0,
    conference_azimuth_step_deg=30.0,
    n_sweeps=1,
    subsamples_per_sweep=2,
)


@pytest.fixture(autouse=True)
def two_lanes(monkeypatch):
    """The pool only runs clean calls with two or more lanes."""
    if (os.cpu_count() or 1) < 2:
        monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture(scope="module")
def clean():
    with ScenarioRunner(jobs=1) as runner:
        return runner.run(fig7_spec(_SMALL))


def _kernel_segments():
    return held_segments([os.getpid()])


def _hook_first_settle(runner, before):
    """Run ``before(runner)`` once, as the first pooled call settles;
    returns the number of calls in flight at that moment."""
    seen = []
    original = runner._settle

    def settle(call):
        if not seen:
            seen.append(len(runner._unsettled))
            before(runner)
        return original(call)

    runner._settle = settle
    return seen


def _wait_for_inflight_tasks(runner):
    deadline = time.monotonic() + 60
    for call in runner._unsettled:
        for _, _, future, _ in call.tasks:
            while not future.done():
                assert time.monotonic() < deadline, "task never finished"
                time.sleep(0.005)


class TestCallsInFlight:
    def test_jobs2_matches_jobs1_with_several_calls_in_flight(self, clean):
        with ScenarioRunner(jobs=2) as runner:
            seen = _hook_first_settle(runner, lambda _: None)
            outcome = runner.run(fig7_spec(_SMALL))
        assert seen and seen[0] == runner_module._MAX_INFLIGHT_CALLS
        assert outcome.manifest.result_sha256 == clean.manifest.result_sha256
        assert outcome.manifest.health == clean.manifest.health
        assert set(outcome.manifest.policy_timings_s) == set(
            clean.manifest.policy_timings_s
        )

    def test_traced_jobs4_fig7_has_the_jobs1_span_set(self):
        from tests.test_obs import _span_set

        sets, counters = [], []
        for jobs in (1, 4):
            session = obs.ObsSession()
            with ScenarioRunner(jobs=jobs, obs=session) as runner:
                outcome = runner.run(fig7_spec(_SMALL))
            sets.append(_span_set(session.tracer.events))
            counters.append(outcome.manifest.observability["metrics"]["counters"])
        assert sets[0] == sets[1]
        assert counters[0] == counters[1]

    def test_external_worker_kill_costs_one_replacement_and_no_retry(self, clean):
        def kill_a_worker(runner):
            pid = runner._children[0].pid
            os.kill(pid, signal.SIGKILL)

        with ScenarioRunner(jobs=2, retry=RetryPolicy(max_attempts=2)) as runner:
            seen = _hook_first_settle(runner, kill_a_worker)
            outcome = runner.run(fig7_spec(_SMALL))
        assert seen and seen[0] >= 2
        health = outcome.manifest.health
        assert outcome.manifest.result_sha256 == clean.manifest.result_sha256
        assert health["pool_replacements"] == 1
        assert health["retries"] == 0
        assert health["executed"] == clean.manifest.health["executed"]

    @pytest.mark.parametrize(
        "abort, error",
        [
            (lambda runner: runner.cancel(), RunCancelledError),
            (
                lambda runner: setattr(runner, "_deadline_at", time.monotonic() - 1),
                DeadlineExceededError,
            ),
        ],
        ids=["cancel", "deadline"],
    )
    def test_abort_journals_every_finished_block_of_every_call(
        self, clean, tmp_path, abort, error
    ):
        journal = tmp_path / "fig7.jsonl"
        finished = []

        def finish_then_abort(runner):
            # Let every in-flight task finish, so "finished" is every
            # block of every unsettled call.
            _wait_for_inflight_tasks(runner)
            finished.append(sum(len(call.blocks) for call in runner._unsettled))
            abort(runner)

        with ScenarioRunner(jobs=2, checkpoint=journal) as runner:
            _hook_first_settle(runner, finish_then_abort)
            with pytest.raises(error):
                runner.run(fig7_spec(_SMALL))
            assert runner._unsettled == []
            assert published_kernels(runner._shm)
        with ScenarioRunner(jobs=2, checkpoint=journal, resume=True) as runner:
            resumed = runner.run(fig7_spec(_SMALL))
        assert finished and finished[0] > 0
        assert resumed.manifest.health["checkpoint_hits"] == finished[0]
        assert resumed.manifest.result_sha256 == clean.manifest.result_sha256

    def test_block_segments_live_for_one_call(self, clean):
        before = _kernel_segments()
        with ScenarioRunner(jobs=2) as runner:
            outcome = runner.run(fig7_spec(_SMALL))
            kernels = published_kernels(runner._shm)
            assert kernels and _kernel_segments() - before == kernels
            for child in runner._children:
                attached, retired, held = child.submit((_worker_attachments, ())).result()
                # Forked after the first call's publish, a child holds
                # only the kernels it attached: no fd inherited from the
                # parent.
                assert set(attached) <= kernels and held == set(attached)
                assert retired == 0
        assert outcome.manifest.result_sha256 == clean.manifest.result_sha256
        assert _kernel_segments() == before


def _worker_attachments():
    return sorted(shm._ATTACHED), len(shm._RETIRED), held_segments([os.getpid()])


# Health sections of the injected-fault runs below (two execute calls,
# one in flight at a time), as they were before calls could run ahead.
_FAULT_HEALTH = {
    "crash@1": {
        "blocks": 20, "executed": 20, "checkpoint_hits": 0, "retries": 2,
        "timeouts": 0, "pool_replacements": 2, "injected": 1,
        "attempts": {"css[1]": 2},
    },
    "hang@2": {
        "blocks": 20, "executed": 20, "checkpoint_hits": 0, "retries": 2,
        "timeouts": 2, "pool_replacements": 2, "injected": 1,
        "attempts": {"css[2]": 2},
    },
    "exception@0*2": {
        "blocks": 20, "executed": 20, "checkpoint_hits": 0, "retries": 4,
        "timeouts": 0, "pool_replacements": 0, "injected": 2,
        "attempts": {"css[0]": 3},
    },
}

_FAULT_CONFIG = Fig7Config(
    probe_counts=(6,),
    lab_azimuth_step_deg=30.0,
    lab_elevation_step_deg=15.0,
    conference_azimuth_step_deg=30.0,
    n_sweeps=1,
    subsamples_per_sweep=2,
)


class TestInjectedFaults:
    @pytest.mark.parametrize("token", sorted(_FAULT_HEALTH))
    def test_injected_runs_keep_their_health_section(self, token):
        with ScenarioRunner(jobs=1) as runner:
            reference = runner.run(fig7_spec(_FAULT_CONFIG))
        retry = RetryPolicy(
            max_attempts=3,
            backoff_base_s=0.0,
            timeout_s=0.5 if token.startswith("hang") else None,
        )
        plan = FaultPlan.parse([token], hang_s=2.0)
        with ScenarioRunner(jobs=2, retry=retry, faults=plan) as runner:
            outcome = runner.run(fig7_spec(_FAULT_CONFIG))
        assert outcome.manifest.result_sha256 == reference.manifest.result_sha256
        assert outcome.manifest.health == _FAULT_HEALTH[token]


def _plan_stream(runner, calls, recordings, tx_ids, seed):
    """``(policy, blocks, policy_spec, testbed_spec)`` per call, planned
    lazily from one generator, like the scenarios do."""
    rng = np.random.default_rng(seed)
    context = runner.context(runtime_spec.TestbedSpec().build())
    for n_probes, first, last in calls:
        policy_spec = PolicySpec("css", {"n_probes": n_probes})
        policy = runner.build_policy(policy_spec, context)
        blocks = runner.plan_trials(
            policy, recordings[first:last], tx_ids, rng, subsamples_per_sweep=2
        )
        yield policy, blocks, policy_spec, runtime_spec.TestbedSpec()


class TestExecuteEachProperty:
    @pytest.fixture(scope="class")
    def setting(self):
        testbed = runtime_spec.TestbedSpec().build()
        recordings = record_directions(
            testbed, conference_room(6.0), np.arange(-60.0, 61.0, 10.0), [0.0], 3,
            np.random.default_rng(11),
        )
        with ScenarioRunner(jobs=2) as sharded, ScenarioRunner(jobs=1) as serial:
            yield sharded, serial, recordings, testbed.tx_sector_ids

    @settings(max_examples=12, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(
                st.integers(2, 30), st.integers(0, 6), st.integers(7, 13)
            ),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_execute_each_at_jobs2_equals_one_execute_per_call(
        self, setting, calls, seed
    ):
        sharded, serial, recordings, tx_ids = setting
        each = [
            [repr(record) for record in records]
            for records in sharded.execute_each(
                _plan_stream(sharded, calls, recordings, tx_ids, seed)
            )
        ]
        one_by_one = [
            [
                repr(record)
                for record in serial.execute(
                    policy, blocks, policy_spec=policy_spec, testbed_spec=testbed_spec
                )
            ]
            for policy, blocks, policy_spec, testbed_spec in list(
                _plan_stream(serial, calls, recordings, tx_ids, seed)
            )
        ]
        assert each == one_by_one
        assert sharded._unsettled == []
        published_kernels(sharded._shm)  # asserts each segment is a kernel
