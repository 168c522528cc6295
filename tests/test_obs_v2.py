"""Deep observability v2 (DESIGN.md §15): continuous profiling,
estimation-quality telemetry, run-diff regression attribution.

The contracts under test:

* **Profiling is additive** — the sampling profiler changes no result,
  survives drain/merge across worker payloads, and its collapsed-stack
  export round-trips with a valid ``repro-profile`` header.
* **Quality telemetry is free when off and deterministic when on** —
  a ``quality=True`` run's records are bit-identical to an
  untelemetered run's, and the labeled histograms a ``jobs=4`` run
  folds together equal the ``jobs=1`` run's exactly (counts *and*
  sums).
* **Rotation never tears the format** — every segment a
  :class:`RotatingTraceWriter` produces independently satisfies the
  ``repro-trace`` header contract.
* **Attribution is deterministic** — ``repro-bench diff`` over two
  committed BENCH points (or two manifests) produces the same ranked
  report every time, and localizes the first divergent pipeline stage.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro import obs
from repro.cli import build_parser, main as cli_main
from repro.obs import profile as profile_mod
from repro.obs import quality as quality_mod
from repro.obs.diff import (
    DEFAULT_NOISE_PCT,
    diff_targets,
    format_diff_rows,
    load_diff_target,
)
from repro.obs.profile import (
    StackSampler,
    hotspots,
    profile_summary,
    write_collapsed,
)
from repro.obs.quality import QualityContext, subset_diagnostics
from repro.obs.report import load_report_target
from repro.obs.trace import RotatingTraceWriter, read_trace_jsonl
from repro.perf import (
    PerfPoint,
    _canonical_environment,
    append_point,
    load_trajectory,
)
from repro.runtime import PolicySpec, ScenarioRunner, ScenarioSpec

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = REPO_ROOT / "BENCH_core.json"


@pytest.fixture(autouse=True)
def _no_profiler_leak():
    """A test that arms the global sampler must never leak its itimer."""
    yield
    if profile_mod.active_sampler() is not None:
        profile_mod.stop_profiling()


def _small_spec(n_sweeps: int = 3) -> ScenarioSpec:
    return ScenarioSpec(
        scenario="policy-eval",
        seed=2017,
        policies=(
            PolicySpec("css", {"n_probes": 14}),
            PolicySpec("full-sweep", {}),
        ),
        params={
            "azimuth_step_deg": 30.0,
            "distance_m": 6.0,
            "n_sweeps": n_sweeps,
        },
    )


def _designed_spec() -> ScenarioSpec:
    return ScenarioSpec(
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


def _result_signature(outcome):
    return repr(outcome.result.rows)


def _burn_cpu(seconds: float = 0.15):
    """Accumulate CPU time so the ITIMER_PROF-driven sampler fires."""
    deadline = time.process_time() + seconds
    values = np.random.default_rng(0).normal(size=256)
    while time.process_time() < deadline:
        values = np.sort(values * 1.0001)


def _quality_histograms(session):
    return {
        key: histogram
        for key, histogram in session.metrics.snapshot()["histograms"].items()
        if key.startswith("quality_")
    }


# ----------------------------------------------------------------------
# Sampling profiler.
# ----------------------------------------------------------------------


class TestStackSampler:
    def test_busy_cpu_produces_samples_that_sum_across_stacks(self):
        sampler = StackSampler(interval_s=0.002)
        sampler.start()
        try:
            _burn_cpu()
        finally:
            sampler.stop()
        assert sampler.samples > 5
        snapshot = sampler.snapshot()
        assert sum(snapshot["stacks"].values()) == snapshot["samples"]
        # Collapsed keys are frame labels joined by ';'.
        assert all(";" in key or key for key in snapshot["stacks"])

    def test_samples_equal_the_stack_sum_with_a_parked_thread(self):
        import threading

        release = threading.Event()
        parked = threading.Thread(target=release.wait, daemon=True)
        parked.start()
        sampler = StackSampler(interval_s=0.002)
        sampler.start()
        try:
            _burn_cpu()
        finally:
            sampler.stop()
            release.set()
            parked.join()
        snapshot = sampler.snapshot()
        assert snapshot["samples"] > 5
        assert sum(snapshot["stacks"].values()) == snapshot["samples"]
        assert sum(row["self_pct"] for row in hotspots(snapshot, top=1000)) == (
            pytest.approx(100.0)
        )

    def test_drain_resets_and_merge_accumulates(self):
        sampler = StackSampler()
        sampler.merge({"samples": 3, "stacks": {"a;b": 2, "a;c": 1}})
        drained = sampler.drain()
        assert drained == {"samples": 3, "stacks": {"a;b": 2, "a;c": 1}}
        assert sampler.samples == 0 and sampler.drain()["stacks"] == {}
        sampler.merge(drained)
        sampler.merge({"samples": 1, "stacks": {"a;b": 1}})
        assert sampler.snapshot()["stacks"]["a;b"] == 3
        # snapshot() does not reset.
        assert sampler.samples == 4

    def test_hotspots_rank_leaf_self_time_deterministically(self):
        profile = {
            "samples": 10,
            "stacks": {"main;hot": 6, "main;warm;hot": 2, "main;cold": 2},
        }
        ranked = hotspots(profile, top=2)
        assert ranked[0]["function"] == "hot"
        assert ranked[0]["self"] == 8 and ranked[0]["self_pct"] == 80.0
        assert hotspots(profile, top=2) == ranked  # pure function
        summary = profile_summary(profile, top=1)
        assert summary["samples"] == 10
        assert [entry["function"] for entry in summary["hotspots"]] == ["hot"]

    def test_write_collapsed_emits_header_then_sorted_stacks(self, tmp_path):
        path = tmp_path / "p.collapsed"
        n_stacks, n_samples = write_collapsed(
            path,
            {"samples": 5, "stacks": {"b;y": 2, "a;x": 3}},
            header={"scenario": "policy-eval", "seed": 7},
        )
        assert (n_stacks, n_samples) == (2, 5)
        lines = path.read_text().splitlines()
        assert lines[0] == "# format: repro-profile v1"
        assert "# scenario: policy-eval" in lines and "# seed: 7" in lines
        stacks = [line for line in lines if not line.startswith("#")]
        assert stacks == ["a;x 3", "b;y 2"]

    def test_module_singleton_is_idempotent_and_stoppable(self):
        first = profile_mod.start_profiling()
        assert profile_mod.start_profiling() is first
        assert profile_mod.active_sampler() is first
        _burn_cpu(0.05)
        snapshot = profile_mod.stop_profiling()
        assert profile_mod.active_sampler() is None
        assert snapshot["samples"] == sum(snapshot["stacks"].values())

    def test_session_payloads_carry_profile_home(self):
        """The worker-drain path: a sampling child ships its aggregate
        inside the same payload as its trace events and counters."""
        profile_mod.start_profiling()
        try:
            _burn_cpu(0.1)
            worker = obs.ObsSession()
            payload = worker.drain_payload()
            assert payload["profile"]["samples"] > 0
            supervisor_side = profile_mod.drain_profile()
            assert supervisor_side is not None
            home = obs.ObsSession()
            home.absorb_payload(payload, parent_id=None, prefix="c0b0")
            merged = profile_mod.active_sampler().snapshot()
            assert merged["samples"] == payload["profile"]["samples"]
        finally:
            profile_mod.stop_profiling()

    def test_untelemetered_payload_has_no_profile_key(self):
        session = obs.ObsSession()
        assert "profile" not in session.drain_payload()


# ----------------------------------------------------------------------
# Quality telemetry primitives.
# ----------------------------------------------------------------------


class TestQualityPrimitives:
    def test_context_round_trips_through_meta(self):
        context = QualityContext(policy="css", environment="lab")
        clone = QualityContext.from_meta(context.to_meta())
        assert (clone.policy, clone.environment) == ("css", "lab")
        labels = context.labels(m=14)
        assert labels == {"policy": "css", "environment": "lab", "m": "14"}

    def test_subset_diagnostics_on_known_geometries(self):
        eye = np.eye(3)
        diagnostics = subset_diagnostics(eye)
        assert diagnostics["coherence"] == pytest.approx(0.0)
        assert diagnostics["condition"] == pytest.approx(1.0)
        repeated = np.vstack([eye[0], eye[0]])
        degenerate = subset_diagnostics(repeated)
        assert degenerate["coherence"] == pytest.approx(1.0)
        assert degenerate["condition"] == np.inf
        assert subset_diagnostics(eye[:1]) == {"coherence": 0.0, "condition": 1.0}

    def test_recorders_are_inert_without_session_or_context(self):
        # No active session, no quality context: must not raise, must
        # not create any global state.
        quality_mod.record_peak_ratio(np.array([3.0, 1.0]), 0, 8)
        quality_mod.record_selection_margin(np.array([10.0, 7.0]), 8)
        session = obs.ObsSession()
        previous = obs.activate(session)
        try:
            # Session active but no quality context -> still inert.
            quality_mod.record_peak_ratio(np.array([3.0, 1.0]), 0, 8)
            assert _quality_histograms(session) == {}
        finally:
            obs.deactivate(previous)

    def test_recorders_observe_labeled_histograms(self):
        session = obs.ObsSession()
        previous = obs.activate(session)
        token = quality_mod.activate_quality(
            QualityContext(policy="css", environment="lab")
        )
        try:
            quality_mod.record_peak_ratio(np.array([1.0, 6.0, 3.0]), 1, 8)
            quality_mod.record_selection_margin(np.array([4.0, 10.0, 7.0]), 8)
        finally:
            quality_mod.deactivate_quality(token)
            obs.deactivate(previous)
        histograms = _quality_histograms(session)
        peak_key = 'quality_peak_ratio{environment="lab",m="8",policy="css"}'
        margin_key = 'quality_selection_margin_db{environment="lab",m="8",policy="css"}'
        assert histograms[peak_key]["sum"] == pytest.approx(2.0)  # 6/3
        assert histograms[margin_key]["sum"] == pytest.approx(3.0)  # 10-7


# ----------------------------------------------------------------------
# Quality telemetry through real runs.
# ----------------------------------------------------------------------


class TestQualityRuns:
    @pytest.fixture(scope="class")
    def untelemetered(self):
        with ScenarioRunner() as runner:
            return runner.run(_small_spec())

    @pytest.fixture(scope="class")
    def quality_jobs1(self):
        session = obs.ObsSession(quality=True)
        with ScenarioRunner(obs=session) as runner:
            outcome = runner.run(_small_spec())
        return outcome, session

    @pytest.fixture(scope="class")
    def quality_jobs4(self):
        session = obs.ObsSession(quality=True)
        with ScenarioRunner(jobs=4, obs=session) as runner:
            outcome = runner.run(_small_spec())
        return outcome, session

    def test_quality_never_touches_results(self, untelemetered, quality_jobs1):
        outcome, _ = quality_jobs1
        assert _result_signature(outcome) == _result_signature(untelemetered)
        assert outcome.manifest.health == untelemetered.manifest.health

    def test_quality_histograms_carry_policy_environment_m_labels(
        self, quality_jobs1
    ):
        _, session = quality_jobs1
        histograms = _quality_histograms(session)
        assert histograms, "quality run produced no quality series"
        families = {key.split("{")[0] for key in histograms}
        assert "quality_peak_ratio" in families
        assert "quality_selection_margin_db" in families
        for key in histograms:
            assert 'environment="policy-eval"' in key
            assert 'm="' in key and 'policy="' in key

    def test_plain_session_records_no_quality_series(self):
        session = obs.ObsSession()  # quality defaults to off
        with ScenarioRunner(obs=session) as runner:
            runner.run(_small_spec())
        assert _quality_histograms(session) == {}

    def test_jobs4_quality_series_equal_jobs1_exactly(
        self, quality_jobs1, quality_jobs4
    ):
        assert _result_signature(quality_jobs4[0]) == _result_signature(
            quality_jobs1[0]
        )
        assert _quality_histograms(quality_jobs4[1]) == _quality_histograms(
            quality_jobs1[1]
        )

    def test_designed_policy_reports_designer_diagnostics(self):
        sessions = {}
        for jobs in (1, 4):
            session = obs.ObsSession(quality=True)
            with ScenarioRunner(jobs=jobs, obs=session) as runner:
                runner.run(_designed_spec())
            sessions[jobs] = _quality_histograms(session)
        families = {key.split("{")[0] for key in sessions[1]}
        assert "quality_design_coherence" in families
        assert "quality_design_condition" in families
        coherence_keys = [
            key for key in sessions[1] if key.startswith("quality_design_coherence")
        ]
        assert all('designer="coherence-min"' in key for key in coherence_keys)
        # Designer diagnostics are recorded by the supervisor's policy
        # build and by block evaluation under the shipped context, so
        # the fan-out must not change the counts.
        assert sessions[4] == sessions[1]


# ----------------------------------------------------------------------
# Rotating trace sink.
# ----------------------------------------------------------------------


class TestRotatingTraceWriter:
    def test_rejects_an_unusable_cap(self, tmp_path):
        with pytest.raises(ValueError):
            RotatingTraceWriter(tmp_path / "t.jsonl", max_bytes=100)

    def test_every_segment_satisfies_the_header_contract(self, tmp_path):
        writer = RotatingTraceWriter(
            tmp_path / "svc.jsonl", header={"service": "test"}, max_bytes=1024
        )
        batch = [
            {"type": "event", "name": "tick", "attrs": {"n": index}}
            for index in range(8)
        ]
        for run_index in range(6):
            writer.write(batch, run=f"r{run_index}")
        writer.close()
        segments = writer.segments
        assert len(segments) >= 2, "cap never forced a rotation"
        runs_seen = set()
        for index, segment in enumerate(segments):
            header, events = read_trace_jsonl(segment)
            assert header["format"] == "repro-trace"
            assert header["service"] == "test"
            assert header["segment"] == index
            runs_seen.update(event["run"] for event in events)
        assert runs_seen == {f"r{index}" for index in range(6)}

    def test_batches_never_split_across_segments(self, tmp_path):
        writer = RotatingTraceWriter(tmp_path / "t.jsonl", max_bytes=1024)
        batch = [{"type": "event", "name": "tick", "attrs": {}} for _ in range(8)]
        for run_index in range(4):
            writer.write(batch, run=f"r{run_index}")
        writer.close()
        for segment in writer.segments:
            _, events = read_trace_jsonl(segment)
            by_run = {}
            for event in events:
                by_run.setdefault(event["run"], 0)
                by_run[event["run"]] += 1
            assert all(count == len(batch) for count in by_run.values())

    def test_restarted_writer_keeps_the_previous_trace(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        first = RotatingTraceWriter(path, max_bytes=1024)
        first.write([{"type": "event", "name": "tick", "attrs": {}}], run="old")
        first.close()  # the process dies; a restarted one traces on
        second = RotatingTraceWriter(path, max_bytes=1024)
        second.write([{"type": "event", "name": "tick", "attrs": {}}], run="new")
        second.close()
        assert first.segments == [path]
        assert second.segments == [tmp_path / "svc.1.jsonl"]
        runs = []
        for segment in (path, *second.segments):
            header, events = read_trace_jsonl(segment)
            runs.extend(event["run"] for event in events)
        assert runs == ["old", "new"]
        assert read_trace_jsonl(second.segments[0])[0]["segment"] == 1

    def test_report_reads_rotated_segments_and_refuses_torn_ones(
        self, tmp_path, capsys
    ):
        session = obs.ObsSession()
        with ScenarioRunner(obs=session) as runner:
            runner.run(_small_spec())
        writer = RotatingTraceWriter(tmp_path / "rot.jsonl", max_bytes=1024)
        events = list(session.tracer.events)
        writer.write(events[: len(events) // 2])
        writer.write(events[len(events) // 2 :])
        writer.close()
        segments = writer.segments
        assert len(segments) >= 2
        for segment in segments:
            assert cli_main(["report", str(segment)]) == 0
            assert "per-stage latency breakdown" in capsys.readouterr().out
        # Tear the newest segment mid-record: the reader must refuse it
        # loudly instead of reporting from half a file.
        torn = segments[-1]
        torn.write_bytes(torn.read_bytes()[:-20])
        assert cli_main(["report", str(torn)]) == 2
        assert "neither a trace nor a manifest" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Run-diff regression attribution.
# ----------------------------------------------------------------------


class TestDiff:
    def test_bench_selector_grammar(self):
        by_label = load_diff_target(f"{BENCH}#fused-sharded")
        assert by_label["kind"] == "bench"
        assert by_label["identity"]["label"] == "fused-sharded"
        by_index = load_diff_target(f"{BENCH}#5")
        assert by_index["metrics"] == by_label["metrics"]
        committed = json.loads(BENCH.read_text())["points"]
        last = load_diff_target(str(BENCH))
        assert last["identity"]["label"] == committed[-1]["label"]
        with pytest.raises(ValueError, match="no BENCH point labeled"):
            load_diff_target(f"{BENCH}#never-committed")

    def test_committed_bench_points_diff_deterministically(self):
        before = load_diff_target(f"{BENCH}#fused-sharded")
        after = load_diff_target(f"{BENCH}#probe-designer")
        first = format_diff_rows(diff_targets(before, after))
        second = format_diff_rows(diff_targets(before, after))
        assert first == second
        text = "\n".join(first)
        assert first[0].startswith("diff: regression attribution")
        # The designer stage introduced a brand-new throughput metric.
        assert "probe_design_per_s" in text and "new" in text

    def test_identical_targets_report_nothing_above_the_floor(self):
        point = load_diff_target(f"{BENCH}#baseline")
        rows = format_diff_rows(diff_targets(point, point))
        assert any("no differences above the noise floor" in row for row in rows)

    def test_absurd_noise_floor_silences_every_metric(self):
        before = load_diff_target(f"{BENCH}#fused-sharded")
        after = load_diff_target(f"{BENCH}#probe-designer")
        diff = diff_targets(before, after, noise_pct=1e9)
        # "new" metrics stay visible (they have no percentage to
        # compare), but every measured-on-both-sides drift is silenced.
        for row in diff["metrics"]:
            if row["significant"]:
                assert row["before"] is None or row["after"] is None

    def test_recorded_noise_does_not_widen_significance(self):
        # deep-obs and one-kernel both carry *_noise_pct metrics above
        # 100 %; the threshold must stay at the default regardless, so
        # the 322 -> 74.7 probe-design collapse is flagged.
        before = load_diff_target(f"{BENCH}#deep-obs")
        after = load_diff_target(f"{BENCH}#one-kernel")
        diff = diff_targets(before, after)
        assert diff["threshold_pct"] == DEFAULT_NOISE_PCT
        row = next(r for r in diff["metrics"] if r["metric"] == "probe_design_per_s")
        assert row["pct"] < -70.0 and row["significant"]

    def test_manifest_diff_localizes_the_first_divergent_stage(self, tmp_path):
        paths = {}
        for name, sweeps in (("a", 2), ("b", 6)):
            session = obs.ObsSession()
            with ScenarioRunner(obs=session) as runner:
                outcome = runner.run(_small_spec(n_sweeps=sweeps))
            paths[name] = tmp_path / f"{name}.json"
            outcome.manifest.save(paths[name])
        diff = diff_targets(
            load_diff_target(str(paths["a"])),
            load_diff_target(str(paths["b"])),
            noise_pct=0.0,
        )
        assert diff["stages"], "traced manifests must yield stage rows"
        divergent = diff["first_divergent_stage"]
        assert divergent is not None
        # More sweeps means more blocks: the span-count change makes the
        # divergence structural, not a timing accident.
        stage = next(row for row in diff["stages"] if row["stage"] == divergent)
        assert stage["significant"]

    def test_cli_diff_surface(self, tmp_path, capsys):
        assert (
            cli_main(["diff", f"{BENCH}#fused-sharded", f"{BENCH}#probe-designer"])
            == 0
        )
        out = capsys.readouterr().out
        assert "diff: regression attribution" in out
        assert cli_main(["diff", str(tmp_path / "missing.json"), str(BENCH)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parser_surfaces(self):
        parser = build_parser()
        args = parser.parse_args(["diff", "a.json", "b.json", "--top", "3"])
        assert args.target_a == "a.json" and args.top == 3
        args = parser.parse_args(
            ["serve", "--trace", "t.jsonl", "--trace-max-mb", "8",
             "--profile", "p.collapsed"]
        )
        assert args.trace == "t.jsonl" and args.trace_max_mb == 8.0
        assert args.profile == "p.collapsed"
        args = parser.parse_args(
            ["run", "fig7", "--profile-sampling", "p.collapsed", "--quality"]
        )
        assert args.profile_sampling == "p.collapsed" and args.quality


# ----------------------------------------------------------------------
# Perf gate + trajectory hygiene.
# ----------------------------------------------------------------------


class TestPerfTrajectoryHygiene:
    def test_canonical_environment_converts_only_clean_integers(self):
        canonical = _canonical_environment(
            {"cpu_count": "1", "python": "3.11.9", "n": -3, "flag": "x86_64"}
        )
        assert canonical == {
            "cpu_count": 1,
            "python": "3.11.9",
            "n": -3,
            "flag": "x86_64",
        }

    def test_append_point_migrates_historical_points(self, tmp_path):
        path = tmp_path / "bench.json"
        legacy = PerfPoint(
            label="old", timestamp="t0", metrics={},
            environment={"cpu_count": "1"},
        )
        data = {"schema": 1, "points": [legacy.to_json()]}
        path.write_text(json.dumps(data))
        fresh = PerfPoint(
            label="new", timestamp="t1", metrics={},
            environment={"cpu_count": 4},
        )
        append_point(path, fresh)
        saved = json.loads(path.read_text())
        assert [p["environment"]["cpu_count"] for p in saved["points"]] == [1, 4]

    def test_committed_trajectory_is_already_canonical(self):
        data = load_trajectory(BENCH)
        for point in data["points"]:
            assert isinstance(point["environment"]["cpu_count"], int)



# ----------------------------------------------------------------------
# Service plane: gauges, rotating trace sink, manifest reporting.
# ----------------------------------------------------------------------


class _ServiceHarness:
    """One in-process service on a background event loop + thread."""

    def __init__(self, config):
        import asyncio
        import threading

        from repro.service.server import SelectionService

        self.loop = asyncio.new_event_loop()
        self.service = SelectionService(config)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        import asyncio

        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._ready.set()
        self.loop.run_forever()

    def start(self):
        from repro.service.client import ServiceClient

        self._thread.start()
        assert self._ready.wait(15), "service failed to start"
        self.client = ServiceClient(port=self.service.port)
        return self

    def stop(self):
        import asyncio

        if getattr(self, "_stopped", False):
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop)
        future.result(20)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        self.loop.close()


@pytest.fixture()
def traced_service(tmp_path):
    from repro.service.server import ServiceConfig

    harness = _ServiceHarness(
        ServiceConfig(
            port=0,
            workers=1,
            checkpoint_dir=str(tmp_path / "journals"),
            trace_path=str(tmp_path / "svc-trace.jsonl"),
            # Below the writer's 1 KiB floor: every run batch exceeds
            # the cap, so the second run must land in a new segment.
            trace_max_mb=0.0,
        )
    ).start()
    yield harness
    harness.stop()


def _service_spec(seed: int = 2017) -> ScenarioSpec:
    return ScenarioSpec(
        scenario="policy-eval",
        seed=seed,
        policies=(PolicySpec("css", {"n_probes": 14}),),
        params={"azimuth_step_deg": 30.0, "distance_m": 6.0, "n_sweeps": 2},
    )


class TestServiceObservability:
    def test_gauges_trace_and_manifest_report(self, traced_service, tmp_path):
        harness = traced_service
        runs = []
        for seed in (2017, 2018):
            accepted = harness.client.submit(_service_spec(seed).to_json())
            final = harness.client.wait(accepted["run"])
            assert final["status"] == "done"
            runs.append(accepted["run"])

        # -- satellite: service-plane gauges on /metrics ----------------
        text = harness.client.metrics()
        assert "service_shm_segments" in text
        assert "service_registry_journal_bytes" in text
        assert "service_registry_events" in text
        assert "service_history_occupancy 2" in text

        # -- satellite: report loads a service-produced manifest --------
        detail = harness.client.status(runs[0])
        manifest_path = tmp_path / "svc-manifest.json"
        manifest_path.write_text(json.dumps(detail["manifest"]))
        payload = load_report_target(manifest_path)
        assert payload["source"] == "manifest"
        assert payload["rollup"]["spans"]["execute.block"]["count"] > 0
        assert cli_main(["report", str(manifest_path)]) == 0

        # -- rotating sink: every segment stays a valid trace -----------
        harness.stop()  # flush + close the writer before reading
        writer_segments = [
            path
            for path in sorted(tmp_path.glob("svc-trace*.jsonl"))
        ]
        assert len(writer_segments) >= 2, "tiny cap never rotated"
        stamped_runs = set()
        for segment in writer_segments:
            header, events = read_trace_jsonl(segment)
            assert header["format"] == "repro-trace"
            assert header["service"] == "repro-selection-service"
            stamped_runs.update(
                event["run"] for event in events if "run" in event
            )
        assert stamped_runs == set(runs)
        # Calling stop() twice must stay idempotent for the fixture.


# ----------------------------------------------------------------------
# CLI profiling + quality surface.
# ----------------------------------------------------------------------


class TestCliObsV2:
    def test_run_profile_sampling_writes_a_collapsed_export(
        self, tmp_path, capsys
    ):
        collapsed = tmp_path / "run.collapsed"
        assert (
            cli_main(
                ["run", "policy-eval", "--profile-sampling", str(collapsed)]
            )
            == 0
        )
        assert "wrote sampled profile" in capsys.readouterr().out
        lines = collapsed.read_text().splitlines()
        assert lines[0] == "# format: repro-profile v1"
        assert "# scenario: policy-eval" in lines
        assert profile_mod.active_sampler() is None, "itimer leaked past the run"

    def test_run_quality_embeds_quality_series_in_the_manifest(
        self, tmp_path, capsys
    ):
        manifest_path = tmp_path / "m.json"
        assert (
            cli_main(
                ["run", "policy-eval", "--quality", "--manifest",
                 str(manifest_path)]
            )
            == 0
        )
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text())
        histograms = manifest["observability"]["metrics"]["histograms"]
        assert any(key.startswith("quality_peak_ratio") for key in histograms)

    def test_profiled_manifest_embeds_the_hotspot_summary(self, tmp_path, capsys):
        collapsed = tmp_path / "p.collapsed"
        manifest_path = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        assert (
            cli_main(
                ["run", "policy-eval", "--trace", str(trace),
                 "--profile-sampling", str(collapsed),
                 "--manifest", str(manifest_path)]
            )
            == 0
        )
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text())
        profile = manifest["observability"].get("profile")
        assert profile is not None and "hotspots" in profile
        # The report renders the embedded summary when samples landed.
        assert cli_main(["report", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        if profile["samples"]:
            assert "profile hotspots" in out
