"""The observability layer: tracing, metrics, reporting, CLI surface.

The contracts under test (DESIGN.md §10):

* **Zero result impact** — a traced run's records and manifest results
  are bit-identical to an untraced run's; observability reads clocks
  and dict state, never the RNG.
* **Deterministic aggregation** — a ``jobs=4`` run's trace carries the
  same span set (names + attributes, timings aside) and the same
  merged metric counters as the ``jobs=1`` run of the same spec;
  worker payloads are absorbed in block order, never arrival order.
* **Fault visibility** — injected faults are tagged ``injected=true``
  in the trace and the tag survives both the cross-process merge and a
  file round-trip.
* **Disabled-by-default** — with no active session every dispatcher is
  a no-op.
"""

import json
import logging

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    buckets_for,
    escape_label_value,
    unescape_label_value,
)
from repro.obs.report import format_report_rows, load_report_target, span_rollup
from repro.obs.trace import TraceRecorder, read_trace_jsonl, write_trace_jsonl
from repro.runtime import (
    FaultPlan,
    FaultSpec,
    PolicySpec,
    RetryPolicy,
    RunManifest,
    ScenarioRunner,
    ScenarioSpec,
)


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


def _span_set(events, ignore_attrs=("jobs",)):
    """Order-free span signature: (name, sorted attrs) without timings."""
    out = []
    for event in events:
        if event.get("type") != "span":
            continue
        attrs = {
            key: value
            for key, value in event.get("attrs", {}).items()
            if key not in ignore_attrs
        }
        out.append((event["name"], tuple(sorted(attrs.items()))))
    return sorted(out)


def _result_signature(outcome):
    return repr(outcome.result.rows)


# ----------------------------------------------------------------------
# Metrics registry.
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_keys_sort_labels(self):
        registry = MetricsRegistry()
        registry.inc("calls_total", path="batched", policy="css")
        registry.inc("calls_total", policy="css", path="batched")
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {
            'calls_total{path="batched",policy="css"}': 2
        }

    def test_histogram_uses_fixed_buckets_with_overflow_slot(self):
        registry = MetricsRegistry()
        registry.observe("runner_retry_wait_seconds", 0.02)
        registry.observe("runner_retry_wait_seconds", 99.0)  # beyond last edge
        histogram = registry.snapshot()["histograms"]["runner_retry_wait_seconds"]
        assert histogram["le"] == list(buckets_for("runner_retry_wait_seconds"))
        assert len(histogram["counts"]) == len(histogram["le"]) + 1
        assert histogram["counts"][1] == 1  # 0.02 <= 0.025
        assert histogram["counts"][-1] == 1  # overflow
        assert histogram["count"] == 2
        assert histogram["sum"] == pytest.approx(99.02)

    def test_unknown_family_falls_back_to_default_buckets(self):
        assert buckets_for("never_heard_of_it_seconds") == DEFAULT_BUCKETS

    def test_merge_adds_counters_and_buckets_gauge_takes_incoming(self):
        ours = MetricsRegistry()
        ours.inc("runner_retries_total", 2)
        ours.observe("example_latency_seconds", 0.002)
        ours.set_gauge("pool_size", 2)
        theirs = MetricsRegistry()
        theirs.inc("runner_retries_total", 3)
        theirs.observe("example_latency_seconds", 0.002)
        theirs.set_gauge("pool_size", 4)
        ours.merge(theirs.snapshot())
        snapshot = ours.snapshot()
        assert snapshot["counters"]["runner_retries_total"] == 5
        assert snapshot["gauges"]["pool_size"] == 4.0
        assert snapshot["histograms"]["example_latency_seconds"]["count"] == 2

    def test_prometheus_rendering_is_cumulative(self):
        registry = MetricsRegistry()
        registry.inc("runner_retries_total")
        registry.observe("runner_retry_wait_seconds", 0.02)
        registry.observe("runner_retry_wait_seconds", 0.2)
        text = registry.render_prometheus()
        assert "# TYPE runner_retries_total counter" in text
        assert "runner_retries_total 1" in text
        assert 'runner_retry_wait_seconds_bucket{le="0.025"} 1' in text
        assert 'runner_retry_wait_seconds_bucket{le="0.25"} 2' in text
        assert 'runner_retry_wait_seconds_bucket{le="+Inf"} 2' in text
        assert "runner_retry_wait_seconds_count 2" in text

    @pytest.mark.parametrize(
        "raw",
        [
            'fig7"x',
            "back\\slash",
            "multi\nline",
            '\\"mixed\\n"\n\\',
            "",
            "plain",
            "trailing\\",
        ],
    )
    def test_label_escaping_round_trips(self, raw):
        escaped = escape_label_value(raw)
        # Exposition-breaking characters never survive unescaped.
        assert '"' not in escaped.replace('\\"', "")
        assert "\n" not in escaped
        assert unescape_label_value(escaped) == raw

    def test_escaped_labels_render_parseable_exposition(self):
        registry = MetricsRegistry()
        registry.inc("runs_total", scenario='fig7"x\n\\end')
        text = registry.render_prometheus()
        (sample,) = [line for line in text.splitlines() if "runs_total{" in line]
        # The rendered line stays a single line and its quoted value
        # unescapes back to the original label.
        value = sample.split('scenario="', 1)[1].rsplit('"}', 1)[0]
        assert unescape_label_value(value) == 'fig7"x\n\\end'

    def test_escaped_label_keys_merge_and_histogram_le_stays_safe(self):
        ours = MetricsRegistry()
        theirs = MetricsRegistry()
        for registry in (ours, theirs):
            registry.inc("runs_total", scenario='a"b')
            registry.observe("example_latency_seconds", 0.002, scenario="tricky\\")
        ours.merge(theirs.snapshot())
        snapshot = ours.snapshot()
        assert snapshot["counters"]['runs_total{scenario="a\\"b"}'] == 2
        text = ours.render_prometheus()
        # _with_le appends ,le="..." after the escaped value: the
        # trailing backslash must have been doubled or it would eat the
        # closing quote.
        assert 'scenario="tricky\\\\",le="0.0025"' in text


# ----------------------------------------------------------------------
# Trace recorder.
# ----------------------------------------------------------------------


class TestTraceRecorder:
    def test_spans_nest_via_explicit_parent_links(self):
        recorder = TraceRecorder()
        with recorder.span("outer", policy="css"):
            with recorder.span("inner"):
                recorder.event("tick", n=1)
        spans = {e["name"]: e for e in recorder.events}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        assert spans["tick"]["parent"] == spans["inner"]["id"]
        assert spans["outer"]["attrs"] == {"policy": "css"}
        assert spans["outer"]["duration_s"] >= spans["inner"]["duration_s"]

    def test_exception_exit_tags_the_span(self):
        recorder = TraceRecorder()
        with pytest.raises(RuntimeError):
            with recorder.span("doomed"):
                raise RuntimeError("boom")
        (span,) = recorder.events
        assert span["attrs"]["error"] == "RuntimeError"

    def test_drain_hands_over_and_empties_the_buffer(self):
        recorder = TraceRecorder()
        recorder.event("one")
        drained = recorder.drain()
        assert [e["name"] for e in drained] == ["one"]
        assert len(recorder) == 0

    def test_absorb_prefixes_ids_and_reparents_roots(self):
        worker = TraceRecorder()
        with worker.span("execute.block", block=3):
            worker.event("retry")
        runner = TraceRecorder()
        with runner.span("execute.policy") as policy_span:
            parent_id = policy_span.id
        runner.absorb(worker.drain(), parent_id, "c0b3")
        absorbed = [e for e in runner.events if e.get("origin") == "c0b3"]
        span = next(e for e in absorbed if e["type"] == "span")
        event = next(e for e in absorbed if e["type"] == "event")
        assert span["id"].startswith("c0b3.")
        assert span["parent"] == parent_id  # root re-parented
        assert event["parent"] == span["id"]  # inner link rewritten

    def test_jsonl_round_trip_and_foreign_file_rejection(self, tmp_path):
        recorder = TraceRecorder()
        with recorder.span("stage", policy="css"):
            pass
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, recorder.events, header={"seed": 7})
        header, events = read_trace_jsonl(path)
        assert header["format"] == "repro-trace" and header["seed"] == 7
        assert events == recorder.events
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"not": "a trace"}\n')
        with pytest.raises(ValueError):
            read_trace_jsonl(foreign)


# ----------------------------------------------------------------------
# Logging setup (satellite: one CLI-wide logging entry point).
# ----------------------------------------------------------------------


@pytest.fixture
def _restore_repro_logger():
    logger = logging.getLogger("repro")
    before = logger.level
    yield
    logger.setLevel(before)


class TestLoggingSetup:
    def test_explicit_level_wins(self, monkeypatch, _restore_repro_logger):
        monkeypatch.setenv(obs.LOG_LEVEL_ENV, "ERROR")
        assert obs.logging_setup("debug") == logging.DEBUG
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_env_var_is_the_fallback(self, monkeypatch, _restore_repro_logger):
        monkeypatch.setenv(obs.LOG_LEVEL_ENV, "info")
        assert obs.logging_setup() == logging.INFO

    def test_default_is_warning(self, monkeypatch, _restore_repro_logger):
        monkeypatch.delenv(obs.LOG_LEVEL_ENV, raising=False)
        assert obs.logging_setup() == logging.WARNING

    def test_unknown_level_raises(self, _restore_repro_logger):
        with pytest.raises(ValueError):
            obs.logging_setup("chatty")


# ----------------------------------------------------------------------
# Dispatchers are no-ops without a session.
# ----------------------------------------------------------------------


class TestDisabledByDefault:
    def test_every_dispatcher_is_inert_without_a_session(self):
        assert obs.active_session() is None
        assert not obs.enabled()
        span = obs.span("anything", policy="css")
        with span:
            obs.event("tick")
            obs.inc("counter")
            obs.observe("example_latency_seconds", 0.1)
            obs.set_gauge("gauge", 1.0)
        assert span.id is None
        assert obs.active_session() is None

    def test_activation_is_scoped_and_restores_the_previous(self):
        session = obs.ObsSession()
        previous = obs.activate(session)
        try:
            assert obs.enabled() and obs.active_session() is session
            obs.inc("counter")
            assert session.metrics.snapshot()["counters"]["counter"] == 1
        finally:
            obs.deactivate(previous)
        assert obs.active_session() is previous


# ----------------------------------------------------------------------
# Manifest health rendering (satellite: empty/partial health dicts).
# ----------------------------------------------------------------------


def _manifest(health, observability=None):
    return RunManifest(
        scenario="policy-eval", spec_digest="ab" * 32, seed=1, jobs=1,
        git_rev="deadbeef", started="now", wall_time_s=1.0,
        health=health, observability=observability or {},
    )


class TestManifestHealthRendering:
    def test_empty_health_renders_clean_without_empty_rows(self):
        rows = _manifest({}).format_rows()
        assert "  health clean" in rows
        assert not any("took" in row for row in rows)
        assert not any("=" in row for row in rows if row.startswith("  health"))

    def test_zero_counters_and_null_attempts_render_clean(self):
        rows = _manifest(
            {"blocks": 0, "retries": 0, "attempts": None}
        ).format_rows()
        assert "  health clean" in rows

    def test_partially_populated_health_renders_only_nonzero(self):
        rows = _manifest(
            {"blocks": 4, "retries": 1, "timeouts": 0,
             "attempts": {"css[0]": 2}}
        ).format_rows()
        assert "  health blocks=4 retries=1" in rows
        assert "    css[0] took 2 attempts" in rows
        assert not any("timeouts" in row for row in rows)

    def test_observability_summary_row(self):
        rows = _manifest(
            {},
            observability={
                "enabled": True,
                "spans": {"execute.block": {"count": 10, "total_s": 1, "max_s": 1}},
            },
        ).format_rows()
        assert any(row.startswith("  observability 10 span(s)") for row in rows)
        assert _manifest({}).format_rows() == [
            row for row in _manifest({}).format_rows() if "observability" not in row
        ]


# ----------------------------------------------------------------------
# Runtime integration: determinism, merge, fault tagging.
# ----------------------------------------------------------------------


class TestTracedRunDeterminism:
    @pytest.fixture(scope="class")
    def untraced(self):
        with ScenarioRunner() as runner:
            return runner.run(_small_spec())

    @pytest.fixture(scope="class")
    def traced(self):
        session = obs.ObsSession()
        with ScenarioRunner(obs=session) as runner:
            outcome = runner.run(_small_spec())
        return outcome, session

    @pytest.fixture(scope="class")
    def traced_jobs4(self):
        session = obs.ObsSession()
        with ScenarioRunner(jobs=4, obs=session) as runner:
            outcome = runner.run(_small_spec())
        return outcome, session

    def test_tracing_never_touches_results(self, untraced, traced):
        outcome, _ = traced
        assert _result_signature(outcome) == _result_signature(untraced)
        assert outcome.manifest.health == untraced.manifest.health

    def test_untraced_manifest_has_no_observability(self, untraced):
        assert untraced.manifest.observability == {}
        assert untraced.manifest.to_json()["observability"] == {}

    def test_traced_manifest_embeds_the_rollup(self, traced):
        outcome, session = traced
        section = outcome.manifest.observability
        assert section["enabled"] is True
        assert section["spans"]["execute.block"]["count"] == 10
        assert section["spans"]["scenario.run"]["count"] == 1
        assert len(section["slowest_blocks"]) == 5
        counters = section["metrics"]["counters"]
        # css and full-sweep blocks both go through select_batch.
        assert counters['runner_kernel_path_total{path="batched"}'] == 10
        assert len(session.tracer.events) > 0

    def test_jobs4_results_match_jobs1(self, traced, traced_jobs4):
        assert _result_signature(traced_jobs4[0]) == _result_signature(traced[0])

    def test_jobs4_trace_has_the_same_span_set(self, traced, traced_jobs4):
        _, s1 = traced
        _, s4 = traced_jobs4
        assert _span_set(s4.tracer.events) == _span_set(s1.tracer.events)

    def test_jobs4_merged_counters_match_jobs1(self, traced, traced_jobs4):
        counters1 = traced[0].manifest.observability["metrics"]["counters"]
        counters4 = traced_jobs4[0].manifest.observability["metrics"]["counters"]
        assert counters1 == counters4

    def test_worker_spans_are_absorbed_in_block_order(self, traced_jobs4):
        _, session = traced_jobs4
        origins = [
            event["origin"]
            for event in session.tracer.events
            if event.get("origin")
        ]
        assert origins == sorted(origins)
        assert origins  # the pool path actually ran

    def test_worker_spans_reparent_onto_the_policy_span(self, traced_jobs4):
        _, session = traced_jobs4
        events = session.tracer.events
        policy_ids = {
            event["id"]
            for event in events
            if event["type"] == "span" and event["name"] == "execute.policy"
        }
        worker_roots = [
            event
            for event in events
            if event.get("origin") and "." in event["id"]
            and not event["parent"].startswith(event["origin"])
        ]
        assert worker_roots
        assert {event["parent"] for event in worker_roots} <= policy_ids


class TestInjectedFaultTagging:
    @pytest.fixture(scope="class")
    def faulty_jobs4(self):
        """jobs=4 with a worker-side hang (survivable) and a retried
        exception: both must surface as ``injected=true`` in the trace."""
        session = obs.ObsSession()
        plan = FaultPlan(
            faults=(FaultSpec("hang", block=1), FaultSpec("exception", block=0)),
            hang_s=0.01,
        )
        with ScenarioRunner(
            jobs=4,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
            faults=plan,
            obs=session,
        ) as runner:
            outcome = runner.run(_small_spec())
        return outcome, session

    def test_fault_results_still_match_clean(self, faulty_jobs4):
        with ScenarioRunner() as runner:
            clean = runner.run(_small_spec())
        assert _result_signature(faulty_jobs4[0]) == _result_signature(clean)

    def test_injected_events_carry_the_tag(self, faulty_jobs4):
        _, session = faulty_jobs4
        injected = [
            event
            for event in session.tracer.events
            if event["type"] == "event" and event["name"] == "fault.injected"
        ]
        assert injected
        assert all(event["attrs"]["injected"] is True for event in injected)
        kinds = {event["attrs"]["kind"] for event in injected}
        assert kinds == {"hang", "exception"}

    def test_worker_block_span_keeps_the_tag_through_the_merge(self, faulty_jobs4):
        _, session = faulty_jobs4
        tagged = [
            event
            for event in session.tracer.events
            if event["type"] == "span"
            and event["name"] == "execute.block"
            and event["attrs"].get("injected")
        ]
        # the hang rode into the worker (block 1 slept and succeeded),
        # so its span shipped back through the jobs=4 merge
        assert any(event.get("origin") for event in tagged)
        assert all(event["attrs"]["injected"] is True for event in tagged)

    def test_tag_survives_a_file_round_trip(self, faulty_jobs4, tmp_path):
        _, session = faulty_jobs4
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, session.tracer.events, header={"seed": 2017})
        _, events = read_trace_jsonl(path)
        tags = [
            event["attrs"]["injected"]
            for event in events
            if event["attrs"].get("injected") is not None
        ]
        assert tags and all(tag is True for tag in tags)

    def test_health_and_metrics_agree_on_injection_counts(self, faulty_jobs4):
        outcome, _ = faulty_jobs4
        counters = outcome.manifest.observability["metrics"]["counters"]
        injected_total = sum(
            value
            for key, value in counters.items()
            if key.startswith("runner_injected_total")
        )
        assert injected_total == outcome.manifest.health["injected"]
        assert counters["runner_retries_total"] == outcome.manifest.health["retries"]


# ----------------------------------------------------------------------
# Report rendering.
# ----------------------------------------------------------------------


class TestReport:
    def test_span_rollup_aggregates_and_ranks(self):
        events = [
            {"type": "span", "name": "execute.block", "duration_s": 0.2,
             "attrs": {"policy": "css", "call": 0, "block": 1}},
            {"type": "span", "name": "execute.block", "duration_s": 0.5,
             "attrs": {"policy": "css", "call": 0, "block": 0}},
            {"type": "event", "name": "retry", "attrs": {}},
        ]
        rollup = span_rollup(events, top=1)
        assert rollup["spans"]["execute.block"]["count"] == 2
        assert rollup["spans"]["execute.block"]["max_s"] == 0.5
        assert rollup["policies"]["css"]["total_s"] == pytest.approx(0.7)
        assert [b["block"] for b in rollup["slowest_blocks"]] == [0]

    def test_report_loads_either_artifact(self, tmp_path):
        session = obs.ObsSession(trace_path=tmp_path / "trace.jsonl")
        with ScenarioRunner(obs=session) as runner:
            outcome = runner.run(_small_spec())
        manifest_path = tmp_path / "manifest.json"
        outcome.manifest.save(manifest_path)
        from_trace = load_report_target(tmp_path / "trace.jsonl")
        from_manifest = load_report_target(manifest_path)
        assert from_trace["source"] == "trace"
        assert from_manifest["source"] == "manifest"
        assert from_trace["rollup"]["spans"] == from_manifest["rollup"]["spans"]
        rows = format_report_rows(from_trace)
        assert rows[0].startswith("report: per-stage latency breakdown")
        assert any("execute.block" in row for row in rows)
        assert any("top" in row and "slowest blocks" in row for row in rows)

    def test_untraced_manifest_is_refused(self, tmp_path):
        with ScenarioRunner() as runner:
            outcome = runner.run(_small_spec())
        path = tmp_path / "manifest.json"
        outcome.manifest.save(path)
        with pytest.raises(ValueError, match="no observability section"):
            load_report_target(path)


# ----------------------------------------------------------------------
# CLI surface.
# ----------------------------------------------------------------------


class TestCliObs:
    def test_run_trace_writes_a_readable_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        status = cli_main(
            ["run", "policy-eval", "--trace", str(trace)]
        )
        assert status == 0
        header, events = read_trace_jsonl(trace)
        assert header["scenario"] == "policy-eval"
        assert header["jobs"] == 1
        assert any(e["name"] == "scenario.run" for e in events)
        out = capsys.readouterr().out
        assert "wrote trace to" in out
        assert "observability" in out

    def test_report_renders_the_breakdown(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert cli_main(["run", "policy-eval", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert cli_main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-stage latency breakdown" in out
        assert "execute.block" in out

    def test_report_metrics_renders_prometheus_from_a_manifest(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "t.jsonl"
        manifest = tmp_path / "m.json"
        assert cli_main(
            ["run", "policy-eval", "--trace", str(trace),
             "--manifest", str(manifest)]
        ) == 0
        capsys.readouterr()
        assert cli_main(["report", str(manifest), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE runner_kernel_path_total counter" in out

    def test_report_refuses_a_foreign_file(self, tmp_path, capsys):
        path = tmp_path / "noise.json"
        path.write_text('{"hello": 1}\n')
        assert cli_main(["report", str(path)]) == 2
        assert "rerun with --trace" in capsys.readouterr().err

    def test_bad_log_level_exits_two(self, capsys):
        assert cli_main(["run", "--list", "--log-level", "chatty"]) == 2
        assert "unknown log level" in capsys.readouterr().err

    def test_log_level_flag_applies(self, _restore_repro_logger):
        assert cli_main(["run", "--list", "--log-level", "debug"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG
