"""Tests of the benchmark itself.  Run with ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import types

import pytest

from bench import common, compare, layers, run, spans, workloads

BENCHMARK = common.load_benchmark()
E2E = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in BENCHMARK["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Spans and wrappers.
# ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)
    outer = recorder.begin("outer", "a")
    clock.now = 1.0
    middle = recorder.begin("mid", "b")
    clock.now = 2.0
    inner = recorder.begin("inner", "c")
    clock.now = 4.0
    recorder.end(inner)
    clock.now = 5.0
    recorder.end(middle)
    clock.now = 6.0
    second = recorder.begin("mid", "d")
    clock.now = 9.0
    recorder.end(second)
    clock.now = 10.0
    recorder.end(outer)
    by_fn = {span["fn"]: span for span in recorder.spans}
    assert by_fn["c"]["parent"] == by_fn["b"]["id"]
    assert (by_fn["c"]["duration_s"], by_fn["c"]["self_s"]) == (2.0, 2.0)
    assert (by_fn["b"]["duration_s"], by_fn["b"]["self_s"]) == (4.0, 2.0)
    assert (by_fn["a"]["duration_s"], by_fn["a"]["self_s"]) == (10.0, 3.0)
    assert sum(span["self_s"] for span in recorder.spans) == by_fn["a"]["duration_s"]


def test_spans_on_other_threads_do_not_nest():
    recorder = spans.SpanRecorder()
    opened, release = threading.Event(), threading.Event()

    def hold():
        frame = recorder.begin("outer", "held")
        opened.set()
        release.wait(5)
        recorder.end(frame)

    holder = threading.Thread(target=hold)
    holder.start()
    assert opened.wait(5)
    other = threading.Thread(target=lambda: recorder.end(recorder.begin("inner", "other")))
    other.start()
    other.join(5)
    release.set()
    holder.join(5)
    assert not holder.is_alive() and not other.is_alive()
    by_fn = {span["fn"]: span for span in recorder.spans}
    assert by_fn["other"]["parent"] is None
    assert by_fn["held"]["self_s"] == by_fn["held"]["duration_s"]


_FAKE_SOURCE = """
import functools

def work(x):
    return x + 1

@functools.lru_cache(maxsize=None)
def cached(x):
    return x * 2

class Engine:
    def run(self, x):
        return work(x)

def sync(fd):
    return fd
"""


@pytest.fixture
def fake_program(monkeypatch):
    core = types.ModuleType("fakeprog.core")
    exec(_FAKE_SOURCE, core.__dict__)
    user = types.ModuleType("fakeprog.user")
    user.work, user.cached = core.work, core.cached
    monkeypatch.setitem(sys.modules, "fakeprog", types.ModuleType("fakeprog"))
    monkeypatch.setitem(sys.modules, "fakeprog.core", core)
    monkeypatch.setitem(sys.modules, "fakeprog.user", user)
    return core, user


def test_install_patches_aliases_and_restore_undoes_it(fake_program):
    core, user = fake_program
    originals = (core.work, core.cached, vars(core.Engine)["run"], core.sync)
    recorder = spans.SpanRecorder()
    installation = spans.install(
        recorder,
        [
            spans.Target("work", "fakeprog.core", "work"),
            spans.Target("cache", "fakeprog.core", "cached"),
            spans.Target("engine", "fakeprog.core", "Engine.run"),
        ],
        counters=[(core, "sync", "syncs")],
        alias_prefix="fakeprog",
    )
    assert user.work is core.work and core.work is not originals[0]
    assert user.cached is core.cached and core.cached is not originals[1]
    assert core.Engine().run(1) == 2
    assert user.cached(3) == 6
    user.cached.cache_clear()
    frame = recorder.begin("outer", "syncing")
    core.sync(3)
    core.sync(4)
    recorder.end(frame)
    by_fn = {span["fn"]: span for span in recorder.spans}
    assert by_fn["work"]["parent"] == by_fn["Engine.run"]["id"]
    assert by_fn["cached"]["layer"] == "cache"
    assert by_fn["syncing"]["attrs"]["syncs"] == 2
    installation.restore()
    assert (core.work, core.cached, vars(core.Engine)["run"], core.sync) == originals
    assert user.work is originals[0] and user.cached is originals[1]


def test_program_targets_resolve_and_restore():
    import repro.runtime.runner as runner_module
    from repro.runtime import ScenarioRunner

    original_run = vars(ScenarioRunner)["run"]
    original_digest = runner_module.result_digest
    installation = layers.install_program_wrappers(spans.SpanRecorder())
    try:
        assert vars(ScenarioRunner)["run"] is not original_run
        assert runner_module.result_digest is not original_digest
        assert {target.layer for target in layers.targets()} == set(layers.WRAPPED_LAYERS)
    finally:
        installation.restore()
    assert vars(ScenarioRunner)["run"] is original_run
    assert runner_module.result_digest is original_digest


def test_service_run_splits_into_http_queue_serve_and_rest():
    def span(span_id, layer, start, end, self_s=None, parent=None, run_id="r1"):
        return {
            "id": span_id, "layer": layer, "fn": layer, "parent": parent, "pid": 7,
            "start": start, "duration_s": end - start,
            "self_s": end - start if self_s is None else self_s,
            "attrs": {"run": run_id} if parent is None else {},
        }

    serve = [
        span("1", "registry", 0.001, 0.004),          # queued, inside the POST
        span("2", "registry", 0.006, 0.007),          # running, inside the wait
        span("3", "scenario", 0.008, 0.108, self_s=0.05),
        span("4", "kernel", 0.020, 0.070, parent="3"),
        span("5", "result", 0.109, 0.110),
        span("6", "registry", 0.111, 0.112),
        span("9", "scenario", 0.200, 0.300, run_id="other"),
    ]
    runs = [{"id": "r1", "t_submit": 0.0, "t_accepted": 0.005, "t_done": 0.118,
             "status_s": [0.001]}]
    metrics = layers.service_layers(serve, 7, runs, [(0.0, 0.5)], workers=2)
    assert metrics["http.self_ms"] == pytest.approx(2.0)
    assert metrics["queue.wait_ms_p50"] == pytest.approx(3.0)
    assert metrics["queue.self_ms"] == pytest.approx(2.0)
    assert metrics["registry.self_ms"] == pytest.approx(5.0)
    assert metrics["kernel.self_ms"] == pytest.approx(50.0)
    assert metrics["scenario.self_ms"] == pytest.approx(50.0)
    assert metrics["traced.op_ms"] == pytest.approx(118.0)
    assert metrics["unattributed_frac"] == pytest.approx(8.0 / 118.0)
    assert layers.sum_check(metrics)["error_frac"] < 1e-9
    assert metrics["worker.busy_frac"] == pytest.approx(0.2 / (2 * 0.5))


def test_timings_scale_to_reference_host_speed():
    from bench import hostspeed

    host = hostspeed.HostSpeed()
    host.measure(2)
    assert len(host.samples) == 2 and min(host.samples) > 0
    ref = hostspeed.REFERENCE_UNIT_S
    # A host half the time at full speed and half at a third: mean speed 2/3.
    assert hostspeed.speed_of([ref, 3 * ref]) == pytest.approx(2 / 3)
    result = {
        "ops_s": [1.0, 2.0, 4.0], "window_s": 8.0, "peak_rss_bytes": 5e6,
        "units": [2 * ref, 2 * ref],
    }
    colds = [{"setup_s": s, "units": [2 * ref]} for s in (1.0, 3.0, 2.0)]
    metrics = run.end_to_end(result, colds)
    assert metrics["op_p50_ms"] == pytest.approx(1000.0)
    assert metrics["ops_per_s"] == pytest.approx(0.75)
    assert metrics["setup_s"] == pytest.approx(1.0)
    assert metrics["peak_rss_mb"] == pytest.approx(5.0)


# ----------------------------------------------------------------------
# The comparison rules.
# ----------------------------------------------------------------------


PARENT = [100.0 + 0.1 * index for index in range(10)]


def _change(values, **overrides):
    values = list(values)
    for index, value in overrides.items():
        values[int(index[1:])] = value
    return values


def test_gain_needs_nine_of_ten_wins():
    change = [95.0 + 0.1 * index for index in range(10)]
    assert compare.verdict(PARENT, change, list(zip(PARENT, change)), "lower", 0.1)[0] == "improved"
    one_loss = _change(change, i0=101.0)
    result, wins, losses = compare.verdict(
        PARENT, one_loss, list(zip(PARENT, one_loss)), "lower", 0.1
    )
    assert (result, wins, losses) == ("improved", 9, 1)
    two_losses = _change(one_loss, i1=101.0)
    assert compare.verdict(
        PARENT, two_losses, list(zip(PARENT, two_losses)), "lower", 0.1
    )[0] == "unchanged"


def test_ties_count_for_neither_side():
    change = [95.0 + 0.1 * index for index in range(10)]
    one_tie = _change(change, i0=PARENT[0])
    assert compare.verdict(PARENT, one_tie, list(zip(PARENT, one_tie)), "lower", 0.1)[:2] == (
        "improved", 9
    )
    two_ties = _change(one_tie, i1=PARENT[1])
    assert compare.verdict(
        PARENT, two_ties, list(zip(PARENT, two_ties)), "lower", 0.1
    )[0] == "unchanged"


def test_gain_needs_a_gap_wider_than_the_parent_iqr():
    wide = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    change = [value - 1.0 for value in wide]
    result, wins, _ = compare.verdict(wide, change, list(zip(wide, change)), "lower", None)
    assert wins == 10 and result == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [70.0, 85.0, 100.0, 115.0, 130.0] * 2
    slower = [value * 1.02 for value in noisy]
    assert compare.verdict(noisy, slower, list(zip(noisy, slower)), "lower", 0.1)[0] == "unresolved"
    faster = [value * 0.4 for value in noisy]
    assert compare.verdict(noisy, faster, list(zip(noisy, faster)), "lower", 0.1)[0] == "improved"


def test_regression_beyond_the_bound_and_direction():
    slower = [value * 1.2 for value in PARENT]
    assert compare.verdict(PARENT, slower, [], "lower", 0.1)[0] == "regressed"
    assert compare.verdict(PARENT, [v * 1.05 for v in PARENT], [], "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(PARENT, slower, [], "higher", 0.1)[0] == "unchanged"
    assert compare.verdict(PARENT, [v * 0.8 for v in PARENT], [], "higher", 0.1)[0] == "regressed"


def test_same_commit_sets_agree_within_the_bound():
    assert compare.agree(PARENT, [value * 1.05 for value in PARENT], 0.1)
    assert not compare.agree(PARENT, [value * 1.15 for value in PARENT], 0.1)
    assert not compare.agree([70.0, 85.0, 100.0, 115.0, 130.0], PARENT, 0.1)


def test_compare_reads_run_records(tmp_path):
    for side, factor in (("a", 1.0), ("b", 1.3)):
        (tmp_path / side).mkdir()
        for seed in range(5):
            record = {
                "workload": "service-tiny", "seed": seed,
                "metrics": {"setup_s": {"value": factor * (2 + 0.001 * seed), "unit": "s"}},
            }
            (tmp_path / side / f"{seed}.json").write_text(json.dumps(record))
    rows, passed = compare.compare(
        compare.load_runs(tmp_path / "a"), compare.load_runs(tmp_path / "b"), same=False
    )
    assert not passed and "regressed" in rows[-1]
    rows, passed = compare.compare(
        compare.load_runs(tmp_path / "a"), compare.load_runs(tmp_path / "a"), same=True
    )
    assert passed and "agree" in rows[-1]


# ----------------------------------------------------------------------
# BENCHMARK.json.
# ----------------------------------------------------------------------


def test_benchmark_json_follows_its_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert len(json.dumps(BENCHMARK)) <= 64 * 1024
    assert 1 <= len(BENCHMARK["paths"]) <= 16
    for path in BENCHMARK["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
        assert (common.ROOT / path).is_dir()
    assert BENCHMARK["command"][0] == "python3"
    assert BENCHMARK["command"][1].startswith(tuple(BENCHMARK["paths"]))
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == workloads.WORKLOADS
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [w["name"] for w in BENCHMARK["workloads"]] + list(E2E) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 1 <= len(E2E) <= 16 and 1 <= len(PER_LAYER) <= 128
    for metric in E2E.values():
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    assert E2E["setup_s"]["unit"] == "s" and E2E["setup_s"]["better"] == "lower"
    assert E2E["setup_s"]["bound"] == max(metric["bound"] for metric in E2E.values())
    for metric in PER_LAYER.values():
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")


def test_every_per_layer_metric_says_what_it_should_move():
    for name in PER_LAYER:
        assert re.split(r"[._]", name)[0] in layers.MOVES, name


# ----------------------------------------------------------------------
# Workload smoke runs (short windows).
# ----------------------------------------------------------------------


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for key, value in common.BLAS_ENV.items():
        monkeypatch.setenv(key, value)
    return tmp_path


def _git_status():
    if shutil.which("git") is None or not (common.ROOT / ".git").exists():
        return None
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=common.ROOT, capture_output=True, text=True
    ).stdout


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_smoke_traced(name, fresh_cache):
    shm_before = common.shm_segments()
    git_before = _git_status()
    work = fresh_cache / "work"
    work.mkdir()
    span_dir = fresh_cache / "spans"
    span_dir.mkdir()
    trace_out = fresh_cache / "trace"
    result = workloads.run(name, 3, 0.3, work, span_dir=span_dir, trace_out=trace_out)
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] >= 1 and result["ops_s"]
    units = {**{k: m["unit"] for k, m in E2E.items()}, **{k: m["unit"] for k, m in PER_LAYER.items()}}
    for measured, declared in (
        (run.end_to_end(result, [{"setup_s": 1.0, "units": [0.01]}]), E2E),
        (run.per_layer(result, result), PER_LAYER),
    ):
        assert set(measured) <= set(units)
        summary = {
            "correct": True, "attempted": 1, "failed": 0, "required": list(declared),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in measured.items()},
        }
        line = run.result_line(summary)
        assert line is not None and list(line["metrics"]) == list(declared)
    metrics = run.per_layer(result, result)
    check = layers.sum_check(metrics)
    assert check["error_frac"] < 0.01
    assert metrics["unattributed_frac"] > -0.01
    from repro.obs.report import report_rows

    rows = report_rows(trace_out / f"{name}.trace.jsonl")
    assert any(row.strip().startswith("scenario") for row in rows)
    assert common.shm_segments() <= shm_before
    assert not common.processes_mentioning(str(work))
    assert _git_status() == git_before


@pytest.mark.parametrize("name", ["fig7-sharded", "service-tiny"])
def test_cold_start_reaches_a_correct_result(name, fresh_cache):
    import time

    out = workloads.cold_start(name, time.monotonic(), fresh_cache)
    assert out["tally"].failed == 0, out["tally"].errors
    assert out["setup_s"] > 0


def test_fails_without_a_program(tmp_path):
    shutil.copy(common.BENCHMARK_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        common.ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "service-tiny", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
