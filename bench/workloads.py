"""The four workloads, each driven through the program's public surfaces.

Batch workloads call :meth:`repro.runtime.ScenarioRunner.run` in this
process; service workloads start ``repro-bench serve`` as a subprocess
and talk to it over HTTP with :class:`repro.service.client.ServiceClient`.
Every output is checked: scenario digests against ``expected.json``,
``jobs=2`` runs against ``jobs=1`` re-runs, served digests against
in-process re-runs.

Operations alternate with units of the reference job of
:mod:`bench.hostspeed`, outside the timed intervals, so that each run
carries the host speed measured while it ran.

This module is the child process ``bench/run.py`` starts for each
measurement, so that every workload gets fresh caches and its own
resource accounting::

    python -m bench.workloads run WORKLOAD --seed N --seconds S --out FILE
        [--span-dir DIR --trace-out DIR]
    python -m bench.workloads coldstart WORKLOAD --t0 T --out FILE
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import os
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import common, layers
from .hostspeed import HostSpeed
from .spans import SpanRecorder, read_span_files

WORKLOADS = ("paper-suite", "fig7-sharded", "service-fig7", "service-tiny")
BATCH = ("paper-suite", "fig7-sharded")

#: Pool width of fig7-sharded and the number of client threads of the
#: service workloads: never more than the 2 cores this benchmark was
#: sized on, so load comes from one process and never oversubscribes.
FIG7_JOBS = 2
CLIENTS = 2
#: ``repro-bench serve``'s default worker count (the service is run at
#: its defaults).
SERVE_WORKERS = 2
#: Poll interval of a waiting client.  Fixed: polling faster takes CPU
#: from the server (2 ms polls cut service-fig7 by a quarter).
POLL_S = 0.010
SERVICE_WARMUP_RUNS = 2
#: Sampled correctness re-runs: fig7 passes at jobs=1, served runs in
#: process.
FIG7_REFERENCE_RUNS = 3
SERVICE_REFERENCE_RUNS = 16
RUN_TIMEOUT_S = 60.0
SERVE_START_TIMEOUT_S = 60.0

#: Seconds per completed operation on the 2-vCPU machine the benchmark
#: was sized on.  A run does ``ceil(seconds / REFERENCE_OP_S)``
#: operations: a fixed amount of work, so every commit is measured on
#: the same work even where an operation's cost grows with how many
#: came before it (the service's run history does).
REFERENCE_OP_S = {
    "paper-suite": 12.0,
    "fig7-sharded": 1.2,
    "service-fig7": 0.14,
    "service-tiny": 0.0125,
}

#: Reference-job units (bench/hostspeed.py) run between operations,
#: outside the timed intervals: after every paper-suite scenario, after
#: every fig7-sharded pass, after every service segment, after a cold
#: start.  A run's host speed comes from all of them.
SCENARIO_UNITS = 1
PASS_UNITS = 3
SEGMENT_UNITS = 3
COLD_UNITS = 5
#: Length of a service segment on the reference machine: the closed loop
#: drains every ~2 s so the host speed is read with the server idle.
SEGMENT_S = 2.0

TERMINAL = ("done", "failed", "cancelled", "deadline")


def target_ops(workload: str, seconds: float) -> int:
    """Operations one run measures for a ``seconds``-long window."""
    return max(1, math.ceil(seconds / REFERENCE_OP_S[workload]))


class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.retries = 0
        self.fallbacks = 0

    def op(self, ok: bool, message: str) -> None:
        """Count one attempted operation, failed unless ``ok``."""
        self.attempted += 1
        self.expect(ok, message)

    def expect(self, ok: bool, message: str) -> None:
        """Check an already-counted operation or an invariant of the run."""
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def health(self, manifest_health: Dict[str, Any]) -> None:
        self.retries += int(manifest_health.get("retries", 0) or 0)
        self.fallbacks += int(manifest_health.get("fallbacks", 0) or 0)

    def to_json(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:20],
            "health": {"retries": self.retries, "fallbacks": self.fallbacks},
        }


# ----------------------------------------------------------------------
# Inputs and the oracle.
# ----------------------------------------------------------------------


def result_key(outcome) -> str:
    """The digest an outcome is checked by.

    ``result_digest`` is empty for results that do not serialize to
    JSON (``Table1Result``); those are checked by the sha256 of their
    ``format_rows()`` text instead.
    """
    digest = outcome.manifest.result_sha256
    if digest:
        return digest
    text = "\n".join(outcome.result.format_rows())
    return "rows:" + hashlib.sha256(text.encode()).hexdigest()


def service_spec(mix: str, seed: Optional[int]):
    """The spec one service submission carries (``seed=None``: default)."""
    if mix == "service-fig7":
        from repro.experiments.fig7 import Fig7Config, fig7_spec

        # The reduced fig7 configuration repro's perf harness uses:
        # ~0.1 s of compute, so the kernel stays a large share of a run.
        spec = fig7_spec(Fig7Config(
            probe_counts=(8, 20),
            lab_azimuth_step_deg=10.0,
            lab_elevation_step_deg=15.0,
            conference_azimuth_step_deg=10.0,
            n_sweeps=1,
            subsamples_per_sweep=1,
        ))
    elif mix == "service-tiny":
        from repro.runtime import scenario_spec

        spec = scenario_spec("fig10")
    else:
        raise ValueError(f"not a service workload: {mix}")
    return spec.with_seed(seed)


def _seeds(seed: int) -> Iterator[int]:
    """Distinct spec seeds derived from the workload seed.

    Seeds never repeat within a run, so no two submissions share a spec
    digest and nothing the program caches by digest is reused.
    """
    return itertools.count(int(np.random.default_rng(seed).integers(1, 2**30)))


def _peak_rss_self_and_children() -> int:
    """Peak RSS of this process plus its largest reaped child, in bytes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return 1024 * (own + children)


# ----------------------------------------------------------------------
# Batch workloads.
# ----------------------------------------------------------------------


def paper_suite(ops: int) -> Dict[str, Any]:
    """Every registered scenario at its default spec, in registry order.

    The inputs are the paper's: default specs whose digests are pinned,
    so no seed enters (a seeded order made the peak memory depend on the
    seed).  One warm ``ScenarioRunner(jobs=1)``;
    an operation is one pass over all scenarios, timed scenario by
    scenario with a reference-job unit after each.
    """
    from repro.runtime import ScenarioRunner, TestbedSpec, available_scenarios, scenario_spec

    expected = common.load_expected()["scenarios"]
    tally = Tally()
    host = HostSpeed()
    names = available_scenarios()
    tally.expect(
        names == sorted(expected),
        f"registered scenarios {names} differ from the oracle's {sorted(expected)}",
    )
    specs = [(name, scenario_spec(name)) for name in names]
    passes: List[List[Tuple[float, float]]] = []
    with ScenarioRunner(jobs=1) as runner:
        TestbedSpec().build()
        for _ in range(ops):
            intervals: List[Tuple[float, float]] = []
            for name, spec in specs:
                begin = time.monotonic()
                outcome = runner.run(spec)
                intervals.append((begin, time.monotonic()))
                host.measure(SCENARIO_UNITS)
                tally.health(outcome.manifest.health)
                key = result_key(outcome)
                tally.op(
                    key == expected.get(name),
                    f"{name}: digest {key} != expected {expected.get(name)}",
                )
            passes.append(intervals)
    return {
        "ops": passes,
        "periods": [interval for intervals in passes for interval in intervals],
        "units": host.samples,
        "peak_rss_bytes": _peak_rss_self_and_children(),
        "tally": tally,
        "lanes": 1,
    }


def fig7_sharded(seed: int, ops: int) -> Dict[str, Any]:
    """fig7 through one warm ``ScenarioRunner(jobs=2)``, a fresh seed a pass.

    The warm-up pass runs the default spec and must match the oracle's
    jobs=1 digest; afterwards sampled passes are re-run at jobs=1 and
    must match too.
    """
    from repro.runtime import ScenarioRunner, scenario_spec

    expected = common.load_expected()["scenarios"]["fig7"]
    tally = Tally()
    host = HostSpeed()
    spec = scenario_spec("fig7")
    seeds = _seeds(seed)
    passes: List[Tuple[float, float]] = []
    digests: List[Tuple[int, str]] = []
    with ScenarioRunner(jobs=FIG7_JOBS) as runner:
        warm = runner.run(spec)
        tally.op(
            result_key(warm) == expected,
            f"fig7 jobs={FIG7_JOBS}: digest {result_key(warm)} != expected {expected}",
        )
        for pass_seed in itertools.islice(seeds, ops):
            begin = time.monotonic()
            outcome = runner.run(spec.with_seed(pass_seed))
            passes.append((begin, time.monotonic()))
            host.measure(PASS_UNITS)
            tally.health(outcome.manifest.health)
            digests.append((pass_seed, outcome.manifest.result_sha256))
            tally.op(bool(digests[-1][1]), f"fig7 seed {pass_seed}: no result digest")
    peak = _peak_rss_self_and_children()
    picks = np.random.default_rng(seed + 1).choice(
        len(digests), size=min(FIG7_REFERENCE_RUNS, len(digests)), replace=False
    )
    with ScenarioRunner(jobs=1) as reference:
        for index in sorted(int(i) for i in picks):
            pass_seed, served = digests[index]
            again = reference.run(spec.with_seed(pass_seed)).manifest.result_sha256
            tally.expect(
                again == served,
                f"fig7 seed {pass_seed}: jobs={FIG7_JOBS} digest {served} != jobs=1 {again}",
            )
    return {
        "ops": [[interval] for interval in passes],
        "periods": passes,
        "units": host.samples,
        "peak_rss_bytes": peak,
        "tally": tally,
        "lanes": FIG7_JOBS,
    }


# ----------------------------------------------------------------------
# Service workloads.
# ----------------------------------------------------------------------


class Serve:
    """A ``repro-bench serve`` subprocess with its own state directory."""

    def __init__(self, work_dir: Path, span_dir: Optional[Path] = None):
        self.work_dir = Path(work_dir)
        state = self.work_dir / "state"
        serve_args = ["serve", "--port", "0", "--state-dir", str(state)]
        if span_dir is None:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            command = [
                sys.executable, "-m", "bench.serve_traced",
                "--span-dir", str(span_dir), "--", *serve_args,
            ]
        self.log_path = self.work_dir / "serve.log"
        self._log = open(self.log_path, "w")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command,
            cwd=common.ROOT,
            env=common.child_env(self.work_dir / "cache"),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + SERVE_START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=0.5):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.strip().rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError(f"serve did not start; log tail: {self.log_tail()}")

    def log_tail(self) -> str:
        return self.log_path.read_text()[-2000:]

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()
        return self.proc.returncode


def _submit_and_wait(client, spec_json: Dict[str, Any]) -> Dict[str, Any]:
    """One closed-loop operation: POST the spec, poll until terminal."""
    record: Dict[str, Any] = {"seed": spec_json["seed"], "status_s": []}
    record["t_submit"] = time.monotonic()
    code, payload = client.request("POST", "/runs", spec_json)
    record["t_accepted"] = record["t_done"] = time.monotonic()
    if code != 202:
        record["status"] = "rejected"
        return record
    record["id"] = payload["run"]
    deadline = record["t_accepted"] + RUN_TIMEOUT_S
    while True:
        time.sleep(POLL_S)
        before = time.monotonic()
        code, payload = client.request("GET", f"/runs/{record['id']}")
        record["t_done"] = time.monotonic()
        record["status_s"].append(record["t_done"] - before)
        if code != 200:
            record["status"] = f"http-{code}"
            return record
        if payload["status"] in TERMINAL:
            record["status"] = payload["status"]
            record["sha"] = payload.get("result_sha256", "")
            record["health"] = payload.get("manifest", {}).get("health", {})
            return record
        if record["t_done"] > deadline:
            record["status"] = "timeout"
            return record


def _closed_loop(client, mix: str, seeds: Sequence[int]) -> List[Dict[str, Any]]:
    """``CLIENTS`` threads submitting ``seeds`` in turn until none is left.

    Each thread submits a fresh-seed spec, polls every ``POLL_S`` until
    the run is terminal, then submits the next.
    """
    budget = iter(seeds)
    lock = threading.Lock()

    def loop() -> List[Dict[str, Any]]:
        own = []
        while True:
            with lock:
                run_seed = next(budget, None)
            if run_seed is None:
                return own
            own.append(_submit_and_wait(client, service_spec(mix, run_seed).to_json()))

    records: List[Dict[str, Any]] = []
    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        for future in [pool.submit(loop) for _ in range(CLIENTS)]:
            records.extend(future.result())
    return records


def service(
    mix: str, seed: int, ops: int, work_dir: Path, span_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """A closed loop of ``CLIENTS`` threads against one serve process.

    ``ops`` runs are submitted in segments of about ``SEGMENT_S``; the
    loop drains at the end of each and the host speed is read while the
    server is idle.  An operation is one run, submit to seen done.
    """
    from repro.service.client import ServiceClient

    tally = Tally()
    host = HostSpeed()
    seeds = _seeds(seed)
    expected = common.load_expected()["scenarios"]
    serve = Serve(work_dir, span_dir)
    client = ServiceClient(port=serve.port, timeout=RUN_TIMEOUT_S)
    records: List[Dict[str, Any]] = []
    periods: List[Tuple[float, float]] = []
    try:
        for warm_seed in itertools.islice(seeds, SERVICE_WARMUP_RUNS):
            warm = _submit_and_wait(client, service_spec(mix, warm_seed).to_json())
            tally.op(warm["status"] == "done", f"warm-up run ended {warm['status']}")
        budget = list(itertools.islice(seeds, ops))
        per_segment = target_ops(mix, SEGMENT_S)
        for first in range(0, len(budget), per_segment):
            start = time.monotonic()
            segment = _closed_loop(client, mix, budget[first:first + per_segment])
            periods.append((start, max(record["t_done"] for record in segment)))
            records += segment
            host.measure(SEGMENT_UNITS)
        peak = common.vm_hwm_bytes(serve.proc.pid) or 0
    finally:
        code = serve.stop()
    tally.expect(code == 0, f"serve exited {code}; log tail: {serve.log_tail()}")
    records.sort(key=lambda r: r["t_submit"])
    for record in records:
        tally.health(record.get("health", {}))
        tally.op(
            record["status"] == "done" and bool(record.get("sha")),
            f"run {record.get('id')} (seed {record['seed']}) ended {record['status']}",
        )
    done = [r for r in records if r["status"] == "done"]
    _verify_served(mix, seed, records, expected, tally)
    return {
        "ops": [[(r["t_submit"], r["t_done"])] for r in done],
        "periods": periods,
        "units": host.samples,
        "peak_rss_bytes": peak,
        "tally": tally,
        "runs": done,
        "serve_pid": serve.proc.pid,
        "client": {
            "submit_s": [r["t_accepted"] - r["t_submit"] for r in records],
            "status_s": [s for r in records for s in r["status_s"]],
            "polls": [len(r["status_s"]) for r in done],
            "rejected": sum(1 for r in records if r["status"] == "rejected"),
        },
    }


def _verify_served(mix, seed, records, expected, tally) -> None:
    """HTTP ≡ CLI: served digests against in-process runs of the same spec.

    fig10 results do not depend on the seed, so every service-tiny run
    is checked against the oracle; service-fig7 re-runs a seeded sample.
    """
    served = [r for r in records if r["status"] == "done"]
    if mix == "service-tiny":
        for record in served:
            tally.expect(
                record["sha"] == expected["fig10"],
                f"fig10 seed {record['seed']}: served {record['sha']} != {expected['fig10']}",
            )
        return
    if not served:
        return
    picks = np.random.default_rng(seed + 1).choice(
        len(served), size=min(SERVICE_REFERENCE_RUNS, len(served)), replace=False
    )
    from repro.runtime import ScenarioRunner

    with ScenarioRunner(jobs=1) as reference:
        for index in sorted(int(i) for i in picks):
            record = served[index]
            again = reference.run(service_spec(mix, record["seed"])).manifest.result_sha256
            tally.expect(
                again == record["sha"],
                f"{mix} seed {record['seed']}: served {record['sha']} != in-process {again}",
            )


# ----------------------------------------------------------------------
# Cold starts.
# ----------------------------------------------------------------------


def cold_start(workload: str, t0: float, work_dir: Path) -> Dict[str, Any]:
    """Time from process spawn to the workload's first correct result.

    Batch workloads count from ``t0``, taken by the parent just before
    it spawned this process; service workloads count from the spawn of
    the serve process.  Caches start empty either way, so the cold
    testbed build is included.  Reference-job units run right after.
    """
    from repro.runtime import ScenarioRunner, available_scenarios, scenario_spec

    oracle = common.load_expected()
    expected = oracle["scenarios"]
    tally = Tally()
    if workload in BATCH:
        # paper-suite's first result is that of its first scenario in
        # registry order; fig7-sharded's is its default-spec pass.
        name = "fig7" if workload == "fig7-sharded" else available_scenarios()[0]
        jobs = FIG7_JOBS if workload == "fig7-sharded" else 1
        with ScenarioRunner(jobs=jobs) as runner:
            key = result_key(runner.run(scenario_spec(name)))
            done = time.monotonic()
        tally.op(key == expected[name], f"{name}: digest {key} != {expected[name]}")
        return {"setup_s": done - t0, "units": _cold_units(), "tally": tally}
    from repro.service.client import ServiceClient

    serve = Serve(work_dir)
    try:
        client = ServiceClient(port=serve.port, timeout=RUN_TIMEOUT_S)
        record = _submit_and_wait(client, service_spec(workload, None).to_json())
    finally:
        code = serve.stop()
    reference = expected["fig10"] if workload == "service-tiny" else oracle["service-fig7"]
    tally.op(
        record.get("sha") == reference,
        f"{workload} cold run: {record['status']} {record.get('sha')} != {reference}",
    )
    tally.expect(code == 0, f"serve exited {code}; log tail: {serve.log_tail()}")
    return {"setup_s": record["t_done"] - serve.spawned, "units": _cold_units(), "tally": tally}


def _cold_units() -> List[float]:
    host = HostSpeed()
    host.measure(COLD_UNITS)
    return host.samples


# ----------------------------------------------------------------------
# Child-process entry point.
# ----------------------------------------------------------------------


def run(
    workload: str,
    seed: int,
    seconds: float,
    work_dir: Path,
    span_dir: Optional[Path] = None,
    trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run one workload (traced when ``span_dir`` is given); JSON-ready."""
    recorder = installation = None
    if span_dir is not None and workload in BATCH:
        recorder = SpanRecorder(span_dir)
        installation = layers.install_program_wrappers(recorder)
    try:
        ops = target_ops(workload, seconds)
        if workload == "paper-suite":
            out = paper_suite(ops)
        elif workload == "fig7-sharded":
            out = fig7_sharded(seed, ops)
        else:
            out = service(workload, seed, ops, work_dir, span_dir=span_dir)
    finally:
        if installation is not None:
            installation.restore()
    result = {
        "workload": workload,
        "ops_s": [sum(b - a for a, b in intervals) for intervals in out["ops"]],
        "window_s": sum(b - a for a, b in out["periods"]),
        "units": out["units"],
        "peak_rss_bytes": out["peak_rss_bytes"],
        **out["tally"].to_json(),
    }
    if "client" in out:
        result["client"] = out["client"]
    if span_dir is not None and out["ops"]:
        result["layers"] = _traced_layers(workload, seed, out, recorder, span_dir, trace_out)
    return result


def _traced_layers(workload, seed, out, recorder, span_dir, trace_out) -> Dict[str, float]:
    if recorder is not None:
        recorder.dump()
    spans = read_span_files(span_dir)
    periods = out["periods"]
    window = (periods[0][0], periods[-1][1])
    if workload in BATCH:
        metrics = layers.batch_layers(spans, os.getpid(), out["ops"], out["lanes"])
        client = {"submit_s": [], "status_s": [], "polls": [], "rejected": 0}
    else:
        metrics = layers.service_layers(
            spans, out["serve_pid"], out["runs"], periods, SERVE_WORKERS
        )
        client = out["client"]
        spans = spans + _client_spans(out["runs"])
    metrics["http.submit_ms_p50"] = 1e3 * _median0(client["submit_s"])
    metrics["http.status_ms_p50"] = 1e3 * _median0(client["status_s"])
    metrics["http.polls_per_run"] = _mean0(client["polls"])
    metrics["http.admission.rejected"] = float(client["rejected"])
    metrics.setdefault("queue.wait_ms_p50", 0.0)
    n_ops = len(out["ops"])
    tally = out["tally"]
    metrics["health.retries"] = tally.retries / n_ops
    metrics["health.fallbacks"] = tally.fallbacks / n_ops
    if trace_out is not None:
        from repro.obs.trace import write_trace_jsonl

        kept = [s for s in spans if window[0] <= s["start"] <= window[1]]
        write_trace_jsonl(
            Path(trace_out) / f"{workload}.trace.jsonl",
            layers.trace_events(kept, window[0]),
            header={
                "scenario": workload, "seed": seed, "source": "bench",
                "jobs": FIG7_JOBS if workload == "fig7-sharded" else 1,
            },
        )
    return metrics


def _client_spans(runs: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The client's submit round trips as trace spans."""
    return [
        {
            "layer": "http", "fn": "POST /runs", "id": f"client.{index}",
            "parent": None, "pid": os.getpid(), "start": run["t_submit"],
            "duration_s": run["t_accepted"] - run["t_submit"],
            "self_s": run["t_accepted"] - run["t_submit"],
            "attrs": {"run": run["id"], "polls": len(run["status_s"])},
        }
        for index, run in enumerate(runs)
    ]


def _median0(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean0(values: Sequence[float]) -> float:
    return float(sum(values)) / len(values) if values else 0.0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.workloads")
    parser.add_argument("mode", choices=("run", "coldstart"))
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--span-dir", type=Path, default=None)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    common.use_source_tree()
    work_dir = args.out.parent
    if args.mode == "coldstart":
        out = cold_start(args.workload, args.t0, work_dir)
        result = {"setup_s": out["setup_s"], "units": out["units"], **out["tally"].to_json()}
    else:
        result = run(
            args.workload, args.seed, args.seconds, work_dir,
            span_dir=args.span_dir, trace_out=args.trace_out,
        )
    result["env"] = common.environment(args.seed)
    common.write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
