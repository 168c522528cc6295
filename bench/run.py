"""Run benchmark workloads and print every metric by name with its unit.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1] [--trace-dir DIR] [--out FILE]

``python -m bench.run`` takes the same options; without ``--workload``
it runs every workload in turn.  Each workload runs in child processes
with fresh cache and state directories.  Untraced (``--trace 0``) it
reports the end-to-end metrics of ``BENCHMARK.json``; traced
(``--trace 1``) it measures once untraced and once with the layer
wrappers installed, reports the per-layer metrics, and writes
``DIR/<workload>.trace.jsonl`` and ``DIR/layers.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0
when every output matched, 1 on a mismatch or a failed workload, 2
when the checkout holds no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import common  # noqa: E402
from bench.hostspeed import speed_of  # noqa: E402

COLD_STARTS = 3
#: Wall-clock budget of one workload, children included.
WORKLOAD_BUDGET_S = 170.0


class WorkloadFailed(RuntimeError):
    """A child process crashed, hung or left something behind."""


def _child(
    label: str, command: List[str], env: Dict[str, str], deadline: float, log: Path
) -> None:
    """Run one child in its own process group; nothing in it outlives the call."""
    with open(log, "w") as handle:
        proc = subprocess.Popen(
            command, cwd=common.ROOT, env=env, stdout=handle, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException as error:
            # The group holds the child's own children too (serve, pool
            # workers): on a timeout or an interrupt they go with it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            if isinstance(error, subprocess.TimeoutExpired):
                raise WorkloadFailed(f"{label} exceeded the workload's time budget") from None
            raise
    if code != 0:
        raise WorkloadFailed(f"{label} exited {code}:\n{log.read_text()[-3000:]}")


def cold_start(name: str, work: Path, deadline: float) -> Dict[str, Any]:
    """One cold start in a fresh cache directory (see workloads.cold_start)."""
    out = work / "coldstart.json"
    env = common.child_env(work / "cache")
    t0 = time.monotonic()
    _child(
        f"cold start of {name}",
        [sys.executable, "-m", "bench.workloads", "coldstart", name,
         "--t0", repr(t0), "--out", str(out)],
        env, deadline, work / "coldstart.log",
    )
    return json.loads(out.read_text())


def measure(
    name: str, seed: int, seconds: float, work: Path, deadline: float,
    span_dir: Optional[Path] = None, trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """One measuring run of a workload in its own process."""
    out = work / "result.json"
    command = [
        sys.executable, "-m", "bench.workloads", "run", name,
        "--seed", str(seed), "--seconds", str(seconds), "--out", str(out),
    ]
    if span_dir is not None:
        span_dir.mkdir(parents=True, exist_ok=True)
        command += ["--span-dir", str(span_dir), "--trace-out", str(trace_out)]
    _child(f"run of {name}", command, common.child_env(work / "cache"), deadline,
           work / "run.log")
    result = json.loads(out.read_text())
    if not result["ops_s"]:
        raise WorkloadFailed(f"no operation of {name} completed: {result['errors']}")
    return result


def end_to_end(result: Dict[str, Any], colds: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """What a user of the workload sees, at reference host speed.

    One speed serves the whole run: the cold starts' reference-job units
    and the measuring run's, together.
    """
    speed = speed_of([u for part in [*colds, result] for u in part["units"]])
    return {
        "setup_s": speed * statistics.median(cold["setup_s"] for cold in colds),
        "op_p50_ms": 1e3 * speed * statistics.median(result["ops_s"]),
        "ops_per_s": len(result["ops_s"]) / (speed * result["window_s"]),
        "peak_rss_mb": result["peak_rss_bytes"] / 1e6,
    }


def per_layer(plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    speed = speed_of(plain["units"])
    metrics = {
        "wall.op_p50_ms": 1e3 * statistics.median(plain["ops_s"]),
        "wall.ops_per_s": len(plain["ops_s"]) / plain["window_s"],
        "host.speed": speed,
        **traced["layers"],
    }
    plain_s = speed * statistics.median(plain["ops_s"])
    traced_s = speed_of(traced["units"]) * statistics.median(traced["ops_s"])
    metrics["trace_overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    attempted = plain["attempted"] + traced["attempted"]
    metrics["failed_frac"] = (plain["failed"] + traced["failed"]) / max(1, attempted)
    return metrics


def _check_hygiene(work: Path, shm_before: set) -> List[str]:
    """Nothing the workload started may outlive it."""
    problems = []
    leaked = sorted(common.shm_segments() - shm_before)
    if leaked:
        problems.append(f"shared-memory segments left behind: {leaked}")
    for pid in common.processes_mentioning(str(work)):
        problems.append(f"process {pid} outlived its workload; killed")
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return problems


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, trace_dir: Path,
    benchmark: Dict[str, Any],
) -> Dict[str, Any]:
    """Measure one workload; returns the run record ``--out`` keeps.

    The record holds every declared metric the run measured; the result
    line prints those of the run's kind (``end_to_end`` untraced,
    ``per_layer`` traced).
    """
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    required = [m["name"] for m in benchmark["per_layer" if trace else "end_to_end"]]
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    work = common.fresh_dir(common.WORK_ROOT, f"{name}-")
    shm_before = common.shm_segments()
    results: List[Dict[str, Any]] = []
    #: Failures outside the children's own checks: crashes, leftovers.
    errors: List[str] = []
    metrics: Dict[str, float] = {}
    samples: Dict[str, Any] = {}
    try:
        if trace:
            trace_dir.mkdir(parents=True, exist_ok=True)
            plain = measure(name, seed, seconds, _sub(work, "plain"), deadline)
            traced = measure(
                name, seed, seconds, _sub(work, "traced"), deadline,
                span_dir=work / "spans", trace_out=trace_dir,
            )
            results += [plain, traced]
            metrics = per_layer(plain, traced)
            _update_layers_file(trace_dir / "layers.json", name, seed, metrics)
        else:
            colds = [
                cold_start(name, _sub(work, f"cold{index}"), deadline)
                for index in range(COLD_STARTS)
            ]
            main = measure(name, seed, seconds, _sub(work, "run"), deadline)
            results += colds + [main]
            metrics = end_to_end(main, colds)
            samples = {
                "setup_s": [cold["setup_s"] for cold in colds],
                "ops_s": main["ops_s"],
                "units_s": [cold["units"] for cold in colds] + [main["units"]],
            }
    except WorkloadFailed as error:
        errors.append(str(error))
    finally:
        errors += _check_hygiene(work, shm_before)
        common.remove_tree(work)
    failed = len(errors) + sum(result["failed"] for result in results)
    attempted = max(1, failed, sum(result["attempted"] for result in results))
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "required": required,
        "correct": failed == 0 and set(metrics) >= set(required),
        "attempted": attempted,
        "failed": failed,
        "errors": errors + [e for result in results for e in result["errors"]],
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items() if key in units
        },
        "samples": samples,
        "env": results[-1]["env"] if results else common.environment(seed),
        "started_unix": time.time(),
    }


def _sub(work: Path, name: str) -> Path:
    path = work / name
    path.mkdir()
    return path


def _update_layers_file(path: Path, name: str, seed: int, metrics: Dict[str, float]) -> None:
    from bench import layers

    data = json.loads(path.read_text()) if path.is_file() else {}
    data[name] = {
        "seed": seed,
        "metrics": metrics,
        "sum_check": layers.sum_check(metrics),
        "moves": layers.MOVES,
    }
    common.write_json(path, data)


def _print(summary: Dict[str, Any]) -> None:
    print(f"workload {summary['workload']} (seed {summary['seed']}, "
          f"{'traced' if summary['trace'] else 'untraced'})")
    for key, entry in summary["metrics"].items():
        print(f"  {key:32s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  correct={summary['correct']} attempted={summary['attempted']} "
          f"failed={summary['failed']}")
    for error in summary["errors"][:10]:
        print(f"  error: {error}")
    line = result_line(summary)
    if line is not None:
        print(json.dumps(line), flush=True)


def result_line(summary: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The last output line: the run kind's metrics, or None if some are missing."""
    if not set(summary["metrics"]) >= set(summary["required"]):
        return None
    line = {key: summary[key] for key in ("correct", "attempted", "failed")}
    line["metrics"] = {key: summary["metrics"][key] for key in summary["required"]}
    return line


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        benchmark = common.load_benchmark()
    except (OSError, ValueError) as error:
        print(f"error: cannot read {common.BENCHMARK_FILE}: {error}", file=sys.stderr)
        return 2
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="workload to run (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]),
                        help="measuring window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=common.OUT_ROOT / "traces")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full run record (JSON) here")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so children and scratch
    # directories are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {common.SRC}", file=sys.stderr)
        return 2
    summaries = []
    for name in [args.workload] if args.workload else names:
        summary = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.trace_dir.resolve(),
            benchmark,
        )
        summaries.append(summary)
        _print(summary)
    if args.out is not None:
        common.write_json(args.out, summaries[0] if len(summaries) == 1 else {"runs": summaries})
    return 0 if all(summary["correct"] for summary in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
