"""Kernel micro-benchmarks for the estimation hot paths.

The paper's headline is *speed* — compressive selection beats the
exhaustive sweep because the math is cheap (§6.4) — so this repo
tracks the cost of its own hot kernels over time.  ``repro-bench
perf`` times:

* one-sweep ``CompressiveSectorSelector.select`` and
  ``AngleEstimator.estimate`` latency (M=14 probes on the default 91×9
  search grid — one-row calls of the selection kernel),
* the selection kernel's throughput (``select_fused_per_s``, the name
  it carries across the trajectory) over the same trials as one batch,
* cold-cache probe-design throughput (``probe_design_per_s``),
* ``MeasurementModel.observe`` and ``observe_frames`` throughput,
* ``record_directions`` recording, a reduced chamber campaign build
  (the ``build_testbed`` hot path) and the testbed table load.

End-to-end cost — whole scenarios, the process pool, the service,
tracing — is the ``bench/`` workloads' job, not this module's.

A run given ``--output FILE`` appends one machine-readable
*trajectory point* to that JSON file (``BENCH_core.json`` at the repo
root holds the committed history, so every optimization PR stays
diffable); a plain run only prints.  ``repro-bench perf --check``
compares the gated latencies against the committed baseline
point and the gated throughputs against the most recent point that
recorded them, and exits nonzero on a >2× regression or a non-finite
reading — the guard CI runs.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import pathlib
import platform
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_TRAJECTORY",
    "REGRESSION_FACTOR",
    "PerfPoint",
    "append_point",
    "check_against_baseline",
    "environment_mismatches",
    "load_trajectory",
    "run_perf",
]

#: Trajectory file format version.
BENCH_SCHEMA = 1

#: Default trajectory file, relative to the invoking directory (the
#: repo root when run as documented).
DEFAULT_TRAJECTORY = "BENCH_core.json"

#: ``--check`` fails when a latency metric exceeds baseline × this.
REGRESSION_FACTOR = 2.0

#: Latency metrics (lower is better) compared by ``--check``.
_LATENCY_METRICS = (
    "select_scalar_ms_median",
    "estimate_scalar_ms_median",
    "record_directions_s",
    "campaign_build_s",
)

#: Throughput metrics (higher is better) compared by ``--check`` — a
#: drop below the most recent committed value / ``REGRESSION_FACTOR``
#: fails the gate.
_THROUGHPUT_METRICS = ("probe_design_per_s",)


@dataclass(frozen=True)
class PerfPoint:
    """One datapoint on the performance trajectory."""

    label: str
    timestamp: str
    metrics: Dict[str, float]
    environment: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict:
        return {
            "label": self.label,
            "timestamp": self.timestamp,
            "metrics": self.metrics,
            "environment": self.environment,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "PerfPoint":
        return cls(
            label=str(data.get("label", "")),
            timestamp=str(data.get("timestamp", "")),
            metrics=dict(data.get("metrics", {})),
            environment=dict(data.get("environment", {})),
        )


def _environment() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 0,
        "start_method": multiprocessing.get_start_method(),
    }


def _normalize_env_value(value: object) -> object:
    """Canonical comparison form of one environment capture value.

    Captures have changed type across trajectory history — ``cpu_count``
    was recorded as the string ``"1"`` before it became the int ``1`` —
    so values that parse as numbers compare numerically (``"1"`` == ``1``
    == ``1.0``) and everything else compares as its string form.
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(str(value).strip())
    except ValueError:
        return str(value)


def environment_mismatches(
    baseline: Mapping[str, object], current: Mapping[str, object]
) -> List[str]:
    """Keys on which two environment captures disagree.

    Latency numbers taken under a different interpreter, numpy build,
    platform, core count or multiprocessing start method are
    apples-to-oranges; ``--check`` prints these as warnings so a
    cross-machine regression (or pass!) is read with the right
    suspicion, without flaking the job.  Values are compared through
    :func:`_normalize_env_value`, so points written before ``cpu_count``
    became an int (``"1"`` vs ``1``) do not flag a spurious mismatch.
    """
    lines = []
    for key in sorted(set(baseline) | set(current)):
        ours, theirs = current.get(key), baseline.get(key)
        if ours is None or theirs is None:
            continue  # older points predate some keys (start_method)
        if _normalize_env_value(ours) != _normalize_env_value(theirs):
            lines.append(f"{key}: baseline {theirs!r} vs current {ours!r}")
    return lines


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------


def _best_of(workload: Callable[[], object], passes: int = 3) -> float:
    """Fastest wall time over ``passes`` runs of a deterministic workload.

    The minimum is the standard robust estimator for single-shot
    benchmarks: scheduler preemption only ever *adds* time, so the best
    pass is the closest observation of the true cost.  Without it the
    ``--check`` gate flakes on loaded single-core machines.
    """
    best = float("inf")
    for _ in range(max(passes, 1)):
        start = time.perf_counter()
        workload()
        best = min(best, time.perf_counter() - start)
    return best


def _median_latency_s(calls: Sequence[Callable[[], object]], repeats: int) -> float:
    """Median per-call wall time over ``repeats`` passes of ``calls``."""
    for call in calls:  # warm caches and JIT-free numpy paths
        call()
    samples: List[float] = []
    for _ in range(repeats):
        for call in calls:
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def _perf_trials(testbed, n_directions: int, n_sweeps: int, n_probes: int, seed: int):
    """Deterministic M-probe trials recorded in the conference room."""
    from .channel.environment import conference_room
    from .experiments.common import random_subsweep, record_directions

    rng = np.random.default_rng(seed)
    azimuths = np.linspace(-45.0, 45.0, n_directions)
    recordings = record_directions(
        testbed, conference_room(6.0), azimuths, [0.0], n_sweeps, rng
    )
    trials = []
    for recording in recordings:
        for sweep in recording.sweeps:
            measurements = random_subsweep(
                sweep, testbed.tx_sector_ids, n_probes, rng
            )
            if len(measurements) >= 2:
                trials.append(measurements)
    return recordings, trials


def measure_metrics(
    repeats: int = 20,
    n_directions: int = 6,
    n_sweeps: int = 4,
    n_probes: int = 14,
    seed: int = 2017,
) -> Dict[str, float]:
    """Time the hot kernels and return a flat metric dict.

    All workloads are deterministic in ``seed``; the only variance
    between runs is machine noise.
    """
    from .channel.environment import conference_room
    from .core.compressive import CompressiveSectorSelector
    from .core.probes import clear_design_cache
    from .experiments.common import (
        build_testbed,
        pack_probe_trials,
        record_directions,
        testbed_table_cache_info,
    )
    from .runtime.registry import available_probe_designers, build_probe_designer

    testbed = build_testbed()
    metrics: Dict[str, float] = {}

    # -- recording throughput (scalar reference path) ------------------
    azimuths = np.linspace(-45.0, 45.0, n_directions)
    metrics["record_directions_s"] = _best_of(
        lambda: record_directions(
            testbed,
            conference_room(6.0),
            azimuths,
            [0.0],
            n_sweeps,
            np.random.default_rng(seed + 1),
        )
    )

    # -- one-sweep select / estimate latency ---------------------------
    _, trials = _perf_trials(testbed, n_directions, n_sweeps, n_probes, seed)
    selector = CompressiveSectorSelector(testbed.pattern_table)
    metrics["select_scalar_ms_median"] = 1e3 * _median_latency_s(
        [lambda t=t: selector.select(t) for t in trials], repeats
    )
    estimator = selector.estimator
    metrics["estimate_scalar_ms_median"] = 1e3 * _median_latency_s(
        [lambda t=t: estimator.estimate(t) for t in trials], repeats
    )

    # -- selection-kernel throughput -----------------------------------
    batch = pack_probe_trials(trials)
    selector.reset()
    start = time.perf_counter()
    batch_repeats = max(repeats, 1)
    for _ in range(batch_repeats):
        selector.select_batch(*batch)
    elapsed = time.perf_counter() - start
    metrics["select_fused_per_s"] = len(trials) * batch_repeats / elapsed

    # -- probe-design throughput ---------------------------------------
    # Cold-cache design cost: every deterministic designer solves the
    # full pool at two budgets per pass.  The cache is cleared between
    # passes — the steady state is one design per (table, M, params)
    # forever, so the interesting number is how fast a *new* design
    # point is, not the memo hit.
    design_names = [name for name in available_probe_designers() if name != "random"]
    designers = [build_probe_designer(name, testbed.pattern_table) for name in design_names]
    pool = list(testbed.tx_sector_ids)
    design_rng = np.random.default_rng(seed + 5)
    budgets = (8, 20)
    design_passes = 3
    start = time.perf_counter()
    for _ in range(design_passes):
        clear_design_cache()
        for designer in designers:
            for budget in budgets:
                designer.design(budget, pool, design_rng)
    elapsed = time.perf_counter() - start
    clear_design_cache()
    metrics["probe_design_per_s"] = len(designers) * len(budgets) * design_passes / elapsed

    # -- observe kernel throughput -------------------------------------
    model = testbed.measurement_model
    noise_floor = testbed.budget.noise_floor_dbm
    true_snr = np.random.default_rng(seed + 2).uniform(-10.0, 12.0, size=2048)
    scalar_rng = np.random.default_rng(seed + 3)
    start = time.perf_counter()
    for value in true_snr[:512]:
        model.observe(float(value), noise_floor, scalar_rng)
    metrics["observe_scalar_per_s"] = 512 / (time.perf_counter() - start)
    block_rng = np.random.default_rng(seed + 3)
    start = time.perf_counter()
    block_repeats = 20
    for _ in range(block_repeats):
        model.observe_frames(true_snr, noise_floor, block_rng)
    elapsed = time.perf_counter() - start
    metrics["observe_frames_per_s"] = true_snr.size * block_repeats / elapsed

    # -- campaign build (reduced grid, the build_testbed hot path) -----
    from .measurement.campaign import CampaignConfig, PatternMeasurementCampaign

    campaign = PatternMeasurementCampaign(
        testbed.dut_antenna,
        testbed.dut_codebook,
        reference_antenna=testbed.ref_antenna,
        reference_codebook=testbed.ref_codebook,
        budget=testbed.budget,
        measurement_model=testbed.measurement_model,
    )
    config = CampaignConfig(
        azimuths_deg=np.linspace(-90.0, 90.0, 13),
        elevations_deg=(0.0, 16.0, 32.0),
        n_sweeps=1,
    )
    metrics["campaign_build_s"] = _best_of(
        lambda: campaign.run(config, np.random.default_rng(seed + 4))
    )

    # -- testbed disk cache ---------------------------------------------
    info = testbed_table_cache_info()
    if info.get("path") and pathlib.Path(info["path"]).is_file():
        from .measurement.patterns import PatternTable

        start = time.perf_counter()
        PatternTable.load(info["path"])
        metrics["testbed_table_load_s"] = time.perf_counter() - start

    return metrics


# ----------------------------------------------------------------------
# Trajectory file I/O.
# ----------------------------------------------------------------------


def load_trajectory(path) -> Dict:
    """Read a trajectory file, or return an empty skeleton."""
    path = pathlib.Path(path)
    if not path.is_file():
        return {"schema": BENCH_SCHEMA, "points": []}
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise ValueError(f"'{path}' is not a perf trajectory file")
    return data


def _canonical_environment(environment: Mapping[str, object]) -> Dict[str, object]:
    """Environment capture with numeric values stored as numbers.

    Early trajectory points serialized ``cpu_count`` as the string
    ``"1"`` (the capture went through a formatting helper); later
    producers write the int.  Consumers tolerate both via
    :func:`_normalize_env_value`, but every *write* canonicalizes so the
    committed file converges on one representation instead of carrying
    the accident forward forever.  Version strings ("3.11.9") stay
    strings — only clean integers are converted.
    """
    canonical: Dict[str, object] = {}
    for key, value in environment.items():
        if isinstance(value, str):
            text = value.strip()
            if text.lstrip("+-").isdigit():
                value = int(text)
        canonical[key] = value
    return canonical


def append_point(path, point: PerfPoint) -> Dict:
    """Append one datapoint and rewrite the trajectory atomically.

    Rewriting is also when historical points get their environment
    values canonicalized (see :func:`_canonical_environment`), so one
    append migrates the whole file.
    """
    path = pathlib.Path(path)
    data = load_trajectory(path)
    data["schema"] = BENCH_SCHEMA
    data["points"].append(point.to_json())
    for entry in data["points"]:
        if isinstance(entry, dict) and isinstance(entry.get("environment"), dict):
            entry["environment"] = _canonical_environment(entry["environment"])
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return data


def _baseline_point(data: Dict) -> Optional[PerfPoint]:
    """The committed reference point: first labeled 'baseline', else first."""
    points = [PerfPoint.from_json(p) for p in data.get("points", [])]
    if not points:
        return None
    for point in points:
        if point.label == "baseline":
            return point
    return points[0]


def check_against_baseline(
    data: Dict, metrics: Dict[str, float], factor: float = REGRESSION_FACTOR
) -> List[str]:
    """Latency regressions (> ``factor``×) vs. the baseline point.

    Returns human-readable failure lines; empty means the check passed.
    Metrics missing on either side are skipped — the baseline predates
    some kernels (e.g. the batched engine) — but a gated metric that is
    present and not finite fails: NaN compares false against any limit.
    """
    baseline = _baseline_point(data)
    if baseline is None:
        return ["no baseline point in trajectory (run 'repro-bench perf' first)"]
    failures = [
        f"{name}: {metrics[name]!r} is not a finite measurement"
        for name in _LATENCY_METRICS + _THROUGHPUT_METRICS
        if name in metrics and not math.isfinite(metrics[name])
    ]
    for name in _LATENCY_METRICS:
        reference = baseline.metrics.get(name)
        current = metrics.get(name)
        if reference is None or current is None or reference <= 0:
            continue
        if current > factor * reference:
            failures.append(
                f"{name}: {current:.4g} vs baseline {reference:.4g} "
                f"(>{factor:.1f}x regression)"
            )
    points = [PerfPoint.from_json(p) for p in data.get("points", [])]
    for name in _THROUGHPUT_METRICS:
        # The 'baseline' point predates the newer kernels, so each
        # throughput metric gates against the most recent committed
        # point that recorded it.
        reference = next(
            (
                p.metrics[name]
                for p in reversed(points)
                if p.metrics.get(name, 0) > 0
            ),
            None,
        )
        current = metrics.get(name)
        if reference is None or current is None:
            continue
        if current < reference / factor:
            failures.append(
                f"{name}: {current:.4g} vs committed {reference:.4g} "
                f"(<1/{factor:.1f}x throughput)"
            )
    return failures


def run_perf(
    label: str = "dev",
    output: Optional[str] = None,
    check: bool = False,
    repeats: int = 20,
) -> int:
    """Measure, report, and append to or regression-check a trajectory.

    Without ``check`` a point is appended only to a file ``output``
    names, so measuring never rewrites the committed trajectory; with
    ``check`` the baseline comes from ``output``, else
    :data:`DEFAULT_TRAJECTORY`.  Returns a process exit code (nonzero =
    regression detected).
    """
    metrics = measure_metrics(repeats=repeats)
    print("perf: hot-kernel trajectory point")
    for name in sorted(metrics):
        print(f"  {name:28s} {metrics[name]:12.5g}")

    status = 0
    if check:
        data = load_trajectory(output or DEFAULT_TRAJECTORY)
        baseline = _baseline_point(data)
        if baseline is not None:
            for line in environment_mismatches(baseline.environment, _environment()):
                print(f"warning: environment mismatch - {line}", file=sys.stderr)
        failures = check_against_baseline(data, metrics)
        if failures:
            status = 1
            for line in failures:
                print(f"REGRESSION: {line}", file=sys.stderr)
        else:
            print("check: no latency regression vs committed baseline")
    elif output:
        point = PerfPoint(
            label=label,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            metrics=metrics,
            environment=_environment(),
        )
        append_point(output, point)
        print(f"appended trajectory point '{label}' to {output}")
    return status
