"""Performance-trajectory harness for the estimation hot paths.

The paper's headline is *speed* — compressive selection beats the
exhaustive sweep because the math is cheap (§6.4) — so this repo
tracks the latency of its own hot kernels over time.  ``repro-bench
perf`` times four workloads:

* one-sweep ``CompressiveSectorSelector.select`` and
  ``AngleEstimator.estimate`` latency (M=14 probes on the default 91×9
  search grid — one-row calls of the selection kernel),
* the selection kernel's throughput (``select_fused_per_s``, the name
  it carries across the trajectory) over the same trials as one batch,
* a reduced chamber campaign build (the ``build_testbed`` hot path),
* ``record_directions`` recording throughput, plus the vectorized
  ``MeasurementModel.observe_batch`` kernel.

Later layers add their own points when present: the scenario engine
measured at ``jobs=1`` vs ``jobs=4`` against persistent warm runners —
the sharded executor keeps its fork pool and published shared-memory
kernels alive between runs, so the timed passes see the steady state
the service sees, and ``--check`` gates the jobs4/jobs1 ratio at 1.0
(noise-widened): sharded execution must never lose to serial.

Each run appends one machine-readable *trajectory point* to a JSON
file (``BENCH_core.json`` at the repo root by convention), so the
history of every optimization PR stays diffable.  ``repro-bench perf
--check`` compares the current latencies against the committed
baseline point and exits nonzero on a >2× regression — the guard CI
runs.
"""

from __future__ import annotations

import json
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
    "OBS_OVERHEAD_LIMIT_PCT",
    "PARALLEL_RATIO_LIMIT",
    "PROFILE_OVERHEAD_LIMIT_PCT",
    "REGRESSION_FACTOR",
    "SUPERVISION_OVERHEAD_LIMIT_PCT",
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

#: ``--check`` fails when the supervised runner costs more than this
#: over the unsupervised path (absolute gate, not vs. baseline).
SUPERVISION_OVERHEAD_LIMIT_PCT = 5.0

#: ``--check`` fails when an in-memory-traced run costs more than this
#: over the untraced default.  Untraced instrumentation is a no-op
#: dispatch (one global read per site), so the traced-vs-untraced delta
#: bounds the *whole* observability layer from above: if even recording
#: fits the budget, the disabled path certainly does.
OBS_OVERHEAD_LIMIT_PCT = 3.0

#: ``--check`` fails when a run under the sampling profiler costs more
#: than this over the unprofiled default.  The profiler fires a SIGPROF
#: every 5ms of *CPU* time and walks the interrupted stack, so its cost
#: scales with sampling rate, not workload size; this gate keeps
#: "profile always on" a defensible production posture.
PROFILE_OVERHEAD_LIMIT_PCT = 5.0

#: ``--check`` fails when the jobs=4 scenario pass is slower than the
#: jobs=1 pass by more than the observed measurement noise.  The
#: sharded executor amortizes kernel publication and stacks chunk
#: evaluation precisely so that ``--jobs 4`` never loses to serial;
#: a ratio above 1.0 (noise-widened) means that invariant broke.
PARALLEL_RATIO_LIMIT = 1.0

#: Latency metrics (lower is better) compared by ``--check``.
_LATENCY_METRICS = (
    "select_scalar_ms_median",
    "estimate_scalar_ms_median",
    "record_directions_s",
    "campaign_build_s",
    "scenario_fig7_fig9_jobs1_s",
)

#: Throughput metrics (higher is better) compared by ``--check`` — a
#: drop below baseline / ``REGRESSION_FACTOR`` fails the gate.
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
    from . import obs as _obs_module
    from .channel.environment import conference_room
    from .core.compressive import CompressiveSectorSelector
    from .core.probes import clear_design_cache
    from .experiments.common import (
        build_testbed,
        pack_probe_trials,
        record_directions,
        testbed_table_cache_info,
    )
    from .experiments.fig7 import Fig7Config, fig7_spec
    from .experiments.fig9 import Fig9Config, fig9_spec
    from .obs import profile as _profile_module
    from .runtime import FaultPlan, RetryPolicy, ScenarioRunner
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
    batch_rng = np.random.default_rng(seed + 3)
    start = time.perf_counter()
    batch_repeats = 20
    for _ in range(batch_repeats):
        model.observe_batch(true_snr, noise_floor, batch_rng)
    elapsed = time.perf_counter() - start
    metrics["observe_batch_per_s"] = true_snr.size * batch_repeats / elapsed

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

    # -- scenario engine wall time -------------------------------------
    scenario_specs = (
        fig7_spec(
            Fig7Config(
                probe_counts=(8, 20),
                lab_azimuth_step_deg=10.0,
                lab_elevation_step_deg=15.0,
                conference_azimuth_step_deg=10.0,
                n_sweeps=1,
                subsamples_per_sweep=1,
            )
        ),
        fig9_spec(Fig9Config(probe_counts=(6, 14), azimuth_step_deg=10.0, n_sweeps=6)),
    )
    # One persistent runner per jobs level: the sharded executor
    # keeps its fork pool and published shared-memory kernels warm
    # between runs (the service's steady state), so a fresh runner
    # per pass would charge pool spawn + kernel publication to
    # jobs=4 only.  A throwaway warm-up pass per level pays those
    # one-time costs off the clock, then the timed passes
    # interleave the levels so machine drift hits both alike, with
    # best-of across passes and the observed spread recorded for
    # the noise-widened --check gate.
    levels = ((1, "scenario_fig7_fig9_jobs1_s"), (4, "scenario_fig7_fig9_jobs4_s"))
    runners = {name: ScenarioRunner(jobs=jobs) for jobs, name in levels}
    level_times: Dict[str, List[float]] = {name: [] for _, name in levels}
    try:
        for _, name in levels:
            for scenario_spec in scenario_specs:
                runners[name].run(scenario_spec)
        for _ in range(3):
            for _, name in levels:
                start = time.perf_counter()
                for scenario_spec in scenario_specs:
                    runners[name].run(scenario_spec)
                level_times[name].append(time.perf_counter() - start)
    finally:
        for scenario_runner in runners.values():
            scenario_runner.close()
    for _, name in levels:
        metrics[name] = float(min(level_times[name]))
    jobs1 = metrics["scenario_fig7_fig9_jobs1_s"]
    jobs4 = metrics["scenario_fig7_fig9_jobs4_s"]
    metrics["scenario_jobs4_over_jobs1_ratio"] = jobs4 / jobs1
    metrics["scenario_jobs_noise_pct"] = (
        100.0
        * float(
            np.ptp(level_times["scenario_fig7_fig9_jobs1_s"])
            + np.ptp(level_times["scenario_fig7_fig9_jobs4_s"])
        )
        / jobs1
    )

    # -- supervision overhead -------------------------------------------
    # One small fig9 spec for the supervision, observability and
    # profiler overheads below.
    overhead_spec = fig9_spec(
        Fig9Config(probe_counts=(6, 14), azimuth_step_deg=20.0, n_sweeps=6)
    )

    def _run_plain():
        # The shared baseline: no supervision, tracing or profiling.
        with ScenarioRunner(jobs=1) as runner:
            runner.run(overhead_spec)

    def _run_supervised():
        # Full supervision machinery engaged — retry accounting,
        # an (empty) injector consulted per dispatch — minus any
        # actual fault, so the delta is pure bookkeeping overhead.
        with ScenarioRunner(
            jobs=1,
            retry=RetryPolicy(max_attempts=3, timeout_s=60.0),
            faults=FaultPlan(),
        ) as runner:
            runner.run(overhead_spec)

    # Interleave the two workloads so slow drift on a shared runner
    # (thermal throttling, a noisy neighbour arriving mid-measure)
    # hits both sides alike, take medians rather than single best
    # passes, and record the observed run-to-run spread so the
    # --check gate can widen itself on noisy machines instead of
    # flaking on a small absolute threshold.
    unsupervised_times: List[float] = []
    supervised_times: List[float] = []
    for _ in range(5):
        start = time.perf_counter()
        _run_plain()
        unsupervised_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        _run_supervised()
        supervised_times.append(time.perf_counter() - start)
    unsupervised = float(np.median(unsupervised_times))
    supervised = float(np.median(supervised_times))
    metrics["runner_unsupervised_s"] = unsupervised
    metrics["runner_supervised_s"] = supervised
    metrics["runner_supervision_overhead_pct"] = (
        100.0 * (supervised - unsupervised) / unsupervised
    )
    metrics["runner_supervision_noise_pct"] = (
        100.0
        * float(np.ptp(unsupervised_times) + np.ptp(supervised_times))
        / unsupervised
    )

    # -- observability overhead -----------------------------------------
    def _run_traced():
        # Full recording engaged — every span opened, every counter
        # bumped, the rollup computed — but in memory only, so the
        # delta is the cost of the observability layer itself, not
        # of file I/O.
        with ScenarioRunner(jobs=1, obs=_obs_module.ObsSession()) as runner:
            runner.run(overhead_spec)

    # Same interleaved-medians discipline as the supervision
    # overhead above: drift hits both sides alike, and the observed
    # spread widens the --check gate on noisy machines.
    untraced_times: List[float] = []
    traced_times: List[float] = []
    for _ in range(5):
        start = time.perf_counter()
        _run_plain()
        untraced_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        _run_traced()
        traced_times.append(time.perf_counter() - start)
    untraced = float(np.median(untraced_times))
    traced = float(np.median(traced_times))
    metrics["runner_untraced_s"] = untraced
    metrics["runner_traced_s"] = traced
    metrics["runner_obs_overhead_pct"] = 100.0 * (traced - untraced) / untraced
    metrics["runner_obs_noise_pct"] = (
        100.0 * float(np.ptp(untraced_times) + np.ptp(traced_times)) / untraced
    )

    # -- sampling-profiler overhead -------------------------------------
    def _run_profiled():
        # The profiler is armed exactly as `run --profile-sampling`
        # arms it — SIGPROF at the default interval, every sample
        # walking the live stacks — so the delta is the cost a user
        # pays for leaving continuous profiling on.
        _profile_module.start_profiling()
        try:
            with ScenarioRunner(jobs=1) as runner:
                runner.run(overhead_spec)
        finally:
            _profile_module.stop_profiling()

    # Same interleaved-medians discipline as the supervision and
    # observability overheads above.
    unprofiled_times: List[float] = []
    profiled_times: List[float] = []
    for _ in range(5):
        start = time.perf_counter()
        _run_plain()
        unprofiled_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        _run_profiled()
        profiled_times.append(time.perf_counter() - start)
    unprofiled = float(np.median(unprofiled_times))
    profiled = float(np.median(profiled_times))
    metrics["runner_unprofiled_s"] = unprofiled
    metrics["runner_profiled_s"] = profiled
    metrics["runner_profile_overhead_pct"] = (
        100.0 * (profiled - unprofiled) / unprofiled
    )
    metrics["runner_profile_noise_pct"] = (
        100.0
        * float(np.ptp(unprofiled_times) + np.ptp(profiled_times))
        / unprofiled
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
    some kernels (e.g. the batched engine).
    """
    baseline = _baseline_point(data)
    if baseline is None:
        return ["no baseline point in trajectory (run 'repro-bench perf' first)"]
    failures = []
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
    overhead = metrics.get("runner_supervision_overhead_pct")
    if overhead is not None:
        # The 5% budget is small relative to wall-clock jitter on
        # shared CI runners, so the gate widens by the spread the
        # measurement itself observed: a real regression clears the
        # noise floor, a noisy machine does not flake the job.
        noise = max(0.0, float(metrics.get("runner_supervision_noise_pct", 0.0)))
        if overhead > SUPERVISION_OVERHEAD_LIMIT_PCT + noise:
            failures.append(
                f"runner_supervision_overhead_pct: {overhead:.2f}% "
                f"(limit {SUPERVISION_OVERHEAD_LIMIT_PCT:.0f}% over unsupervised "
                f"+ {noise:.2f}% observed measurement noise)"
            )
    obs_overhead = metrics.get("runner_obs_overhead_pct")
    if obs_overhead is not None:
        noise = max(0.0, float(metrics.get("runner_obs_noise_pct", 0.0)))
        if obs_overhead > OBS_OVERHEAD_LIMIT_PCT + noise:
            failures.append(
                f"runner_obs_overhead_pct: {obs_overhead:.2f}% "
                f"(limit {OBS_OVERHEAD_LIMIT_PCT:.0f}% over untraced "
                f"+ {noise:.2f}% observed measurement noise)"
            )
    profile_overhead = metrics.get("runner_profile_overhead_pct")
    if profile_overhead is not None:
        noise = max(0.0, float(metrics.get("runner_profile_noise_pct", 0.0)))
        if profile_overhead > PROFILE_OVERHEAD_LIMIT_PCT + noise:
            failures.append(
                f"runner_profile_overhead_pct: {profile_overhead:.2f}% "
                f"(limit {PROFILE_OVERHEAD_LIMIT_PCT:.0f}% over unprofiled "
                f"+ {noise:.2f}% observed measurement noise)"
            )
    ratio = metrics.get("scenario_jobs4_over_jobs1_ratio")
    if ratio is not None:
        # Same noise-widening discipline as the overhead gates: the
        # invariant is jobs4 <= jobs1, but both sides are wall-clock on
        # a possibly-shared machine, so the gate admits the spread the
        # interleaved measurement itself observed.
        noise = max(0.0, float(metrics.get("scenario_jobs_noise_pct", 0.0)))
        if ratio > PARALLEL_RATIO_LIMIT + noise / 100.0:
            failures.append(
                f"scenario_jobs4_over_jobs1_ratio: {ratio:.3f} "
                f"(sharded jobs=4 lost to serial; limit "
                f"{PARALLEL_RATIO_LIMIT:.2f} + {noise:.2f}% observed noise)"
            )
    return failures


def run_perf(
    label: str = "dev",
    output: Optional[str] = DEFAULT_TRAJECTORY,
    check: bool = False,
    repeats: int = 20,
) -> int:
    """Measure, report, optionally append and/or regression-check.

    Returns a process exit code (nonzero = regression detected).
    """
    metrics = measure_metrics(repeats=repeats)
    print("perf: hot-kernel trajectory point")
    for name in sorted(metrics):
        print(f"  {name:28s} {metrics[name]:12.5g}")

    status = 0
    if check:
        data = load_trajectory(output) if output else {"points": []}
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
