"""Ablations of the design choices DESIGN.md calls out.

Each study isolates one decision the paper makes (or argues against)
and quantifies its effect with everything else held fixed:

* **fusion** — Eq. 3 (SNR only) vs. Eq. 5 (SNR×RSSI product), §5;
* **patterns** — measured patterns vs. the ideal-array theoretical
  prediction, §2.2 ("instead of … theoretical beam patterns based on
  geometrical antenna layouts, we use … measured patterns");
* **probe sets** — random subsets vs. §7's gain-diverse pre-selection;
* **3D** — full spherical search vs. azimuth-only 2D estimation, §2.1
  ("predicting paths only in a two dimensional environment is
  insufficient");
* **random beams** — probing with the codebook's tuned sectors vs.
  pseudo-random beams (Rasekh et al.), §2.1's preliminary experiment.

The first four each flip one knob of the ``"css"`` policy, so they are
rows of one table, :data:`_KNOB_ABLATIONS`, served by one executor: a
baseline plus one variant per knob value, planned from the scenario's
generator in table order and run through
:meth:`~repro.runtime.runner.ScenarioRunner.execute_each` as one
supervised, journaled batch.  The remaining studies keep their own
bodies (their draws interleave with per-frame ``observe`` calls, which
is exactly the stream their pinned values ride on) but still run as
registered scenarios so they emit manifests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.random_beams import random_beam_codebook, theoretical_pattern_table
from ..channel.batch import sweep_snr_matrix
from ..channel.environment import conference_room, lab_environment
from ..core.estimator import AngleEstimator
from ..core.measurements import ProbeMeasurement
from ..geometry.angles import azimuth_difference
from ..geometry.rotation import Orientation
from ..runtime.registry import register_scenario
from ..runtime.runner import ScenarioRunner
from ..runtime.spec import PolicySpec, ScenarioSpec
from .common import (
    Testbed,
    estimate_errors,
    observe_probes,
    pack_probe_trials,
    random_subsweep,
    record_directions,
    snr_losses,
)

__all__ = [
    "AblationResult",
    "run_fusion_ablation",
    "run_pattern_ablation",
    "run_probe_set_ablation",
    "run_3d_ablation",
    "run_random_beam_ablation",
    "run_adaptive_ablation",
    "run_oob_prior_ablation",
    "run_refinement_ablation",
]

#: a knob ablation's M or seed; None takes its table row's default.
_Int = Optional[int]


@dataclass
class AblationResult:
    """Named variants → metric values, with a one-line conclusion."""

    title: str
    metric_name: str
    variants: Dict[str, float] = field(default_factory=dict)

    def best_variant(self, lower_is_better: bool = True) -> str:
        chooser = min if lower_is_better else max
        return chooser(self.variants, key=self.variants.get)

    def format_rows(self) -> List[str]:
        rows = [f"ablation: {self.title} ({self.metric_name})"]
        for name, value in self.variants.items():
            rows.append(f"  {name:28s} {value:8.3f}")
        return rows


def _conference_recordings(testbed: Testbed, rng: np.random.Generator, n_sweeps: int = 4):
    azimuths = np.arange(-60.0, 60.0 + 1e-9, 7.5)
    return record_directions(
        testbed, conference_room(6.0), azimuths, [0.0], n_sweeps, rng
    )


def _tilted_lab_recordings(testbed: Testbed, rng: np.random.Generator):
    # The device is tilted (elevation 12–24°): a selector that assumes
    # everything happens in the azimuth plane picks worse sectors.
    azimuths = np.arange(-45.0, 45.0 + 1e-9, 7.5)
    return record_directions(
        testbed, lab_environment(3.0), azimuths, [12.0, 24.0], 3, rng
    )


_AZIMUTH_ERROR = "mean azimuth error [deg]"
_SNR_LOSS = "mean SNR loss [dB]"

#: metric name → per-row values of one variant's records.
_METRICS: Dict[str, Callable] = {
    _AZIMUTH_ERROR: lambda records, recordings, _: estimate_errors(records, recordings)[0],
    _SNR_LOSS: snr_losses,
}


@dataclass(frozen=True)
class _KnobAblation:
    """One scenario of the ``css`` baseline with one knob flipped.

    ``knob`` is a ``css`` kwarg, or ``"probe_design"`` for the policy's
    designer block; ``variants`` are its ``(label, value)`` pairs in
    run and print order.  ``one_block`` threads selection state through
    every trial, as a loop that never reset its selector did.
    """

    question: str
    seed: int
    n_probes: int
    title: str
    metric: str
    recordings: Callable[[Testbed, np.random.Generator], Sequence]
    subsamples: int
    one_block: bool
    knob: str
    variants: Tuple[Tuple[str, str], ...]

    def policy_spec(self, value: str, n_probes: int) -> PolicySpec:
        if self.knob == "probe_design":
            return PolicySpec("css", {"n_probes": n_probes}, probe_design={"designer": value})
        return PolicySpec("css", {"n_probes": n_probes, self.knob: value})


_KNOB_ABLATIONS: Dict[str, _KnobAblation] = {
    "ablate-fusion": _KnobAblation(
        "Eq. 3 vs Eq. 5: does the SNR×RSSI product help against outliers?",
        seed=21, n_probes=14, title="correlation fusion @ {} probes",
        metric=_AZIMUTH_ERROR, recordings=_conference_recordings,
        subsamples=3, one_block=False, knob="fusion",
        variants=(("fusion=snr", "snr"), ("fusion=rssi", "rssi"),
                  ("fusion=product", "product")),
    ),
    "ablate-patterns": _KnobAblation(
        "Measured patterns vs. the ideal-array theoretical prediction.",
        seed=22, n_probes=14, title="pattern knowledge @ {} probes",
        metric=_AZIMUTH_ERROR, recordings=_conference_recordings,
        subsamples=3, one_block=False, knob="patterns",
        variants=(("measured patterns", "measured"),
                  ("theoretical patterns", "theoretical")),
    ),
    "ablate-probe-set": _KnobAblation(
        "Random probe subsets vs. §7's gain-diverse pre-selection.",
        seed=23, n_probes=10, title="probe-set strategy @ {} probes",
        metric=_AZIMUTH_ERROR, recordings=_conference_recordings,
        subsamples=1, one_block=False, knob="probe_design",
        variants=(("random subsets", "random"),
                  ("gain-diverse (greedy)", "gain-diverse")),
    ),
    "ablate-3d": _KnobAblation(
        "Full 3D estimation vs. azimuth-only search on a tilted link.",
        seed=24, n_probes=14, title="3D vs 2D estimation @ {} probes, tilted device",
        metric=_SNR_LOSS, recordings=_tilted_lab_recordings,
        subsamples=1, one_block=True, knob="search",
        variants=(("3D search grid", "3d"), ("2D (azimuth-only) grid", "2d")),
    ),
}


def _ablation_spec(scenario: str, n_probes: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        scenario=scenario, seed=seed, params={"n_probes": int(n_probes)}
    )


def _run_knob_ablation(spec: ScenarioSpec, runner: ScenarioRunner) -> AblationResult:
    """One variant per knob value, run through ``execute_each`` as one batch."""
    row = _KNOB_ABLATIONS[spec.scenario]
    n_probes = int(spec.params["n_probes"])
    testbed = spec.testbed.build()
    context = runner.context(testbed)
    tx_ids = testbed.tx_sector_ids
    rng = np.random.default_rng(spec.seed)
    recordings = row.recordings(testbed, rng)

    def calls():
        # A variant is planned when the runner pulls it, so the probe
        # draws stay in table order (selection consumes no rng).
        for _, value in row.variants:
            policy_spec = row.policy_spec(value, n_probes)
            policy = runner.build_policy(policy_spec, context)
            plan = runner.plan_trials(
                policy, recordings, tx_ids, rng, subsamples_per_sweep=row.subsamples
            )
            blocks = plan.as_one_block() if row.one_block else plan
            yield policy, blocks, policy_spec, spec.testbed

    score = _METRICS[row.metric]
    result = AblationResult(title=row.title.format(n_probes), metric_name=row.metric)
    for (label, _), records in zip(row.variants, runner.execute_each(calls())):
        result.variants[label] = float(np.mean(score(records, recordings, tx_ids)))
    return result


def _register_knob_ablation(scenario: str):
    """Register a knob ablation; return its public spec builder and
    in-process runner, whose M and seed default to its table row."""
    row = _KNOB_ABLATIONS[scenario]

    def spec(n_probes: _Int = None, seed: _Int = None) -> ScenarioSpec:
        return _ablation_spec(
            scenario,
            row.n_probes if n_probes is None else n_probes,
            row.seed if seed is None else seed,
        )

    def run(n_probes: _Int = None, seed: _Int = None) -> AblationResult:
        return ScenarioRunner().run(spec(n_probes, seed)).result

    register_scenario(scenario, default_spec=spec, description=row.question)(
        _run_knob_ablation
    )
    run.__doc__ = row.question
    return spec, run


fusion_ablation_spec, run_fusion_ablation = _register_knob_ablation("ablate-fusion")
pattern_ablation_spec, run_pattern_ablation = _register_knob_ablation("ablate-patterns")
probe_set_ablation_spec, run_probe_set_ablation = _register_knob_ablation(
    "ablate-probe-set"
)
ablation_3d_spec, run_3d_ablation = _register_knob_ablation("ablate-3d")


def random_beam_ablation_spec(n_probes: int = 14, seed: int = 25) -> ScenarioSpec:
    return _ablation_spec("ablate-random-beams", n_probes, seed)


@register_scenario("ablate-random-beams", default_spec=random_beam_ablation_spec)
def _run_random_beam_scenario(
    spec: ScenarioSpec, runner: ScenarioRunner
) -> AblationResult:
    """Tuned codebook sectors vs. pseudo-random probing beams.

    Reproduces the paper's preliminary finding (§2.1): random phase
    settings forgo beamforming gain — the best achievable link SNR
    collapses, "severely limiting the communication range" — and the
    theoretical patterns they must be correlated against do not match
    the impaired hardware, degrading the angle estimates.
    """
    n_probes = int(spec.params["n_probes"])
    testbed = spec.testbed.build()
    rng = np.random.default_rng(spec.seed)
    environment = conference_room(6.0)
    azimuths = np.arange(-45.0, 45.0 + 1e-9, 15.0)
    orientations = [Orientation(yaw_deg=-float(az)) for az in azimuths]

    random_codebook = random_beam_codebook(testbed.dut_antenna, 29, rng)
    random_ids = random_codebook.tx_sector_ids
    random_truth = sweep_snr_matrix(
        environment,
        testbed.dut_antenna,
        random_codebook,
        random_ids,
        orientations,
        testbed.ref_antenna,
        testbed.ref_codebook.rx_sector.weights,
        budget=testbed.budget,
    )
    sector_recordings = record_directions(testbed, environment, azimuths, [0.0], 4, rng)

    # Metric 1: best-beam SNR — the link the connection actually rides.
    sector_best = [recording.optimal_snr_db() for recording in sector_recordings]
    random_best = list(np.max(random_truth, axis=1))

    # Metric 2: azimuth estimation error.  Random beams are correlated
    # against their *theoretical* (ideal-array) patterns — a designer
    # has nothing else — while the sectors are the css baseline, with
    # the measured table.
    sector_spec = PolicySpec("css", {"n_probes": n_probes})
    sector_policy = runner.build_policy(sector_spec, runner.context(testbed))
    sector_records = runner.execute(
        sector_policy,
        runner.plan_trials(sector_policy, sector_recordings, testbed.tx_sector_ids, rng),
        policy_spec=sector_spec,
        testbed_spec=spec.testbed,
    )
    sector_errors = estimate_errors(sector_records, sector_recordings)[0]

    theoretical = theoretical_pattern_table(
        random_codebook, testbed.pattern_table.grid, antenna=testbed.dut_antenna
    )
    # Each trial's probe draw (`rng.choice`) precedes its sweep's
    # reports, so the trials stay one report block each; only the
    # estimates are batched (bit-identical).
    random_estimator = AngleEstimator(theoretical)
    noise_floor = testbed.budget.noise_floor_dbm
    random_trials: List[List[ProbeMeasurement]] = []
    random_truth_azimuths: List[float] = []
    for row, orientation in enumerate(orientations):
        for _ in range(4):
            chosen = rng.choice(len(random_ids), size=n_probes, replace=False)
            random_trials.append(
                observe_probes(
                    testbed.measurement_model,
                    random_truth[row, chosen],
                    [random_ids[index] for index in chosen],
                    noise_floor,
                    rng,
                )
            )
            random_truth_azimuths.append(float(azimuths[row]))
    random_estimates = random_estimator.estimate_batch(*pack_probe_trials(random_trials))
    random_errors = [
        abs(azimuth_difference(estimate.azimuth_deg, truth))
        for estimate, truth in zip(random_estimates, random_truth_azimuths)
        if estimate is not None
    ]

    result = AblationResult(
        title=f"probing beams @ {n_probes} probes (conference room)",
        metric_name="best-beam SNR [dB] / mean azimuth error [deg]",
    )
    result.variants["sectors: best-beam SNR"] = float(np.mean(sector_best))
    result.variants["random beams: best-beam SNR"] = float(np.mean(random_best))
    result.variants["sectors: az error"] = float(np.mean(sector_errors))
    result.variants["random beams: az error"] = float(np.mean(random_errors))
    return result


def run_random_beam_ablation(n_probes: int = 14, seed: int = 25) -> AblationResult:
    """Tuned codebook sectors vs. pseudo-random probing beams."""
    return ScenarioRunner().run(random_beam_ablation_spec(n_probes, seed)).result


def adaptive_ablation_spec(seed: int = 26, n_steps: int = 60) -> ScenarioSpec:
    return ScenarioSpec(
        scenario="ablate-adaptive", seed=seed, params={"n_steps": int(n_steps)}
    )


@register_scenario("ablate-adaptive", default_spec=adaptive_ablation_spec)
def _run_adaptive_scenario(spec: ScenarioSpec, runner: ScenarioRunner) -> AblationResult:
    """Fixed probe budgets vs. the §7 adaptive controller under mobility.

    A lab peer holds still, walks an arc, then holds still again.  The
    adaptive controller should spend close-to-minimum probes during the
    static phases while keeping the SNR loss near the always-maximum
    budget — the airtime/quality trade §7 predicts.
    """
    from ..core.adaptive import AdaptiveProbeController
    from ..core.compressive import CompressiveSectorSelector
    from ..core.tracking import SectorTracker

    seed = spec.seed
    n_steps = int(spec.params["n_steps"])
    testbed = spec.testbed.build()
    environment = lab_environment(3.0)
    tx_ids = testbed.tx_sector_ids
    model = testbed.measurement_model
    noise_floor = testbed.budget.noise_floor_dbm

    hold = n_steps // 3

    def azimuth_at(step: int) -> float:
        if step < hold:
            return -30.0
        if step < 2 * hold:
            return -30.0 + 60.0 * (step - hold) / hold
        return 30.0

    def run_variant(adaptive, n_probes, rng):
        tracker = SectorTracker(
            CompressiveSectorSelector(testbed.pattern_table),
            n_probes=n_probes,
            adaptive=adaptive,
        )
        truth_holder = {}

        def measure(sector_ids, generator):
            truth = truth_holder["snr"]
            return observe_probes(
                model,
                truth[[tx_ids.index(sector_id) for sector_id in sector_ids]],
                sector_ids,
                noise_floor,
                generator,
            )

        losses = []
        for step in range(n_steps):
            orientation = Orientation(yaw_deg=-azimuth_at(step))
            truth_holder["snr"] = sweep_snr_matrix(
                environment,
                testbed.dut_antenna,
                testbed.dut_codebook,
                tx_ids,
                [orientation],
                testbed.ref_antenna,
                testbed.ref_codebook.rx_sector.weights,
                budget=testbed.budget,
            )[0]
            outcome = tracker.step(measure, rng)
            truth = truth_holder["snr"]
            losses.append(
                float(truth.max() - truth[tx_ids.index(outcome.result.sector_id)])
            )
        return tracker.total_training_time_us / 1000.0, float(np.mean(losses))

    result = AblationResult(
        title="adaptive probe budget under mobility",
        metric_name="training airtime [ms] / mean SNR loss [dB]",
    )
    for name, adaptive, budget in (
        ("fixed 24 probes", None, 24),
        ("fixed 10 probes", None, 10),
        ("adaptive 10..24", AdaptiveProbeController(min_probes=10, max_probes=24), 24),
    ):
        airtime_ms, loss_db = run_variant(adaptive, budget, np.random.default_rng(seed))
        result.variants[f"{name}: airtime"] = airtime_ms
        result.variants[f"{name}: loss"] = loss_db
    return result


def run_adaptive_ablation(seed: int = 26, n_steps: int = 60) -> AblationResult:
    """Fixed probe budgets vs. the §7 adaptive controller under mobility."""
    return ScenarioRunner().run(adaptive_ablation_spec(seed, n_steps)).result


def oob_prior_ablation_spec(seed: int = 27, sigma_oob_deg: float = 8.0) -> ScenarioSpec:
    return ScenarioSpec(
        scenario="ablate-oob-prior",
        seed=seed,
        params={"sigma_oob_deg": float(sigma_oob_deg)},
    )


@register_scenario("ablate-oob-prior", default_spec=oob_prior_ablation_spec)
def _run_oob_prior_scenario(spec: ScenarioSpec, runner: ScenarioRunner) -> AblationResult:
    """Out-of-band direction prior (Nitsche / Ali, §8) at tiny budgets.

    A coarse 2.4 GHz angle estimate (±``sigma_oob_deg``) weights the
    correlation map.  Plain CSS struggles below ~8 probes; the prior
    rescues exactly that regime.
    """
    from ..core.oob import OutOfBandPrior, PriorAidedEstimator

    sigma_oob_deg = float(spec.params["sigma_oob_deg"])
    testbed = spec.testbed.build()
    rng = np.random.default_rng(spec.seed)
    recordings = _conference_recordings(testbed, rng)
    estimator = PriorAidedEstimator(AngleEstimator(testbed.pattern_table))
    tx_ids = testbed.tx_sector_ids

    result = AblationResult(
        title=f"out-of-band prior (sigma {sigma_oob_deg:.0f} deg legacy estimate)",
        metric_name="mean azimuth error [deg]",
    )
    for n_probes in (4, 6, 10):
        for use_prior in (False, True):
            errors: List[float] = []
            for recording in recordings:
                prior = None
                if use_prior:
                    prior = OutOfBandPrior(
                        azimuth_deg=recording.azimuth_deg
                        + rng.normal(0.0, sigma_oob_deg),
                        sigma_deg=2.0 * sigma_oob_deg,
                    )
                for sweep in recording.sweeps:
                    measurements = random_subsweep(sweep, tx_ids, n_probes, rng)
                    if len(measurements) < 2:
                        continue
                    estimate = estimator.estimate(measurements, prior=prior)
                    errors.append(
                        abs(
                            azimuth_difference(
                                estimate.azimuth_deg, recording.azimuth_deg
                            )
                        )
                    )
            label = f"M={n_probes} {'with prior' if use_prior else 'no prior'}"
            result.variants[label] = float(np.mean(errors))
    return result


def run_oob_prior_ablation(seed: int = 27, sigma_oob_deg: float = 8.0) -> AblationResult:
    """Out-of-band direction prior (Nitsche / Ali, §8) at tiny budgets."""
    return ScenarioRunner().run(oob_prior_ablation_spec(seed, sigma_oob_deg)).result


def refinement_ablation_spec(seed: int = 28, n_iterations: int = 12) -> ScenarioSpec:
    return ScenarioSpec(
        scenario="ablate-refinement",
        seed=seed,
        params={"n_iterations": int(n_iterations)},
    )


@register_scenario("ablate-refinement", default_spec=refinement_ablation_spec)
def _run_refinement_scenario(
    spec: ScenarioSpec, runner: ScenarioRunner
) -> AblationResult:
    """BRP-style AWV refinement on top of the selected sector.

    After CSS picks a sector, a short hill-climb over 2-bit AWV tweaks
    recovers part of the gain the imperfect vendor codebook leaves on
    the table — for a fraction of a sweep's airtime.
    """
    from ..channel.link import LinkSimulator
    from ..core.compressive import CompressiveSectorSelector
    from ..core.refinement import BeamRefiner

    n_iterations = int(spec.params["n_iterations"])
    testbed = spec.testbed.build()
    rng = np.random.default_rng(spec.seed)
    environment = conference_room(6.0)
    simulator = LinkSimulator(
        environment, testbed.dut_antenna, testbed.ref_antenna, testbed.budget
    )
    refiner = BeamRefiner(candidates_per_iteration=6)
    recordings = _conference_recordings(testbed, rng, n_sweeps=2)
    selector = CompressiveSectorSelector(testbed.pattern_table)
    tx_ids = testbed.tx_sector_ids

    losses_before: List[float] = []
    losses_after: List[float] = []
    airtimes: List[float] = []
    for recording in recordings[::2]:
        orientation = Orientation(yaw_deg=-recording.azimuth_deg)

        def measure(weights):
            true_snr = simulator.true_snr_db(
                weights,
                testbed.ref_codebook.rx_sector.weights,
                tx_orientation=orientation,
            )
            return true_snr + rng.normal(0.0, 0.3)

        # Start where a 14-probe CSS sweep actually lands (sometimes a
        # dB or two off) — refinement's job is recovering that.
        measurements = random_subsweep(recording.sweeps[0], tx_ids, 14, rng)
        start_id = selector.select(measurements).sector_id
        outcome = refiner.refine(
            testbed.dut_codebook[start_id].weights, measure, rng, n_iterations
        )
        optimal = recording.optimal_snr_db()
        losses_before.append(optimal - outcome.initial_snr_db)
        losses_after.append(optimal - outcome.final_snr_db)
        airtimes.append(outcome.airtime_us)

    result = AblationResult(
        title=f"BRP refinement after CSS-14 ({n_iterations} iterations)",
        metric_name="SNR loss vs oracle [dB] / airtime [us]",
    )
    result.variants["loss before refinement"] = float(np.mean(losses_before))
    result.variants["loss after refinement"] = float(np.mean(losses_after))
    result.variants["mean airtime [us]"] = float(np.mean(airtimes))
    return result


def run_refinement_ablation(seed: int = 28, n_iterations: int = 12) -> AblationResult:
    """BRP-style AWV refinement on top of the selected sector."""
    return ScenarioRunner().run(refinement_ablation_spec(seed, n_iterations)).result
