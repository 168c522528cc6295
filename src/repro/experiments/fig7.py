"""Figure 7: angular estimation error vs. number of probing sectors.

For the lab (3 m, LOS, azimuth ±60°, tilts up to 30°) and the
conference room (6 m, multipath, azimuth only), the experiment records
full sweeps on a grid of physical directions, then estimates the path
direction from random probe subsets of each sweep and reports the
azimuth and elevation error distributions per probe count.

The trial loop lives in :class:`~repro.runtime.runner.ScenarioRunner`;
this module only declares the scenario (spec builder + executor) and
post-processes the per-trial records into the figure's box statistics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Sequence

import numpy as np

from ..channel.environment import conference_room, lab_environment
from ..runtime.registry import register_scenario
from ..runtime.runner import ScenarioRunner, TrialRecords
from ..runtime.spec import PolicySpec, ScenarioSpec
from .common import BoxStats, estimate_errors, record_directions

__all__ = [
    "Fig7Config",
    "Fig7Result",
    "run_fig7",
    "fig7_spec",
    "EstimationErrorSeries",
]


@dataclass(frozen=True)
class Fig7Config:
    """Experiment resolution knobs (paper defaults are finer).

    The paper scans ±60° azimuth at 2.25° (lab) / 1.3° (conference) and
    tilts the lab head 0–30° in 2° steps; the defaults below keep the
    same coverage at a coarser pitch so the experiment runs in seconds.
    """

    seed: int = 7
    probe_counts: Sequence[int] = tuple(range(4, 35, 2))
    lab_azimuth_step_deg: float = 7.5
    lab_elevation_step_deg: float = 6.0
    lab_max_elevation_deg: float = 30.0
    conference_azimuth_step_deg: float = 4.0
    n_sweeps: int = 2
    subsamples_per_sweep: int = 2


@dataclass
class EstimationErrorSeries:
    """Error distributions per probe count for one environment."""

    environment_name: str
    probe_counts: List[int] = field(default_factory=list)
    azimuth_stats: List[BoxStats] = field(default_factory=list)
    elevation_stats: List[BoxStats] = field(default_factory=list)

    def azimuth_median(self, n_probes: int) -> float:
        return self.azimuth_stats[self.probe_counts.index(n_probes)].median

    def elevation_median(self, n_probes: int) -> float:
        return self.elevation_stats[self.probe_counts.index(n_probes)].median


@dataclass
class Fig7Result:
    lab: EstimationErrorSeries
    conference: EstimationErrorSeries

    def format_rows(self) -> List[str]:
        rows = ["fig7: angular estimation error (median [p99.5])"]
        for series in (self.lab, self.conference):
            rows.append(f"-- {series.environment_name} --")
            rows.append("probes | az err (deg)      | el err (deg)")
            for index, n_probes in enumerate(series.probe_counts):
                az = series.azimuth_stats[index]
                el = series.elevation_stats[index]
                rows.append(
                    f"{n_probes:6d} | {az.median:5.1f} [{az.whisker_high:5.1f}] | "
                    f"{el.median:5.1f} [{el.whisker_high:5.1f}]"
                )
        return rows


def fig7_spec(config: Fig7Config = Fig7Config()) -> ScenarioSpec:
    """The declarative form of a Figure 7 run."""
    params = {key: value for key, value in asdict(config).items() if key != "seed"}
    return ScenarioSpec(scenario="fig7", seed=config.seed, params=params)


def _config_from_spec(spec: ScenarioSpec) -> Fig7Config:
    return Fig7Config(seed=spec.seed, **spec.params)


def record_environments(testbed, config, rng: np.random.Generator):
    """Yield ``(name, recordings)`` for the lab, then the conference room.

    Lazy: the conference room is recorded only when the caller moves on
    to it, so planning the lab's calls in between keeps the draw order
    of one environment after the other.  ``config`` is a
    :class:`Fig7Config` or any config with its grid fields.
    """
    azimuths = np.arange(-60.0, 60.0 + 1e-9, config.lab_azimuth_step_deg)
    elevations = np.arange(
        0.0, config.lab_max_elevation_deg + 1e-9, config.lab_elevation_step_deg
    )
    yield "lab", record_directions(
        testbed, lab_environment(3.0), azimuths, elevations, config.n_sweeps, rng
    )
    azimuths = np.arange(-60.0, 60.0 + 1e-9, config.conference_azimuth_step_deg)
    yield "conference-room", record_directions(
        testbed, conference_room(6.0), azimuths, [0.0], config.n_sweeps, rng
    )


def _summarize(
    series: EstimationErrorSeries, recordings, n_probes: int, records: TrialRecords
) -> None:
    # Rows that fell back (fewer than two reported probes) carry no
    # estimate — the trials the scalar loop skipped.
    azimuth_errors, elevation_errors = estimate_errors(records, recordings)
    series.probe_counts.append(n_probes)
    series.azimuth_stats.append(BoxStats.from_samples(azimuth_errors))
    series.elevation_stats.append(BoxStats.from_samples(elevation_errors))


@register_scenario("fig7", default_spec=fig7_spec)
def _run_fig7_scenario(spec: ScenarioSpec, runner: ScenarioRunner) -> Fig7Result:
    """Figure 7: angular estimation error vs. probe count.

    The runner replays the paper's offline emulation: one probe draw
    per recording × sweep × subsample in scalar order, one padded batch
    per recording, estimates bit-identical to the scalar path.  Calls
    are planned lazily, in the draw order of one environment after the
    other — record the lab, plan its probe counts, record the
    conference room, plan its probe counts — while earlier calls run.
    """
    config = _config_from_spec(spec)
    testbed = spec.testbed.build()
    context = runner.context(testbed)
    tx_ids = testbed.tx_sector_ids
    rng = np.random.default_rng(config.seed)
    series: List[EstimationErrorSeries] = []
    grid = []  # (series, recordings, n_probes) of every planned call

    def calls():
        for name, recordings in record_environments(testbed, config, rng):
            series.append(EstimationErrorSeries(environment_name=name))
            for n_probes in config.probe_counts:
                policy_spec = PolicySpec("css", {"n_probes": int(n_probes)})
                policy = runner.build_policy(policy_spec, context)
                blocks = runner.plan_trials(
                    policy,
                    recordings,
                    tx_ids,
                    rng,
                    subsamples_per_sweep=config.subsamples_per_sweep,
                )
                grid.append((series[-1], recordings, n_probes))
                yield policy, blocks, policy_spec, spec.testbed

    for index, records in enumerate(runner.execute_each(calls())):
        _summarize(*grid[index], records)
    lab, conference = series
    return Fig7Result(lab=lab, conference=conference)


def run_fig7(config: Fig7Config = Fig7Config(), jobs: int = 1) -> Fig7Result:
    """Run the full Figure 7 experiment (both environments)."""
    with ScenarioRunner(jobs=jobs) as runner:
        return runner.run(fig7_spec(config)).result
