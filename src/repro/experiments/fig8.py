"""Figure 8: selection stability vs. number of probing sectors.

Stability is the share of sweeps that yield the direction's most
frequent ("modal") sector — the fraction of time spent in one sector.
The paper finds the exhaustive sweep stuck at 73.9 % (outliers keep
flipping its argmax between near-equal sectors) while compressive
selection crosses it around 13 probes and reaches ~95 % with all 34.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import List, Sequence

import numpy as np

from ..channel.environment import conference_room
from ..runtime.registry import register_scenario
from ..runtime.runner import ScenarioRunner, TrialRecords
from ..runtime.spec import PolicySpec, ScenarioSpec
from .common import modal_counts, record_directions

__all__ = [
    "Fig8Config",
    "Fig8Result",
    "run_fig8",
    "fig8_spec",
    "stability_of_selections",
]


@dataclass(frozen=True)
class Fig8Config:
    seed: int = 8
    probe_counts: Sequence[int] = tuple(range(4, 35, 2))
    azimuth_step_deg: float = 5.0
    n_sweeps: int = 30


@dataclass
class Fig8Result:
    probe_counts: List[int]
    css_stability: List[float]
    ssw_stability: float

    def css_at(self, n_probes: int) -> float:
        return self.css_stability[self.probe_counts.index(n_probes)]

    def crossover_probes(self) -> int:
        """Smallest probe count where CSS beats the sweep's stability."""
        for n_probes, stability in zip(self.probe_counts, self.css_stability):
            if stability > self.ssw_stability:
                return n_probes
        return self.probe_counts[-1]

    def format_rows(self) -> List[str]:
        rows = [
            "fig8: selection stability (conference room)",
            f"SSW (full sweep): {self.ssw_stability:.3f}",
            "probes | CSS stability",
        ]
        for n_probes, stability in zip(self.probe_counts, self.css_stability):
            marker = " <- crosses SSW" if n_probes == self.crossover_probes() else ""
            rows.append(f"{n_probes:6d} | {stability:.3f}{marker}")
        return rows


def stability_of_selections(selections: Sequence[int]) -> float:
    """Share of the modal selection (time spent in one sector)."""
    if not selections:
        raise ValueError("need at least one selection")
    counts = Counter(selections)
    return counts.most_common(1)[0][1] / len(selections)


def stability(records: TrialRecords, n_recordings: int) -> float:
    """Mean over recordings of :func:`stability_of_selections`."""
    modal, sizes = modal_counts(records, n_recordings)
    if not sizes.all():
        raise ValueError("need at least one selection")
    return float(np.mean(modal / sizes))


def fig8_spec(config: Fig8Config = Fig8Config()) -> ScenarioSpec:
    """The declarative form of a Figure 8 run."""
    params = {key: value for key, value in asdict(config).items() if key != "seed"}
    return ScenarioSpec(scenario="fig8", seed=config.seed, params=params)


def _config_from_spec(spec: ScenarioSpec) -> Fig8Config:
    return Fig8Config(seed=spec.seed, **spec.params)


@register_scenario("fig8", default_spec=fig8_spec)
def _run_fig8_scenario(spec: ScenarioSpec, runner: ScenarioRunner) -> Fig8Result:
    """Figure 8: selection stability in the conference room."""
    config = _config_from_spec(spec)
    testbed = spec.testbed.build()
    context = runner.context(testbed)
    rng = np.random.default_rng(config.seed)
    azimuths = np.arange(-60.0, 60.0 + 1e-9, config.azimuth_step_deg)
    recordings = record_directions(
        testbed, conference_room(6.0), azimuths, [0.0], config.n_sweeps, rng
    )
    tx_ids = testbed.tx_sector_ids

    def calls():
        # SSW: full-sweep argmax per recorded sweep.  The policy consumes
        # no randomness, so planning it before the CSS draws leaves the
        # pinned stream untouched.
        ssw_spec = PolicySpec("full-sweep", {})
        ssw = runner.build_policy(ssw_spec, context)
        yield ssw, runner.plan_trials(ssw, recordings, tx_ids, rng), ssw_spec, spec.testbed
        # CSS: per probe count, one probe draw per recording × sweep and
        # a per-recording state reset — the legacy fresh-selector loop.
        for n_probes in config.probe_counts:
            policy_spec = PolicySpec("css", {"n_probes": int(n_probes)})
            policy = runner.build_policy(policy_spec, context)
            blocks = runner.plan_trials(policy, recordings, tx_ids, rng)
            yield policy, blocks, policy_spec, spec.testbed

    ssw_stability, *css_stability = [
        stability(records, len(recordings)) for records in runner.execute_each(calls())
    ]

    return Fig8Result(
        probe_counts=list(config.probe_counts),
        css_stability=css_stability,
        ssw_stability=ssw_stability,
    )


def run_fig8(config: Fig8Config = Fig8Config(), jobs: int = 1) -> Fig8Result:
    """Run the stability experiment in the conference room."""
    with ScenarioRunner(jobs=jobs) as runner:
        return runner.run(fig8_spec(config)).result
