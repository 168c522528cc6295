"""Figure 11: TCP goodput of CSS (14 probes) vs. the full sweep.

With the rotation head steered to −45°, 0° and +45° in the conference
room, each training interval selects a sector (CSS with 14 random
probes, or the exhaustive sweep) and the link then carries TCP traffic
on it.  The paper measures 1.48–1.51 Gbps for CSS, slightly above the
sweep — the stability gain showing up as goodput.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Sequence

import numpy as np

from ..channel.environment import conference_room
from ..link.throughput import ThroughputModel
from ..mac.timing import N_FULL_SWEEP_SECTORS
from ..runtime.registry import register_scenario
from ..runtime.runner import ScenarioRunner, TrialRecords
from ..runtime.spec import PolicySpec, ScenarioSpec
from .common import record_directions, selected_snr_db

__all__ = ["Fig11Config", "Fig11Result", "run_fig11", "fig11_spec"]


@dataclass(frozen=True)
class Fig11Config:
    seed: int = 11
    directions_deg: Sequence[float] = (-45.0, 0.0, 45.0)
    n_probes: int = 14
    n_intervals: int = 40


@dataclass
class Fig11Result:
    directions_deg: List[float]
    css_gbps: List[float]
    ssw_gbps: List[float]
    n_probes: int

    def format_rows(self) -> List[str]:
        rows = [
            f"fig11: expected TCP goodput, CSS ({self.n_probes} probes) vs SSW",
            "direction | CSS [Gbps] | SSW [Gbps]",
        ]
        for direction, css, ssw in zip(self.directions_deg, self.css_gbps, self.ssw_gbps):
            rows.append(f"{direction:8.0f}° | {css:10.3f} | {ssw:10.3f}")
        return rows


def fig11_spec(config: Fig11Config = Fig11Config()) -> ScenarioSpec:
    """The declarative form of a Figure 11 run."""
    params = {key: value for key, value in asdict(config).items() if key != "seed"}
    return ScenarioSpec(scenario="fig11", seed=config.seed, params=params)


def _config_from_spec(spec: ScenarioSpec) -> Fig11Config:
    return Fig11Config(seed=spec.seed, **spec.params)


def goodputs(
    model: ThroughputModel,
    records: TrialRecords,
    recordings,
    tx_ids: Sequence[int],
    n_probes: int,
) -> List[float]:
    """Each recording's expected goodput over its trials' selections."""
    delivered = selected_snr_db(records, recordings, tx_ids)
    sector = records.sector
    return [
        model.expected_goodput_gbps(
            list(delivered[rows]), n_probes, sector[rows].tolist()
        )
        for rows in records.by_recording(len(recordings))
    ]


@register_scenario("fig11", default_spec=fig11_spec)
def _run_fig11_scenario(spec: ScenarioSpec, runner: ScenarioRunner) -> Fig11Result:
    """Figure 11: expected TCP goodput at three path directions."""
    config = _config_from_spec(spec)
    testbed = spec.testbed.build()
    context = runner.context(testbed)
    rng = np.random.default_rng(config.seed)
    recordings = record_directions(
        testbed,
        conference_room(6.0),
        list(config.directions_deg),
        [0.0],
        config.n_intervals,
        rng,
    )
    tx_ids = testbed.tx_sector_ids
    model = ThroughputModel()

    # The legacy loop interleaved the CSS draw and the SSW argmax per
    # sweep; only the CSS draw touches the rng, so planning CSS first
    # and replaying SSW afterwards consumes the identical stream.
    css_spec = PolicySpec("css", {"n_probes": int(config.n_probes)})
    css = runner.build_policy(css_spec, context)
    css_records = runner.execute(
        css,
        runner.plan_trials(css, recordings, tx_ids, rng),
        policy_spec=css_spec,
        testbed_spec=spec.testbed,
    )
    ssw_spec = PolicySpec("full-sweep", {})
    ssw = runner.build_policy(ssw_spec, context)
    ssw_records = runner.execute(
        ssw,
        runner.plan_trials(ssw, recordings, tx_ids, rng),
        policy_spec=ssw_spec,
        testbed_spec=spec.testbed,
    )

    return Fig11Result(
        directions_deg=list(config.directions_deg),
        css_gbps=goodputs(model, css_records, recordings, tx_ids, config.n_probes),
        ssw_gbps=goodputs(
            model, ssw_records, recordings, tx_ids, N_FULL_SWEEP_SECTORS
        ),
        n_probes=config.n_probes,
    )


def run_fig11(config: Fig11Config = Fig11Config(), jobs: int = 1) -> Fig11Result:
    """Run the throughput comparison at the three path directions."""
    with ScenarioRunner(jobs=jobs) as runner:
        return runner.run(fig11_spec(config)).result
