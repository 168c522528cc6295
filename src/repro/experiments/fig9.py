"""Figure 9: SNR loss vs. number of probing sectors.

For every sweep the loss is the gap between the true SNR of an oracle's
sector (the best achievable) and the true SNR of the sector the
algorithm selected.  The exhaustive sweep sits ~0.5 dB under the
optimum (noise occasionally crowns the wrong sector); compressive
selection starts worse with few probes and crosses below the sweep
around 14, approaching the optimum near 20.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Sequence

import numpy as np

from ..channel.environment import conference_room
from ..runtime.registry import register_scenario
from ..runtime.runner import ScenarioRunner
from ..runtime.spec import PolicySpec, ScenarioSpec
from .common import record_directions, snr_losses

__all__ = ["Fig9Config", "Fig9Result", "run_fig9", "fig9_spec"]


@dataclass(frozen=True)
class Fig9Config:
    seed: int = 9
    probe_counts: Sequence[int] = tuple(range(4, 35, 2))
    azimuth_step_deg: float = 5.0
    n_sweeps: int = 20


@dataclass
class Fig9Result:
    probe_counts: List[int]
    css_loss_db: List[float]
    ssw_loss_db: float

    def css_at(self, n_probes: int) -> float:
        return self.css_loss_db[self.probe_counts.index(n_probes)]

    def crossover_probes(self) -> int:
        """Smallest probe count where CSS loses no more than SSW."""
        for n_probes, loss in zip(self.probe_counts, self.css_loss_db):
            if loss <= self.ssw_loss_db:
                return n_probes
        return self.probe_counts[-1]

    def format_rows(self) -> List[str]:
        rows = [
            "fig9: average SNR loss vs optimal sector (conference room)",
            f"SSW (full sweep): {self.ssw_loss_db:.2f} dB",
            "probes | CSS loss [dB]",
        ]
        for n_probes, loss in zip(self.probe_counts, self.css_loss_db):
            marker = " <- reaches SSW" if n_probes == self.crossover_probes() else ""
            rows.append(f"{n_probes:6d} | {loss:5.2f}{marker}")
        return rows


def fig9_spec(config: Fig9Config = Fig9Config()) -> ScenarioSpec:
    """The declarative form of a Figure 9 run."""
    params = {key: value for key, value in asdict(config).items() if key != "seed"}
    return ScenarioSpec(scenario="fig9", seed=config.seed, params=params)


def _config_from_spec(spec: ScenarioSpec) -> Fig9Config:
    return Fig9Config(seed=spec.seed, **spec.params)


@register_scenario("fig9", default_spec=fig9_spec)
def _run_fig9_scenario(spec: ScenarioSpec, runner: ScenarioRunner) -> Fig9Result:
    """Figure 9: SNR loss vs. probe count in the conference room."""
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
        # SSW first (no randomness consumed), fresh state per recording.
        ssw_spec = PolicySpec("full-sweep", {})
        ssw = runner.build_policy(ssw_spec, context)
        yield ssw, runner.plan_trials(ssw, recordings, tx_ids, rng), ssw_spec, spec.testbed
        for n_probes in config.probe_counts:
            policy_spec = PolicySpec("css", {"n_probes": int(n_probes)})
            policy = runner.build_policy(policy_spec, context)
            blocks = runner.plan_trials(policy, recordings, tx_ids, rng)
            yield policy, blocks, policy_spec, spec.testbed

    ssw_loss_db, *css_loss_db = [
        float(np.mean(snr_losses(records, recordings, tx_ids)))
        for records in runner.execute_each(calls())
    ]

    return Fig9Result(
        probe_counts=list(config.probe_counts),
        css_loss_db=css_loss_db,
        ssw_loss_db=ssw_loss_db,
    )


def run_fig9(config: Fig9Config = Fig9Config(), jobs: int = 1) -> Fig9Result:
    """Run the SNR-loss experiment in the conference room."""
    with ScenarioRunner(jobs=jobs) as runner:
        return runner.run(fig9_spec(config)).result
