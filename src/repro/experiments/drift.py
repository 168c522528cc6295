"""Extension experiment: pattern aging (hardware drift over time).

The chamber campaign happens once; the device then lives for years.
Temperature, mechanical stress and component aging slowly shift the
per-element phases, so the table describes a device that no longer
quite exists.  This experiment ages the hardware by a growing phase
drift and measures how gracefully CSS degrades with the stale table —
and when a re-calibration pays off.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import List, Sequence

import numpy as np

from ..channel.environment import conference_room
from ..phased_array.array import PhasedArray
from ..phased_array.impairments import HardwareImpairments
from ..runtime.registry import register_scenario
from ..runtime.runner import ScenarioRunner
from ..runtime.spec import PolicySpec, ScenarioSpec
from .common import record_directions, snr_losses

__all__ = ["DriftConfig", "DriftResult", "run_pattern_drift", "drift_spec"]


@dataclass(frozen=True)
class DriftConfig:
    seed: int = 37
    n_probes: int = 14
    drift_levels_rad: Sequence[float] = (0.0, 0.1, 0.2, 0.4, 0.8)
    azimuth_step_deg: float = 12.0
    n_sweeps: int = 5


@dataclass
class DriftResult:
    drift_levels_rad: List[float]
    snr_loss_db: List[float]
    fallback_rate: List[float]

    def format_rows(self) -> List[str]:
        rows = [
            "pattern aging (extension): CSS with a stale chamber table",
            "phase drift [rad] | SNR loss [dB] | fallback rate",
        ]
        for level, loss, fallback in zip(
            self.drift_levels_rad, self.snr_loss_db, self.fallback_rate
        ):
            rows.append(f"{level:17.2f} | {loss:13.2f} | {fallback:13.2f}")
        return rows


def _aged_antenna(
    antenna: PhasedArray, drift_rad: float, rng: np.random.Generator
) -> PhasedArray:
    """The same device after its element phases drifted."""
    impairments = antenna.impairments
    aged = HardwareImpairments(
        phase_error_rad=impairments.phase_error_rad
        + rng.normal(0.0, drift_rad, size=impairments.n_elements),
        gain_error_db=impairments.gain_error_db,
        element_failed=impairments.element_failed,
        blockage=impairments.blockage,
    )
    return PhasedArray(
        layout=antenna.layout,
        impairments=aged,
        element_exponent=antenna.element_exponent,
        element_peak_gain_db=antenna.element_peak_gain_db,
    )


def drift_spec(config: DriftConfig = DriftConfig()) -> ScenarioSpec:
    """The declarative form of a pattern-aging run."""
    params = {key: value for key, value in asdict(config).items() if key != "seed"}
    return ScenarioSpec(scenario="drift", seed=config.seed, params=params)


def _config_from_spec(spec: ScenarioSpec) -> DriftConfig:
    return DriftConfig(seed=spec.seed, **spec.params)


@register_scenario("drift", default_spec=drift_spec)
def _run_drift_scenario(spec: ScenarioSpec, runner: ScenarioRunner) -> DriftResult:
    """Pattern aging: CSS quality as the hardware drifts off its table."""
    config = _config_from_spec(spec)
    testbed = spec.testbed.build()
    context = runner.context(testbed)
    rng = np.random.default_rng(config.seed)
    azimuths = np.arange(-60.0, 60.0 + 1e-9, config.azimuth_step_deg)
    tx_ids = testbed.tx_sector_ids

    # One policy over the *original* table; each level's plan runs as
    # one block, which reproduces the fresh-selector state per level
    # while the state threads through that level's trials in order.
    policy_spec = PolicySpec("css", {"n_probes": int(config.n_probes)})
    policy = runner.build_policy(policy_spec, context)

    losses: List[float] = []
    fallbacks: List[float] = []
    for drift in config.drift_levels_rad:
        aged = _aged_antenna(testbed.dut_antenna, float(drift), rng)
        aged_testbed = replace(testbed, dut_antenna=aged)
        recordings = record_directions(
            aged_testbed, conference_room(6.0), azimuths, [0.0], config.n_sweeps, rng
        )
        records = runner.execute(
            policy, runner.plan_trials(policy, recordings, tx_ids, rng).as_one_block()
        )
        losses.append(float(np.mean(snr_losses(records, recordings, tx_ids))))
        fallbacks.append(int(records.fallback.sum()) / max(len(records), 1))

    return DriftResult(
        drift_levels_rad=list(config.drift_levels_rad),
        snr_loss_db=losses,
        fallback_rate=fallbacks,
    )


def run_pattern_drift(config: DriftConfig = DriftConfig()) -> DriftResult:
    """Age the hardware and keep selecting with the original table."""
    return ScenarioRunner().run(drift_spec(config)).result
