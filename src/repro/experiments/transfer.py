"""Extension experiment: cross-device pattern transfer (§4.5 caveat).

"Our measurements capture the radiation characteristics for one
particular device.  Although we have confirmed that different devices
exhibit similar patterns with slight variations, other Talon AD7200
devices might behave differently."

This experiment quantifies that caveat: a *second* device (same
codebook design, different per-element hardware flaws) runs CSS in the
conference room using (a) its **own** chamber-measured patterns and
(b) the patterns measured on the **first** device.  The gap tells a
practitioner whether one lab campaign can serve a whole fleet.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, List

import numpy as np

from ..channel.environment import conference_room
from ..core.policy import CompressivePolicy
from ..measurement.campaign import CampaignConfig, PatternMeasurementCampaign
from ..phased_array.array import PhasedArray
from ..phased_array.talon import talon_codebook
from ..runtime.registry import register_scenario
from ..runtime.runner import ScenarioRunner
from ..runtime.spec import ScenarioSpec
from .common import estimate_errors, record_directions, snr_losses

__all__ = ["TransferConfig", "TransferResult", "run_pattern_transfer", "transfer_spec"]


@dataclass(frozen=True)
class TransferConfig:
    seed: int = 29
    second_device_seed: int = 4242
    n_probes: int = 14
    azimuth_step_deg: float = 10.0
    n_sweeps: int = 6


@dataclass
class TransferResult:
    azimuth_error_deg: Dict[str, float]
    snr_loss_db: Dict[str, float]

    def format_rows(self) -> List[str]:
        rows = [
            "pattern transfer (extension): whose table does device B use?",
            "table source        | az err [deg] | SNR loss [dB]",
        ]
        for name in self.azimuth_error_deg:
            rows.append(
                f"{name:19s} | {self.azimuth_error_deg[name]:12.2f} | "
                f"{self.snr_loss_db[name]:13.2f}"
            )
        return rows


def transfer_spec(config: TransferConfig = TransferConfig()) -> ScenarioSpec:
    """The declarative form of a pattern-transfer run."""
    params = {key: value for key, value in asdict(config).items() if key != "seed"}
    return ScenarioSpec(scenario="transfer", seed=config.seed, params=params)


def _config_from_spec(spec: ScenarioSpec) -> TransferConfig:
    return TransferConfig(seed=spec.seed, **spec.params)


@register_scenario("transfer", default_spec=transfer_spec)
def _run_transfer_scenario(spec: ScenarioSpec, runner: ScenarioRunner) -> TransferResult:
    """Cross-device pattern transfer: own vs. foreign chamber table."""
    config = _config_from_spec(spec)
    testbed = spec.testbed.build()
    rng = np.random.default_rng(config.seed)

    # Device B: identical codebook design, different hardware flaws.
    device_b = PhasedArray.talon(np.random.default_rng(config.second_device_seed))
    codebook_b = talon_codebook(device_b)
    campaign = PatternMeasurementCampaign(
        device_b,
        codebook_b,
        reference_antenna=testbed.ref_antenna,
        reference_codebook=testbed.ref_codebook,
        measurement_model=testbed.measurement_model,
    )
    grid = testbed.pattern_table.grid
    own_table = campaign.run(
        CampaignConfig(
            azimuths_deg=grid.azimuths_deg,
            elevations_deg=grid.elevations_deg,
            n_sweeps=3,
        ),
        rng,
    )

    # Record sweeps with device B on the rotation head.
    testbed_b = replace(testbed, dut_antenna=device_b, dut_codebook=codebook_b)
    azimuths = np.arange(-60.0, 60.0 + 1e-9, config.azimuth_step_deg)
    recordings = record_directions(
        testbed_b, conference_room(6.0), azimuths, [0.0], config.n_sweeps, rng
    )
    tx_ids = codebook_b.tx_sector_ids

    # Paired comparison: both tables judge the *same* probe draws, so
    # the plan is drawn once (scalar order) and each policy replays it
    # in sequence.  Live pattern tables are not spec-serializable, so
    # the policies are built directly — one block keeps each one's
    # state threading through all trials like the one-big-batch loop.
    context = runner.context(testbed_b)
    policies = {
        "own (device B)": CompressivePolicy(
            context, n_probes=config.n_probes, pattern_table=own_table
        ),
        "foreign (device A)": CompressivePolicy(
            context, n_probes=config.n_probes, pattern_table=testbed.pattern_table
        ),
    }
    blocks = runner.plan_trials(
        next(iter(policies.values())), recordings, tx_ids, rng
    ).as_one_block()
    errors: Dict[str, np.ndarray] = {}
    losses: Dict[str, np.ndarray] = {}
    for name, policy in policies.items():
        records = runner.execute(policy, blocks, label=name)
        errors[name], _ = estimate_errors(records, recordings)
        losses[name] = snr_losses(records, recordings, tx_ids)

    return TransferResult(
        azimuth_error_deg={name: float(np.mean(errors[name])) for name in policies},
        snr_loss_db={name: float(np.mean(losses[name])) for name in policies},
    )


def run_pattern_transfer(config: TransferConfig = TransferConfig()) -> TransferResult:
    """Evaluate CSS on a second device with own vs. foreign patterns."""
    return ScenarioRunner().run(transfer_spec(config)).result
