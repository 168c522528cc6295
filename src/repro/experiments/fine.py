"""Extension experiment: more sectors without more probes (§7).

"With our approach we could significantly increase the number of
available sectors while keeping the number of probes as low as in the
current sweep.  As a result, more precise beam patterns could be
efficiently selected without adding additional training time
overhead."

The experiment equips the device with a 63-sector fine codebook (the
SSW field's 6-bit maximum), measures its patterns in the chamber, and
compares in the conference room:

* stock codebook + full sweep (34 probes, 1.27 ms),
* fine codebook + full sweep (63 probes, 2.32 ms — the §7 problem),
* fine codebook + CSS with 14 probes (0.55 ms — the §7 solution).

Metric: true SNR delivered by the selected sector, and the training
time paid for it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List

import numpy as np

from ..channel.batch import sweep_snr_matrix
from ..channel.environment import conference_room
from ..core.compressive import CompressiveSectorSelector
from ..core.measurements import ProbeMeasurement
from ..core.selector import SectorSweepSelector
from ..geometry.rotation import Orientation
from ..mac.timing import mutual_training_time_us
from ..measurement.campaign import CampaignConfig, PatternMeasurementCampaign
from ..phased_array.talon import fine_codebook, probing_sector_ids
from ..runtime.registry import register_scenario
from ..runtime.runner import ScenarioRunner
from ..runtime.spec import ScenarioSpec
from .common import Testbed, build_testbed

__all__ = ["FineCodebookConfig", "FineCodebookResult", "run_fine_codebook", "fine_spec"]


@dataclass(frozen=True)
class FineCodebookConfig:
    seed: int = 19
    n_probes: int = 14
    azimuths_deg: tuple = tuple(np.arange(-60.0, 61.0, 7.5))
    n_sweeps: int = 8


@dataclass
class FineCodebookResult:
    mean_snr_db: Dict[str, float]
    training_time_ms: Dict[str, float]
    optimal_stock_db: float
    optimal_fine_db: float

    def format_rows(self) -> List[str]:
        rows = [
            "fine codebook (extension): more sectors, same probes (§7)",
            f"oracle: stock codebook {self.optimal_stock_db:.2f} dB, "
            f"fine codebook {self.optimal_fine_db:.2f} dB",
            "strategy                    | mean SNR [dB] | training [ms]",
        ]
        for name in self.mean_snr_db:
            rows.append(
                f"{name:27s} | {self.mean_snr_db[name]:13.2f} | "
                f"{self.training_time_ms[name]:12.3f}"
            )
        return rows


def fine_spec(config: FineCodebookConfig = FineCodebookConfig()) -> ScenarioSpec:
    """The declarative form of a fine-codebook run."""
    params = {key: value for key, value in asdict(config).items() if key != "seed"}
    params["azimuths_deg"] = [float(az) for az in params["azimuths_deg"]]
    return ScenarioSpec(scenario="fine", seed=config.seed, params=params)


def _config_from_spec(spec: ScenarioSpec) -> FineCodebookConfig:
    params = dict(spec.params)
    params["azimuths_deg"] = tuple(params["azimuths_deg"])
    return FineCodebookConfig(seed=spec.seed, **params)


@register_scenario("fine", default_spec=fine_spec)
def _run_fine_scenario(spec: ScenarioSpec, runner: ScenarioRunner) -> FineCodebookResult:
    """Fine codebook (§7): more sectors under sweep vs. compressive training.

    The whole run's frames, every sweep of all three strategies, are
    one report block; the scenario wrapper adds the manifest and the
    CLI entry point.
    """
    config = _config_from_spec(spec)
    testbed = spec.testbed.build()
    rng = np.random.default_rng(config.seed)

    fine = fine_codebook(testbed.dut_antenna)
    fine_ids = fine.tx_sector_ids

    # Chamber campaign for the fine codebook (the stock table is in the
    # testbed already).  Same resolution as the testbed's table.
    campaign = PatternMeasurementCampaign(
        testbed.dut_antenna,
        fine,
        reference_antenna=testbed.ref_antenna,
        reference_codebook=testbed.ref_codebook,
        measurement_model=testbed.measurement_model,
    )
    grid = testbed.pattern_table.grid
    fine_table = campaign.run(
        CampaignConfig(
            azimuths_deg=grid.azimuths_deg, elevations_deg=grid.elevations_deg, n_sweeps=3
        ),
        rng,
    )

    environment = conference_room(6.0)
    orientations = [Orientation(yaw_deg=-float(az)) for az in config.azimuths_deg]
    stock_truth = sweep_snr_matrix(
        environment,
        testbed.dut_antenna,
        testbed.dut_codebook,
        testbed.tx_sector_ids,
        orientations,
        testbed.ref_antenna,
        testbed.ref_codebook.rx_sector.weights,
        budget=testbed.budget,
    )
    fine_truth = sweep_snr_matrix(
        environment,
        testbed.dut_antenna,
        fine,
        fine_ids,
        orientations,
        testbed.ref_antenna,
        testbed.ref_codebook.rx_sector.weights,
        budget=testbed.budget,
    )

    # CSS probes the codebook's dedicated broad probing sectors and
    # selects among *all* 63 (the paper's N >> M).
    probing_ids = probing_sector_ids(fine)
    n_probes = min(config.n_probes, len(probing_ids))
    probe_ids = probing_ids[:n_probes]
    stock_ids = testbed.tx_sector_ids
    probe_columns = [fine_ids.index(sector_id) for sector_id in probe_ids]
    # name: (selector, probed ids, their true SNRs, scored truth and ids)
    strategies = {
        "stock + SSW (34 probes)": (
            SectorSweepSelector(), stock_ids, stock_truth, stock_truth, stock_ids
        ),
        "fine + SSW (63 probes)": (
            SectorSweepSelector(), fine_ids, fine_truth, fine_truth, fine_ids
        ),
        f"fine + CSS ({config.n_probes} probes)": (
            CompressiveSectorSelector(fine_table),
            probe_ids,
            fine_truth[:, probe_columns],
            fine_truth,
            fine_ids,
        ),
    }

    # Each sweep probes the three strategies' frames back to back and
    # the selectors draw nothing, so the whole run is one report block.
    frames = np.repeat(
        np.hstack([probed for _, _, probed, _, _ in strategies.values()]),
        config.n_sweeps,
        axis=0,
    )
    reports = testbed.measurement_model.observe_sweeps(
        frames, testbed.budget.noise_floor_dbm, rng
    )
    snr_sink: Dict[str, List[float]] = {name: [] for name in strategies}
    for sweep in range(frames.shape[0]):
        reported = reports.reported[sweep].tolist()
        snr_db = reports.snr_db[sweep].tolist()
        rssi_dbm = reports.rssi_dbm[sweep].tolist()
        row_index = sweep // config.n_sweeps
        column = 0
        for name, (selector, sector_ids, _, truth, scored_ids) in strategies.items():
            measurements = [
                ProbeMeasurement(sector_id, snr_db[at], rssi_dbm[at])
                for at, sector_id in enumerate(sector_ids, start=column)
                if reported[at]
            ]
            column += len(sector_ids)
            chosen = selector.select(measurements).sector_id
            snr_sink[name].append(float(truth[row_index, scored_ids.index(chosen)]))

    return FineCodebookResult(
        mean_snr_db={name: float(np.mean(values)) for name, values in snr_sink.items()},
        training_time_ms={
            "stock + SSW (34 probes)": mutual_training_time_us(34) / 1000.0,
            "fine + SSW (63 probes)": mutual_training_time_us(63) / 1000.0,
            f"fine + CSS ({config.n_probes} probes)": mutual_training_time_us(
                config.n_probes
            )
            / 1000.0,
        },
        optimal_stock_db=float(np.mean(stock_truth.max(axis=1))),
        optimal_fine_db=float(np.mean(fine_truth.max(axis=1))),
    )


def run_fine_codebook(config: FineCodebookConfig = FineCodebookConfig()) -> FineCodebookResult:
    """Compare stock/fine codebooks under sweep and compressive training."""
    return ScenarioRunner().run(fine_spec(config)).result
