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

    The draws interleave with per-frame ``observe`` calls across three
    strategies, so the trial loop stays scalar; the scenario wrapper
    adds the manifest and the CLI entry point.
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

    def observe(truth_row, sector_ids, all_ids):
        reports = testbed.measurement_model.observe_frames(
            truth_row[[all_ids.index(sector_id) for sector_id in sector_ids]],
            testbed.budget.noise_floor_dbm,
            rng,
        )
        return [
            ProbeMeasurement(sector_id, snr, rssi)
            for sector_id, reported, snr, rssi in zip(
                sector_ids,
                reports.reported.tolist(),
                reports.snr_db.tolist(),
                reports.rssi_dbm.tolist(),
            )
            if reported
        ]

    # CSS probes the codebook's dedicated broad probing sectors and
    # selects among *all* 63 (the paper's N >> M).
    probe_pool = probing_sector_ids(fine)
    n_probes = min(config.n_probes, len(probe_pool))
    snr_sink: Dict[str, List[float]] = {
        "stock + SSW (34 probes)": [],
        "fine + SSW (63 probes)": [],
        f"fine + CSS ({config.n_probes} probes)": [],
    }
    stock_ssw = SectorSweepSelector()
    fine_ssw = SectorSweepSelector()
    fine_css = CompressiveSectorSelector(fine_table)

    for row_index in range(len(orientations)):
        for _ in range(config.n_sweeps):
            stock_row = stock_truth[row_index]
            fine_row = fine_truth[row_index]

            chosen = stock_ssw.select(
                observe(stock_row, testbed.tx_sector_ids, testbed.tx_sector_ids)
            ).sector_id
            snr_sink["stock + SSW (34 probes)"].append(
                float(stock_row[testbed.tx_sector_ids.index(chosen)])
            )

            chosen = fine_ssw.select(observe(fine_row, fine_ids, fine_ids)).sector_id
            snr_sink["fine + SSW (63 probes)"].append(
                float(fine_row[fine_ids.index(chosen)])
            )

            probe_ids = probe_pool[:n_probes]
            chosen = fine_css.select(observe(fine_row, probe_ids, fine_ids)).sector_id
            snr_sink[f"fine + CSS ({config.n_probes} probes)"].append(
                float(fine_row[fine_ids.index(chosen)])
            )

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
