"""Extension experiment: blockage recovery with fast re-training.

Not a paper figure — this quantifies the §7 argument that a 2.3×
shorter sweep lets nodes re-train more often.  A person walks through
the LOS of a 6 m conference-room link; during the outage the link must
fall back to a reflected path.  We compare how much SNR each strategy
delivers over the blockage timeline when re-training is only allowed
every ``k`` intervals (the training budget a dense network imposes):

* **SSW** re-trains every 2nd interval (its sweeps cost 1.27 ms);
* **CSS-14** re-trains every interval at the *same* airtime budget
  (0.55 ms per sweep — the speed-up converted into agility);
* **CSS adaptive + standby** re-trains every interval with the §7
  controller (10–34 probes: cheap while the link is healthy, full
  coverage while estimates fail under deep blockage) and additionally
  switches to a precomputed backup-path sector the moment the primary
  collapses, without waiting for the next training slot.

The deep-blockage phase is where exhaustive coverage genuinely helps —
with every frontal sector crushed by 22 dB only a handful of
reflection-pointing sectors remain decodable, and 14 random probes may
miss them all.  The adaptive variant turns that observation into the
recovery mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..channel.batch import sweep_snr_matrix
from ..channel.blockage import HumanBlocker
from ..channel.environment import conference_room
from ..core.adaptive import AdaptiveProbeController
from ..core.compressive import CompressiveSectorSelector
from ..core.measurements import ProbeMeasurement
from ..core.paths import MultipathSelector
from ..core.probes import RandomProbeDesigner
from ..core.selector import SectorSweepSelector
from ..geometry.rotation import Orientation
from ..mac.timing import mutual_training_time_us
from .common import Testbed, build_testbed, observe_probes

__all__ = ["BlockageConfig", "BlockageResult", "run_blockage_recovery"]


@dataclass(frozen=True)
class BlockageConfig:
    seed: int = 13
    n_intervals: int = 40
    blocked_from: int = 12
    blocked_until: int = 28
    blocker_y_m: float = 0.0
    n_probes: int = 14
    #: Below this best-probe SNR the sweep is "anomalous": the measured
    #: patterns cannot be trusted and the raw argmax takes over.
    anomaly_threshold_db: float = 3.0


@dataclass
class BlockageResult:
    timeline: Dict[str, List[float]]
    blocked_from: int
    blocked_until: int
    airtime_us: Dict[str, float]

    def mean_snr_during_blockage(self, strategy: str) -> float:
        series = self.timeline[strategy]
        return float(np.mean(series[self.blocked_from : self.blocked_until]))

    def mean_snr_clear(self, strategy: str) -> float:
        series = self.timeline[strategy]
        clear = series[: self.blocked_from] + series[self.blocked_until :]
        return float(np.mean(clear))

    def format_rows(self) -> List[str]:
        rows = [
            "blockage recovery (extension): mean sweep SNR [dB]",
            f"blockage spans intervals {self.blocked_from}..{self.blocked_until - 1}",
            "strategy                | clear  | blocked | train airtime [ms]",
        ]
        for strategy in self.timeline:
            rows.append(
                f"{strategy:23s} | {self.mean_snr_clear(strategy):6.2f} | "
                f"{self.mean_snr_during_blockage(strategy):7.2f} | "
                f"{self.airtime_us[strategy] / 1000.0:8.2f}"
            )
        return rows


def _observe_sweep(
    testbed: Testbed,
    truth: np.ndarray,
    sector_ids: List[int],
    rng: np.random.Generator,
) -> List[ProbeMeasurement]:
    tx_ids = testbed.tx_sector_ids
    return observe_probes(
        testbed.measurement_model,
        truth[[tx_ids.index(sector_id) for sector_id in sector_ids]],
        sector_ids,
        testbed.budget.noise_floor_dbm,
        rng,
    )


def run_blockage_recovery(config: BlockageConfig = BlockageConfig()) -> BlockageResult:
    """Run the blockage timeline for the three strategies."""
    testbed = build_testbed()
    rng = np.random.default_rng(config.seed)
    tx_ids = testbed.tx_sector_ids
    orientation = Orientation()

    clear_env = conference_room(6.0)
    blocker = HumanBlocker(position_m=np.array([3.0, config.blocker_y_m, 0.0]))
    blocked_env = clear_env.with_blockers([blocker])

    def truth_for(environment) -> np.ndarray:
        return sweep_snr_matrix(
            environment,
            testbed.dut_antenna,
            testbed.dut_codebook,
            tx_ids,
            [orientation],
            testbed.ref_antenna,
            testbed.ref_codebook.rx_sector.weights,
            budget=testbed.budget,
        )[0]

    truth_clear = truth_for(clear_env)
    truth_blocked = truth_for(blocked_env)

    # Sorted: a live sweep probes (and draws per-probe noise) in
    # ascending sector order.
    designer = RandomProbeDesigner()
    ssw = SectorSweepSelector()
    css = CompressiveSectorSelector(testbed.pattern_table)
    adaptive = AdaptiveProbeController(
        min_probes=10, max_probes=34, motion_threshold_deg=6.0
    )
    adaptive_css = CompressiveSectorSelector(testbed.pattern_table)
    multipath = MultipathSelector(testbed.pattern_table)

    timeline: Dict[str, List[float]] = {
        "SSW (every 2nd)": [],
        "CSS-14 (every)": [],
        "CSS adaptive + standby": [],
    }
    airtime_us: Dict[str, float] = {name: 0.0 for name in timeline}
    ssw_sector = tx_ids[0]
    css_sector = tx_ids[0]
    standby_backup: Optional[int] = None
    standby_active = tx_ids[0]

    for interval in range(config.n_intervals):
        blocked = config.blocked_from <= interval < config.blocked_until
        truth = truth_blocked if blocked else truth_clear

        # SSW: full sweep, but only every other interval (airtime).
        if interval % 2 == 0:
            measurements = _observe_sweep(testbed, truth, tx_ids, rng)
            ssw_sector = ssw.select(measurements).sector_id
            airtime_us["SSW (every 2nd)"] += mutual_training_time_us(len(tx_ids))
        timeline["SSW (every 2nd)"].append(float(truth[tx_ids.index(ssw_sector)]))

        # CSS: reduced sweep every interval at the same airtime budget.
        probe_ids = sorted(designer.design(config.n_probes, tx_ids, rng))
        measurements = _observe_sweep(testbed, truth, probe_ids, rng)
        css_sector = css.select(measurements).sector_id
        airtime_us["CSS-14 (every)"] += mutual_training_time_us(config.n_probes)
        timeline["CSS-14 (every)"].append(float(truth[tx_ids.index(css_sector)]))

        # CSS adaptive + standby: §7 budget control plus fast fallback.
        budget = min(adaptive.n_probes, len(tx_ids))
        probe_ids = sorted(designer.design(budget, tx_ids, rng))
        measurements = _observe_sweep(testbed, truth, probe_ids, rng)
        airtime_us["CSS adaptive + standby"] += mutual_training_time_us(budget)
        selection = adaptive_css.select(measurements)
        adaptive.update(selection.estimate)
        paths = multipath.select_paths(measurements, n_paths=2)
        anomalous = (
            not measurements
            or max(m.snr_db for m in measurements) < config.anomaly_threshold_db
        )
        if anomalous and measurements:
            # The whole sweep is crushed: the chamber patterns no longer
            # describe the channel, so trust the raw argmax (and keep
            # the probe budget wide via the failed-estimate signal).
            standby_active = max(measurements, key=lambda m: m.snr_db).sector_id
            standby_backup = None
            adaptive.update(None)
        elif selection.estimate is not None:
            standby_active = selection.sector_id
            standby_backup = paths[1][1] if len(paths) > 1 else None
        primary_snr = truth[tx_ids.index(standby_active)]
        if standby_backup is not None:
            backup_snr = truth[tx_ids.index(standby_backup)]
            # Mid-interval collapse detection: switch if the primary
            # dropped to the decode floor but the standby still works.
            if primary_snr < -5.0 and backup_snr > primary_snr + 3.0:
                standby_active = standby_backup
                primary_snr = backup_snr
        timeline["CSS adaptive + standby"].append(float(primary_snr))

    return BlockageResult(
        timeline=timeline,
        blocked_from=config.blocked_from,
        blocked_until=config.blocked_until,
        airtime_us=airtime_us,
    )
