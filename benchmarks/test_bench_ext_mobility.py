"""Bench (extension): tracking a walking user (§7 mobility argument).

A client walks a 5 m arc around the AP at 3°/s; the tracker re-trains
once per second.  Expected shape: CSS-14 keeps the link within ~1-2 dB
of the oracle over the whole walk while spending 2.3× less training
airtime than a full sweep per interval; the §7 adaptive controller
tracks almost as well with even less airtime while the user pauses.
"""

import numpy as np

from repro.channel import ArcTrajectory, MobileLink, conference_room
from repro.core import (
    AdaptiveProbeController,
    CompressiveSectorSelector,
    ProbeMeasurement,
    RandomProbeDesigner,
    SectorSweepSelector,
)
from repro.experiments.common import build_testbed
from repro.mac.timing import mutual_training_time_us


def _run_mobility():
    testbed = build_testbed()
    rng = np.random.default_rng(33)
    trajectory = ArcTrajectory(
        center_m=np.zeros(3), radius_m=5.0, angular_speed_deg_s=3.0, start_angle_deg=-45.0
    )
    link = MobileLink(
        conference_room(6.0),
        trajectory,
        testbed.dut_antenna,
        testbed.dut_codebook,
        testbed.ref_antenna,
        testbed.ref_codebook,
        budget=testbed.budget,
    )
    tx_ids = testbed.tx_sector_ids
    designer = RandomProbeDesigner()
    css = CompressiveSectorSelector(testbed.pattern_table)
    ssw = SectorSweepSelector()
    adaptive = AdaptiveProbeController(min_probes=10, max_probes=24)
    adaptive_css = CompressiveSectorSelector(testbed.pattern_table)

    losses = {"SSW": [], "CSS-14": [], "CSS adaptive": []}
    airtime = {"SSW": 0.0, "CSS-14": 0.0, "CSS adaptive": 0.0}

    def observe(truth, probe_ids):
        measurements = []
        for sector_id in probe_ids:
            observation = testbed.measurement_model.observe(
                truth[tx_ids.index(sector_id)], testbed.budget.noise_floor_dbm, rng
            )
            if observation is not None:
                measurements.append(
                    ProbeMeasurement(sector_id, observation.snr_db, observation.rssi_dbm)
                )
        return measurements

    for second in range(30):
        truth = link.true_snr_at(float(second))
        optimal = truth.max()

        chosen = ssw.select(observe(truth, tx_ids)).sector_id
        losses["SSW"].append(optimal - truth[tx_ids.index(chosen)])
        airtime["SSW"] += mutual_training_time_us(34)

        probe_ids = sorted(designer.design(14, tx_ids, rng))
        chosen = css.select(observe(truth, probe_ids)).sector_id
        losses["CSS-14"].append(optimal - truth[tx_ids.index(chosen)])
        airtime["CSS-14"] += mutual_training_time_us(14)

        budget = min(adaptive.n_probes, len(tx_ids))
        probe_ids = sorted(designer.design(budget, tx_ids, rng))
        selection = adaptive_css.select(observe(truth, probe_ids))
        adaptive.update(selection.estimate)
        losses["CSS adaptive"].append(
            optimal - truth[tx_ids.index(selection.sector_id)]
        )
        airtime["CSS adaptive"] += mutual_training_time_us(budget)

    rows = ["mobility tracking (extension): 5 m arc at 3 deg/s, 30 s"]
    rows.append("strategy     | mean loss [dB] | training airtime [ms]")
    summary = {}
    for name in losses:
        mean_loss = float(np.mean(losses[name]))
        total_ms = airtime[name] / 1000.0
        summary[name] = (mean_loss, total_ms)
        rows.append(f"{name:12s} | {mean_loss:14.2f} | {total_ms:20.2f}")
    return rows, summary


def test_mobility_tracking(benchmark, report_rows):
    rows, summary = benchmark.pedantic(_run_mobility, rounds=1, iterations=1)
    report_rows(rows)

    ssw_loss, ssw_air = summary["SSW"]
    css_loss, css_air = summary["CSS-14"]
    adaptive_loss, adaptive_air = summary["CSS adaptive"]

    # Everyone keeps the moving link within a few dB of the oracle.
    assert ssw_loss < 2.0
    assert css_loss < 3.0
    assert adaptive_loss < 3.0

    # CSS spends 2.3x less airtime than the sweep; the adaptive
    # controller lands between the fixed budgets.
    expected_ratio = mutual_training_time_us(34) / mutual_training_time_us(14)
    assert abs(ssw_air / css_air - expected_ratio) < 1e-6
    assert adaptive_air < ssw_air
