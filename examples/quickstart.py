#!/usr/bin/env python3
"""Quickstart: measure patterns once, then select sectors compressively.

Walks the paper's whole pipeline on a simulated Talon AD7200 pair:

1. jailbreak a router (install the firmware patches of §3),
2. measure its 3D sector patterns in a simulated anechoic chamber (§4),
3. run compressive sector selection with 14 of 34 probes (§2), and
4. compare the outcome and training time against the full sweep.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.channel import LinkBudget, anechoic_chamber, lab_environment
from repro.channel.batch import sweep_snr_matrix
from repro.core import (
    CompressiveSectorSelector,
    ProbeMeasurement,
    RandomProbeDesigner,
    SectorSweepSelector,
)
from repro.geometry import Orientation
from repro.mac.timing import mutual_training_time_us, training_speedup
from repro.measurement import PatternMeasurementCampaign, measure_3d_patterns
from repro.phased_array import PhasedArray, talon_codebook


def main() -> None:
    rng = np.random.default_rng(2017)

    # --- The devices: two Talon-like routers. -------------------------
    router = PhasedArray.talon(np.random.default_rng(1))
    codebook = talon_codebook(router)
    reference = PhasedArray.talon(np.random.default_rng(2))
    reference_codebook = talon_codebook(reference)
    print(f"array: {router.n_elements} elements, "
          f"{codebook.n_tx_sectors} TX sectors + quasi-omni RX")

    # --- Step 1+2: chamber campaign -> measured 3D patterns. ----------
    campaign = PatternMeasurementCampaign(
        router, codebook,
        reference_antenna=reference, reference_codebook=reference_codebook,
        environment=anechoic_chamber(3.0),
    )
    print("measuring 3D sector patterns in the chamber ...")
    patterns = measure_3d_patterns(
        campaign, rng, azimuth_step_deg=3.6, elevation_step_deg=7.2, n_sweeps=2
    )
    print(f"pattern table: {patterns.n_sectors} sectors on a "
          f"{patterns.grid.n_elevation}x{patterns.grid.n_azimuth} grid")

    # --- Step 3: deploy in a lab; the peer sits at device-frame 25 deg.
    environment = lab_environment(3.0)
    budget = LinkBudget()
    true_direction = (25.0, 8.0)
    orientation = Orientation(yaw_deg=-true_direction[0], pitch_deg=-true_direction[1])
    truth = sweep_snr_matrix(
        environment, router, codebook, codebook.tx_sector_ids, [orientation],
        reference, reference_codebook.rx_sector.weights, budget=budget,
    )[0]
    from repro.channel import MeasurementModel
    firmware = MeasurementModel()

    def probe(sector_ids):
        """One reduced sector sweep through the firmware's reporting."""
        measurements = []
        for sector_id in sector_ids:
            column = codebook.tx_sector_ids.index(sector_id)
            observation = firmware.observe(truth[column], budget.noise_floor_dbm, rng)
            if observation is not None:
                measurements.append(ProbeMeasurement(
                    sector_id, observation.snr_db, observation.rssi_dbm))
        return measurements

    css = CompressiveSectorSelector(patterns)
    probe_ids = sorted(RandomProbeDesigner().design(14, codebook.tx_sector_ids, rng))
    result = css.select(probe(probe_ids))
    estimate = result.estimate
    print(f"\ncompressive selection (14 probes): sector {result.sector_id}")
    print(f"  estimated direction ({estimate.azimuth_deg:+.1f}, "
          f"{estimate.elevation_deg:+.1f}) deg — truth ({true_direction[0]:+.1f}, "
          f"{true_direction[1]:+.1f})")

    # --- Step 4: compare with the exhaustive sweep. --------------------
    sweep = SectorSweepSelector()
    full = sweep.select(probe(codebook.tx_sector_ids))
    best = codebook.tx_sector_ids[int(np.argmax(truth))]
    print(f"full sector sweep (34 probes):     sector {full.sector_id}")
    print(f"oracle (true best):                sector {best}")
    loss = truth.max() - truth[codebook.tx_sector_ids.index(result.sector_id)]
    print(f"CSS SNR loss vs oracle: {loss:.2f} dB")
    print(f"\ntraining time: CSS {mutual_training_time_us(14) / 1000:.2f} ms vs "
          f"SSW {mutual_training_time_us(34) / 1000:.2f} ms "
          f"({training_speedup(14):.1f}x speed-up)")


if __name__ == "__main__":
    main()
