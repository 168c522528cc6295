"""Failure injection: the system under pathological conditions.

Real deployments hit these: firmware that reports nothing for whole
sweeps, saturated readings, sweeps of identical values, hostile frame
bytes, overflowing ring buffers mid-session.  Nothing may crash, and
degradation must be graceful and observable.
"""

import numpy as np
import pytest

from repro.channel import MeasurementModel
from repro.core import (
    AngleEstimator,
    CompressiveSectorSelector,
    ProbeMeasurement,
    SectorSweepSelector,
    SectorTracker,
)
from repro.firmware import (
    QCA9500,
    PatchFramework,
    WmiDrainSweepReports,
    signal_strength_extraction_patch,
)
from repro.mac import decode_frame


class TestSilentFirmware:
    """§5: "sometimes the firmware does not report any measurements"."""

    def test_selectors_survive_consecutive_empty_sweeps(self, pattern_table):
        ssw = SectorSweepSelector()
        css = CompressiveSectorSelector(pattern_table)
        for _ in range(10):
            assert ssw.select([]).sector_id == 1
            assert css.select([]).sector_id == 1

    def test_tracker_survives_dead_channel(self, pattern_table, rng):
        tracker = SectorTracker(CompressiveSectorSelector(pattern_table), n_probes=14)
        steps = tracker.run(lambda ids, generator: [], 5, rng)
        assert len(steps) == 5
        assert all(step.result.fallback for step in steps)

    def test_total_dropout_model(self, codebook, rng):
        model = MeasurementModel(report_dropout_probability=0.99, decode_threshold_db=-1e9)
        chip = QCA9500(codebook, model)
        chip.start_sweep()
        for sector_id in codebook.tx_sector_ids:
            chip.process_ssw_frame(sector_id, 0, 10.0, rng)
        # Nearly everything dropped; the chip still returns a sector.
        assert chip.select_feedback_sector() in codebook.sector_ids


class TestDegenerateMeasurements:
    def test_all_identical_snr_values(self, pattern_table):
        """Saturated sweeps (every probe clipped at 12 dB) stay sane."""
        selector = CompressiveSectorSelector(pattern_table)
        sector_ids = selector.candidate_sector_ids[:14]
        measurements = [ProbeMeasurement(s, 12.0, -59.5) for s in sector_ids]
        result = selector.select(measurements)
        assert result.sector_id in selector.candidate_sector_ids

    def test_all_floor_values(self, pattern_table):
        selector = CompressiveSectorSelector(pattern_table)
        sector_ids = selector.candidate_sector_ids[:14]
        measurements = [ProbeMeasurement(s, -7.0, -78.5) for s in sector_ids]
        result = selector.select(measurements)
        assert result.sector_id in selector.candidate_sector_ids

    def test_single_severe_outlier_dominating(self, pattern_table):
        """One +19 dB lie among floor values must not crash anything."""
        selector = CompressiveSectorSelector(pattern_table)
        sector_ids = selector.candidate_sector_ids[:10]
        measurements = [ProbeMeasurement(s, -7.0, -78.5) for s in sector_ids]
        measurements[3] = ProbeMeasurement(sector_ids[3], 12.0, -78.5)
        result = selector.select(measurements)
        assert result.sector_id in selector.candidate_sector_ids

    def test_estimator_with_two_probes_minimum(self, pattern_table):
        estimator = AngleEstimator(pattern_table)
        sector_ids = [s for s in pattern_table.sector_ids if s != 0][:2]
        estimate = estimator.estimate(
            [ProbeMeasurement(s, 5.0, -66.5) for s in sector_ids]
        )
        assert np.isfinite(estimate.correlation)


class TestHostileFrameBytes:
    def test_decoder_rejects_truncations(self):
        from repro.mac import BeaconFrame, station_mac

        wire = BeaconFrame(src=station_mac(1), sector_id=3, cdown=29).encode()
        for cut in range(1, len(wire)):
            with pytest.raises(ValueError):
                decode_frame(wire[:cut])

    def test_decoder_rejects_random_garbage(self, rng):
        for _ in range(50):
            length = int(rng.integers(0, 40))
            blob = bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
            # Either decodes to a valid frame type or raises ValueError;
            # nothing else is acceptable.
            try:
                frame = decode_frame(blob)
            except ValueError:
                continue
            assert frame is not None


class TestRingBufferPressure:
    def test_many_sweeps_without_draining(self, codebook, rng):
        """A slow host loses old reports but never newer ones."""
        chip = QCA9500(codebook, MeasurementModel.noiseless())
        framework = PatchFramework(chip)
        framework.install(signal_strength_extraction_patch(buffer_capacity=40))
        for sweep in range(5):
            chip.start_sweep()
            for sector_id in codebook.tx_sector_ids:
                chip.process_ssw_frame(sector_id, 0, 5.0, rng)
        reports = chip.handle_wmi(WmiDrainSweepReports())
        assert len(reports) == 40
        # The survivors are the most recent sweep's reports.
        assert all(report.sweep_index >= 4 for report in reports[-34:])

    def test_drain_is_idempotent_when_empty(self, codebook):
        chip = QCA9500(codebook, MeasurementModel.noiseless())
        PatchFramework(chip).install(signal_strength_extraction_patch())
        assert chip.handle_wmi(WmiDrainSweepReports()) == []
        assert chip.handle_wmi(WmiDrainSweepReports()) == []


class TestNumericalEdges:
    def test_extreme_snr_inputs(self, pattern_table):
        selector = CompressiveSectorSelector(pattern_table)
        sector_ids = selector.candidate_sector_ids[:6]
        for value in (-1e6, 1e6):
            measurements = [ProbeMeasurement(s, value, value) for s in sector_ids]
            result = selector.select(measurements)
            assert result.sector_id in selector.candidate_sector_ids

    def test_gain_queries_far_outside_grid(self, pattern_table):
        value = pattern_table.gain(63, 500.0, 500.0)
        assert np.isfinite(value)
