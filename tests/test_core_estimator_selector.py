"""Tests for angle estimation (Eqs. 3/5) and sector selection (Eqs. 1/4)."""

import numpy as np
import pytest

from repro.core import (
    AngleEstimator,
    CompressiveSectorSelector,
    ProbeMeasurement,
    SectorSweepSelector,
    from_sweep_reports,
)
from repro.core.estimator import _finite_argmax
from repro.firmware import SweepReport
from repro.geometry import AngularGrid


def synthetic_measurements(pattern_table, azimuth, elevation, sector_ids, rssi_floor=-71.5):
    """Noise-free measurements a receiver at (azimuth, elevation) sees."""
    return [
        ProbeMeasurement(
            sector_id=s,
            snr_db=float(pattern_table.gain(s, azimuth, elevation)),
            rssi_dbm=float(pattern_table.gain(s, azimuth, elevation)) + rssi_floor,
        )
        for s in sector_ids
    ]


class TestProbeMeasurements:
    def test_from_sweep_reports_latest_wins(self):
        reports = [
            SweepReport(sector_id=3, cdown=10, snr_db=1.0, rssi_dbm=-70.0, sweep_index=1),
            SweepReport(sector_id=3, cdown=10, snr_db=6.0, rssi_dbm=-64.0, sweep_index=2),
            SweepReport(sector_id=5, cdown=9, snr_db=2.0, rssi_dbm=-69.0, sweep_index=2),
        ]
        measurements = from_sweep_reports(reports)
        by_id = {m.sector_id: m for m in measurements}
        assert set(by_id) == {3, 5}
        assert by_id[3].snr_db == 6.0

    def test_sector_id_validated(self):
        with pytest.raises(ValueError):
            ProbeMeasurement(sector_id=99, snr_db=0.0, rssi_dbm=-70.0)


class TestSectorSweepSelector:
    def test_argmax(self):
        selector = SectorSweepSelector()
        measurements = [
            ProbeMeasurement(1, 3.0, -68.0),
            ProbeMeasurement(2, 9.0, -62.0),
            ProbeMeasurement(3, 5.0, -66.0),
        ]
        assert selector.select(measurements).sector_id == 2

    def test_empty_sweep_keeps_last(self):
        selector = SectorSweepSelector(initial_sector_id=4)
        result = selector.select([])
        assert result.sector_id == 4
        assert result.fallback
        selector.select([ProbeMeasurement(7, 1.0, -70.0)])
        assert selector.select([]).sector_id == 7

    def test_outlier_swings_argmax(self):
        """The instability mechanism of §6.3: outliers crown the wrong sector."""
        selector = SectorSweepSelector()
        measurements = [
            ProbeMeasurement(1, 9.0, -62.0),
            ProbeMeasurement(2, 8.5 + 10.0, -63.0),  # +10 dB outlier
        ]
        assert selector.select(measurements).sector_id == 2


class TestFiniteArgmax:
    def test_matches_plain_argmax_on_finite_surfaces(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            surface = rng.normal(size=257)
            assert _finite_argmax(surface) == int(np.argmax(surface))

    def test_nan_winner_is_retaken_over_finite_entries(self):
        surface = np.array([0.3, np.nan, 0.9, 0.1])
        assert int(np.argmax(surface)) == 1  # the mechanism under repair
        assert _finite_argmax(surface) == 2

    def test_all_nan_surface_keeps_the_argmax_fallback(self):
        surface = np.full(5, np.nan)
        assert _finite_argmax(surface) == int(np.argmax(surface))


class TestAngleEstimator:
    def test_recovers_direction_from_clean_probes(self, pattern_table):
        estimator = AngleEstimator(pattern_table)
        sector_ids = [s for s in pattern_table.sector_ids if s != 0][:14]
        truth = (20.0, 8.0)
        estimate = estimator.estimate(
            synthetic_measurements(pattern_table, *truth, sector_ids)
        )
        assert abs(estimate.azimuth_deg - truth[0]) <= 4.0
        assert abs(estimate.elevation_deg - truth[1]) <= 8.0

    def test_needs_two_probes(self, pattern_table):
        estimator = AngleEstimator(pattern_table)
        with pytest.raises(ValueError):
            estimator.estimate([ProbeMeasurement(1, 5.0, -66.0)])

    def test_unknown_probe_sector_rejected(self, pattern_table):
        estimator = AngleEstimator(pattern_table)
        with pytest.raises(KeyError):
            estimator.estimate(
                [ProbeMeasurement(40, 5.0, -66.0), ProbeMeasurement(41, 5.0, -66.0)]
            )

    def test_fusion_validation(self, pattern_table):
        with pytest.raises(ValueError):
            AngleEstimator(pattern_table, fusion="both")

    def test_product_fusion_suppresses_single_channel_outlier(self, pattern_table):
        """§5: an SNR-only outlier should not move the fused estimate much."""
        sector_ids = [s for s in pattern_table.sector_ids if s != 0][:16]
        truth = (10.0, 4.0)
        clean = synthetic_measurements(pattern_table, *truth, sector_ids)
        corrupted = list(clean)
        # Severe +10 dB outlier on one probe's SNR, RSSI untouched.
        corrupted[3] = ProbeMeasurement(
            corrupted[3].sector_id, corrupted[3].snr_db + 10.0, corrupted[3].rssi_dbm
        )
        snr_only = AngleEstimator(pattern_table, fusion="snr").estimate(corrupted)
        fused = AngleEstimator(pattern_table, fusion="product").estimate(corrupted)
        clean_estimate = AngleEstimator(pattern_table, fusion="product").estimate(clean)
        error_snr = abs(snr_only.azimuth_deg - clean_estimate.azimuth_deg)
        error_fused = abs(fused.azimuth_deg - clean_estimate.azimuth_deg)
        assert error_fused <= error_snr

    def test_correlation_surface_shape(self, pattern_table):
        estimator = AngleEstimator(pattern_table)
        sector_ids = [s for s in pattern_table.sector_ids if s != 0][:6]
        surface = estimator.correlation_surface(
            synthetic_measurements(pattern_table, 0.0, 0.0, sector_ids)
        )
        assert surface.shape == (estimator.search_grid.n_points,)

    def test_nan_probes_dropped_not_propagated(self, pattern_table, caplog):
        """Non-finite firmware readings must not poison the argmax."""
        import logging

        sector_ids = [s for s in pattern_table.sector_ids if s != 0][:14]
        truth = (20.0, 8.0)
        clean = synthetic_measurements(pattern_table, *truth, sector_ids)
        poisoned = list(clean)
        poisoned[2] = ProbeMeasurement(poisoned[2].sector_id, float("nan"), -66.0)
        poisoned[5] = ProbeMeasurement(poisoned[5].sector_id, 5.0, float("inf"))
        estimator = AngleEstimator(pattern_table)
        with caplog.at_level(logging.WARNING, logger="repro.core.estimator"):
            estimate = estimator.estimate(poisoned)
        assert "dropped 2 of 14" in caplog.text
        assert estimate.n_probes_used == 12
        assert np.isfinite(estimate.correlation)
        assert abs(estimate.azimuth_deg - truth[0]) <= 4.0

    def test_nan_on_unused_channel_is_kept(self, pattern_table):
        """SNR-only fusion must not drop probes over a NaN RSSI."""
        sector_ids = [s for s in pattern_table.sector_ids if s != 0][:8]
        measurements = synthetic_measurements(pattern_table, 0.0, 0.0, sector_ids)
        measurements[0] = ProbeMeasurement(
            measurements[0].sector_id, measurements[0].snr_db, float("nan")
        )
        estimator = AngleEstimator(pattern_table, fusion="snr")
        assert estimator.estimate(measurements).n_probes_used == len(measurements)

    def test_all_nan_probes_raise_actionable_error(self, pattern_table):
        estimator = AngleEstimator(pattern_table)
        measurements = [
            ProbeMeasurement(s, float("nan"), float("nan"))
            for s in [s for s in pattern_table.sector_ids if s != 0][:5]
        ]
        with pytest.raises(ValueError, match="non-finite"):
            estimator.estimate(measurements)

    def test_finite_surface_argmax_is_bit_identical_to_plain_argmax(
        self, pattern_table
    ):
        estimator = AngleEstimator(pattern_table)
        sector_ids = [s for s in pattern_table.sector_ids if s != 0][:14]
        measurements = synthetic_measurements(pattern_table, 20.0, 8.0, sector_ids)
        surface = estimator.correlation_surface(measurements)
        assert np.isfinite(surface).all()
        assert estimator.estimate(measurements).grid_index == int(np.argmax(surface))

    def test_estimate_routes_around_a_nan_grid_point(
        self, pattern_table, monkeypatch
    ):
        """A NaN surface entry must not win the argmax (it beats every
        comparison inside ``np.argmax``)."""
        import repro.core.estimator as estimator_module

        estimator = AngleEstimator(pattern_table)
        sector_ids = [s for s in pattern_table.sector_ids if s != 0][:14]
        measurements = synthetic_measurements(pattern_table, 20.0, 8.0, sector_ids)
        clean = estimator.estimate(measurements)
        real_correlate = estimator_module._correlate_core

        def poisoned(values, unit):
            surface = real_correlate(values, unit).copy()
            surface[0 if clean.grid_index != 0 else 1] = np.nan
            return surface

        monkeypatch.setattr(estimator_module, "_correlate_core", poisoned)
        assert estimator.estimate(measurements) == clean

    def test_batched_estimate_routes_around_a_nan_grid_point(
        self, pattern_table, monkeypatch
    ):
        import repro.core.estimator as estimator_module

        estimator = AngleEstimator(pattern_table, fusion="snr")
        sector_ids = [s for s in pattern_table.sector_ids if s != 0][:8]
        measurements = synthetic_measurements(pattern_table, 10.0, 4.0, sector_ids)
        ids = np.array([[m.sector_id for m in measurements]])
        snr = np.array([[m.snr_db for m in measurements]])
        (clean,) = estimator.estimate_batch(ids, snr_db=snr)
        real_correlate = estimator_module._correlate_core

        def poisoned(values, unit):
            surface = real_correlate(values, unit).copy()
            surface[0 if clean.grid_index != 0 else 1] = np.nan
            return surface

        monkeypatch.setattr(estimator_module, "_correlate_core", poisoned)
        (estimate,) = estimator.estimate_batch(ids, snr_db=snr)
        assert estimate == clean

    def test_custom_search_grid(self, pattern_table):
        grid = AngularGrid(np.arange(-30.0, 31.0, 2.0), np.array([0.0]))
        estimator = AngleEstimator(pattern_table, search_grid=grid)
        sector_ids = [s for s in pattern_table.sector_ids if s != 0][:14]
        estimate = estimator.estimate(
            synthetic_measurements(pattern_table, 12.0, 0.0, sector_ids)
        )
        assert -30.0 <= estimate.azimuth_deg <= 30.0
        assert estimate.elevation_deg == 0.0


class TestCompressiveSectorSelector:
    def test_two_step_selection_close_to_pattern_best(self, pattern_table):
        selector = CompressiveSectorSelector(pattern_table)
        truth = (-15.0, 4.0)
        sector_ids = selector.candidate_sector_ids[:14]
        result = selector.select(
            synthetic_measurements(pattern_table, *truth, sector_ids)
        )
        assert result.estimate is not None
        expected = pattern_table.best_sector(
            result.estimate.azimuth_deg, result.estimate.elevation_deg,
            selector.candidate_sector_ids,
        )
        assert result.sector_id == expected

    def test_candidates_default_excludes_rx(self, pattern_table):
        selector = CompressiveSectorSelector(pattern_table)
        assert 0 not in selector.candidate_sector_ids
        assert selector.n_candidates == 34

    def test_selection_can_exceed_probed_set(self, pattern_table):
        """Eq. 4's point: the winner need not have been probed."""
        selector = CompressiveSectorSelector(pattern_table)
        winners = set()
        probed = selector.candidate_sector_ids[:6]
        for azimuth in (-40.0, -10.0, 15.0, 45.0):
            result = selector.select(
                synthetic_measurements(pattern_table, azimuth, 0.0, probed)
            )
            winners.add(result.sector_id)
        assert winners - set(probed), "some winner should come from outside the probes"

    def test_fallback_on_too_few_probes(self, pattern_table):
        selector = CompressiveSectorSelector(pattern_table, initial_sector_id=3)
        empty = selector.select([])
        assert empty.fallback and empty.sector_id == 3
        single = selector.select([ProbeMeasurement(5, 9.0, -60.0)])
        assert single.fallback and single.sector_id == 5
        # The fallback updates the remembered selection.
        assert selector.select([]).sector_id == 5

    def test_unknown_candidate_rejected(self, pattern_table):
        with pytest.raises(ValueError):
            CompressiveSectorSelector(pattern_table, candidate_sector_ids=[1, 40])

    def test_min_probes_validated(self, pattern_table):
        with pytest.raises(ValueError):
            CompressiveSectorSelector(pattern_table, min_probes=1)

    def test_probes_outside_table_ignored(self, pattern_table):
        selector = CompressiveSectorSelector(pattern_table)
        sector_ids = selector.candidate_sector_ids[:10]
        measurements = synthetic_measurements(pattern_table, 0.0, 0.0, sector_ids)
        # A probe for an unknown sector is dropped, not fatal.
        measurements.append(ProbeMeasurement(40, 11.0, -60.0))
        result = selector.select(measurements)
        assert result.estimate is not None
        assert result.estimate.n_probes_used == 10

    def test_best_sector_at(self, pattern_table):
        sector = pattern_table.best_sector(0.0, 0.0)
        selector = CompressiveSectorSelector(pattern_table)
        assert selector.best_sector_at(0.0, 0.0) == sector
