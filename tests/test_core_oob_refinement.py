"""Tests for out-of-band priors and BRP-style beam refinement."""

import numpy as np
import pytest

from repro.core import (
    AngleEstimator,
    BeamRefiner,
    OutOfBandPrior,
    PriorAidedEstimator,
    ProbeMeasurement,
)
from repro.geometry import AngularGrid
from repro.phased_array import WeightVector, quantize_phase


class TestOutOfBandPrior:
    def test_peak_at_prior_direction(self):
        grid = AngularGrid(np.arange(-90.0, 91.0, 2.0), np.array([0.0]))
        prior = OutOfBandPrior(azimuth_deg=25.0, sigma_deg=15.0)
        weights = prior.weights_on(grid)
        azimuths, _ = grid.flat_angles()
        assert azimuths[int(np.argmax(weights))] == pytest.approx(25.0, abs=1.0)

    def test_weights_bounded(self):
        grid = AngularGrid(np.arange(-90.0, 91.0, 5.0), np.arange(0.0, 33.0, 8.0))
        prior = OutOfBandPrior(azimuth_deg=0.0, sigma_deg=10.0, elevation_deg=8.0)
        weights = prior.weights_on(grid)
        assert (weights > 0).all() and (weights <= 1.0).all()

    def test_elevation_prior_optional(self):
        grid = AngularGrid(np.array([0.0]), np.arange(0.0, 33.0, 4.0))
        flat = OutOfBandPrior(azimuth_deg=0.0).weights_on(grid)
        # Without an elevation prior, all elevations weigh equally.
        np.testing.assert_allclose(flat, flat[0])

    def test_wraps_across_the_seam(self):
        grid = AngularGrid(np.array([-178.0, 0.0, 178.0]), np.array([0.0]))
        prior = OutOfBandPrior(azimuth_deg=179.0, sigma_deg=10.0)
        weights = prior.weights_on(grid)
        # -178 deg is only 3 deg away from +179 on the circle.
        assert weights[0] > weights[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            OutOfBandPrior(azimuth_deg=0.0, sigma_deg=0.0)

    def test_prior_pulls_ambiguous_estimate(self, pattern_table):
        estimator = PriorAidedEstimator(AngleEstimator(pattern_table))
        sector_ids = [s for s in pattern_table.sector_ids if s != 0][:4]
        truth = (-20.0, 0.0)
        measurements = [
            ProbeMeasurement(
                s,
                float(pattern_table.gain(s, *truth)),
                float(pattern_table.gain(s, *truth)) - 71.5,
            )
            for s in sector_ids
        ]
        without = estimator.estimate(measurements)
        with_prior = estimator.estimate(
            measurements, prior=OutOfBandPrior(azimuth_deg=-18.0, sigma_deg=12.0)
        )
        error_without = abs(without.azimuth_deg - truth[0])
        error_with = abs(with_prior.azimuth_deg - truth[0])
        assert error_with <= error_without + 1e-9

    def test_without_a_prior_it_is_the_plain_estimate(self, pattern_table):
        """Dropped non-finite probes are not counted, and the estimate
        carries its grid index — exactly the plain estimator's."""
        plain = AngleEstimator(pattern_table)
        sector_ids = [s for s in pattern_table.sector_ids if s != 0][:8]
        measurements = [
            ProbeMeasurement(s, float(pattern_table.gain(s, 10.0, 0.0)), -60.0)
            for s in sector_ids
        ]
        measurements[3] = ProbeMeasurement(sector_ids[3], float("nan"), -60.0)
        estimate = PriorAidedEstimator(plain).estimate(measurements)
        assert estimate.n_probes_used == 7
        assert estimate == plain.estimate(measurements)

    def test_a_nan_grid_point_never_wins(self, pattern_table, monkeypatch):
        import repro.core.estimator as estimator_module

        plain = AngleEstimator(pattern_table)
        sector_ids = [s for s in pattern_table.sector_ids if s != 0][:8]
        measurements = [
            ProbeMeasurement(s, float(pattern_table.gain(s, 10.0, 0.0)), -60.0)
            for s in sector_ids
        ]
        clean = plain.estimate(measurements)
        real_correlate = estimator_module._correlate_core

        def poisoned(values, unit):
            surface = real_correlate(values, unit).copy()
            surface[0 if clean.grid_index != 0 else 1] = np.nan
            return surface

        monkeypatch.setattr(estimator_module, "_correlate_core", poisoned)
        assert PriorAidedEstimator(plain).estimate(measurements) == clean


class TestBeamRefiner:
    def _quadratic_objective(self, target: np.ndarray):
        """SNR-like objective: alignment with a target phasor set."""

        def measure(weights: WeightVector) -> float:
            response = np.abs(np.vdot(target, weights.weights))
            return 20.0 * np.log10(max(response, 1e-9))

        return measure

    def test_monotone_non_decreasing(self, rng):
        target = np.exp(1j * rng.uniform(0, 2 * np.pi, size=16))
        start = WeightVector(np.ones(16, dtype=complex)).normalized()
        refiner = BeamRefiner()
        result = refiner.refine(start, self._quadratic_objective(target), rng, 15)
        assert result.final_snr_db >= result.initial_snr_db

    def test_improves_misaligned_start(self, rng):
        target = np.exp(1j * quantize_phase(rng.uniform(0, 2 * np.pi, size=16), 2))
        start = WeightVector(np.ones(16, dtype=complex)).normalized()
        refiner = BeamRefiner(candidates_per_iteration=8)
        result = refiner.refine(start, self._quadratic_objective(target), rng, 30)
        assert result.improvement_db > 1.0
        assert result.accepted_steps  # something was accepted

    def test_stays_on_quantizer_constellation(self, rng):
        target = np.exp(1j * rng.uniform(0, 2 * np.pi, size=16))
        start = WeightVector(np.ones(16, dtype=complex))
        result = BeamRefiner(phase_bits=2).refine(
            start, self._quadratic_objective(target), rng, 10
        )
        phases = np.angle(result.weights.weights)
        step = np.pi / 2
        remainder = np.abs(((phases % step) + step) % step)
        remainder = np.minimum(remainder, step - remainder)
        np.testing.assert_allclose(remainder, 0.0, atol=1e-9)

    def test_preserves_amplitudes(self, rng):
        amplitudes = rng.uniform(0.5, 1.0, size=8)
        start = WeightVector(amplitudes.astype(complex))
        target = np.exp(1j * rng.uniform(0, 2 * np.pi, size=8))
        result = BeamRefiner().refine(start, self._quadratic_objective(target), rng, 5)
        np.testing.assert_allclose(np.abs(result.weights.weights), amplitudes, atol=1e-9)

    def test_frame_accounting(self, rng):
        target = np.exp(1j * rng.uniform(0, 2 * np.pi, size=8))
        start = WeightVector(np.ones(8, dtype=complex))
        refiner = BeamRefiner(candidates_per_iteration=3)
        result = refiner.refine(start, self._quadratic_objective(target), rng, 7)
        assert result.frames_spent == 1 + 7 * 3
        assert result.airtime_us == pytest.approx(result.frames_spent * 4.0)

    def test_noise_margin_prevents_random_walk(self, rng):
        """With pure-noise feedback, the margin should reject changes."""
        start = WeightVector(np.ones(8, dtype=complex))
        refiner = BeamRefiner(acceptance_margin_db=3.0)
        result = refiner.refine(
            start, lambda _w: float(rng.normal(0.0, 0.5)), rng, 10
        )
        assert len(result.accepted_steps) <= 2

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            BeamRefiner(phase_bits=0)
        with pytest.raises(ValueError):
            BeamRefiner(acceptance_margin_db=-1.0)
        refiner = BeamRefiner()
        start = WeightVector(np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            refiner.refine(start, lambda _w: 0.0, rng, 0)
        with pytest.raises(ValueError):
            refiner.refine(
                WeightVector(np.zeros(4, dtype=complex)), lambda _w: 0.0, rng, 1
            )
