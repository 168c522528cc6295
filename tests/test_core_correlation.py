"""Unit tests for the Eq. 2 correlation kernel."""

import numpy as np
import pytest

from repro.core import correlation_map, normalize_rows, to_linear_power


class TestHelpers:
    def test_to_linear_power(self):
        np.testing.assert_allclose(to_linear_power(np.array([0.0, 10.0, -10.0])),
                                   [1.0, 10.0, 0.1])

    def test_normalize_rows(self):
        matrix = normalize_rows(np.array([[3.0, 4.0], [1.0, 0.0]]))
        np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0)

    def test_normalize_rows_zero_safe(self):
        matrix = normalize_rows(np.zeros((2, 3)))
        assert np.isfinite(matrix).all()


class TestCorrelationMap:
    def test_perfect_match_scores_one(self):
        probes = np.array([10.0, 2.0, -3.0])
        patterns = probes[:, np.newaxis]  # single grid point, identical
        assert correlation_map(probes, patterns)[0] == pytest.approx(1.0)

    def test_bounded_zero_one(self, rng):
        probes = rng.uniform(-7, 12, size=8)
        patterns = rng.uniform(-7, 12, size=(8, 50))
        surface = correlation_map(probes, patterns)
        assert (surface >= 0.0).all()
        assert (surface <= 1.0 + 1e-12).all()

    def test_true_direction_wins_on_clean_data(self, rng):
        """The grid column equal to the probe vector must maximize W."""
        patterns = rng.uniform(-7, 12, size=(10, 40))
        true_column = 17
        probes = patterns[:, true_column].copy()
        surface = correlation_map(probes, patterns)
        assert int(np.argmax(surface)) == true_column

    def test_offset_invariance_in_linear_domain(self, rng):
        """A constant dB offset (longer link) must not move the argmax."""
        patterns = rng.uniform(-7, 12, size=(10, 40))
        probes = patterns[:, 5].copy()
        shifted = probes - 6.0  # the conference room is 6 dB farther
        original = correlation_map(probes, patterns)
        moved = correlation_map(shifted, patterns)
        assert int(np.argmax(original)) == int(np.argmax(moved))
        np.testing.assert_allclose(original, moved, atol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            correlation_map(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            correlation_map(np.zeros(3), np.zeros((4, 10)))

    def test_more_probes_sharpen_the_peak(self, rng):
        """With more probes, wrong grid points correlate less."""
        n_grid = 60
        patterns_full = rng.uniform(-7, 12, size=(30, n_grid))
        true_column = 30

        def peak_margin(n_probes: int) -> float:
            rows = rng.choice(30, size=n_probes, replace=False)
            probes = patterns_full[rows, true_column]
            surface = correlation_map(probes, patterns_full[rows])
            sorted_surface = np.sort(surface)[::-1]
            return sorted_surface[0] - sorted_surface[1]

        few = np.mean([peak_margin(4) for _ in range(30)])
        many = np.mean([peak_margin(20) for _ in range(30)])
        assert many > few
