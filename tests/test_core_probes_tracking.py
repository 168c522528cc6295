"""Tests for probe designers, adaptive control, and the tracking loop."""

import numpy as np
import pytest

from repro.core import (
    AdaptiveProbeController,
    AngleEstimate,
    CompressiveSectorSelector,
    GainDiverseDesigner,
    ProbeMeasurement,
    RandomProbeDesigner,
    SectorTracker,
)


class TestRandomProbeDesigner:
    def test_size_and_uniqueness(self, rng):
        designer = RandomProbeDesigner()
        chosen = designer.design(10, list(range(1, 35)), rng)
        assert len(chosen) == 10
        assert len(set(chosen)) == 10
        assert set(chosen) <= set(range(1, 35))

    def test_varies_between_sweeps(self, rng):
        designer = RandomProbeDesigner()
        available = list(range(1, 35))
        draws = {tuple(designer.design(10, available, rng)) for _ in range(10)}
        assert len(draws) > 1

    def test_validation(self, rng):
        designer = RandomProbeDesigner()
        with pytest.raises(ValueError):
            designer.design(0, [1, 2], rng)
        with pytest.raises(ValueError):
            designer.design(3, [1, 2], rng)


class TestGainDiverseDesigner:
    def test_deterministic_and_cached(self, pattern_table, rng):
        designer = GainDiverseDesigner(pattern_table)
        available = [s for s in pattern_table.sector_ids if s != 0]
        first = designer.design(8, available, rng)
        second = designer.design(8, available, rng)
        assert first == second

    def test_pinned_greedy_order(self, pattern_table, rng):
        """Literal subsets of the greedy max-min order on the default table."""
        designer = GainDiverseDesigner(pattern_table)
        available = [s for s in pattern_table.sector_ids if s != 0]
        assert designer.design(8, available, rng) == [62, 20, 63, 8, 13, 5, 24, 21]
        assert designer.design(12, available, rng) == [
            62, 20, 63, 8, 13, 5, 24, 21, 2, 11, 18, 22,
        ]

    def test_prefix_property(self, pattern_table, rng):
        """Smaller budgets are prefixes of larger ones (greedy order)."""
        designer = GainDiverseDesigner(pattern_table)
        available = [s for s in pattern_table.sector_ids if s != 0]
        assert (
            designer.design(6, available, rng)
            == designer.design(12, available, rng)[:6]
        )

    def test_diversity_beats_random_similarity(self, pattern_table, rng):
        """The greedy set's patterns overlap less than a random set's."""
        from repro.core import normalize_rows, to_linear_power

        available = [s for s in pattern_table.sector_ids if s != 0]
        designer = GainDiverseDesigner(pattern_table)

        def mean_similarity(ids):
            rows = normalize_rows(
                np.array([to_linear_power(pattern_table.pattern(s).ravel()) for s in ids])
            )
            similarity = rows @ rows.T
            off_diagonal = similarity[~np.eye(len(ids), dtype=bool)]
            return float(off_diagonal.mean())

        diverse = mean_similarity(designer.design(10, available, rng))
        random_sets = [
            mean_similarity(RandomProbeDesigner().design(10, available, rng))
            for _ in range(10)
        ]
        assert diverse < np.mean(random_sets)


class TestAdaptiveProbeController:
    def _estimate(self, azimuth: float) -> AngleEstimate:
        return AngleEstimate(
            azimuth_deg=azimuth, elevation_deg=0.0, correlation=0.9, n_probes_used=14
        )

    def test_starts_at_ceiling(self):
        controller = AdaptiveProbeController(min_probes=6, max_probes=20)
        assert controller.n_probes == 20

    def test_decays_when_static(self):
        controller = AdaptiveProbeController(min_probes=6, max_probes=20, decrease_step=2)
        for _ in range(20):
            controller.update(self._estimate(10.0))
        assert controller.n_probes == 6

    def test_reopens_on_motion(self):
        controller = AdaptiveProbeController(
            min_probes=6, max_probes=20, motion_threshold_deg=5.0, increase_step=6
        )
        for _ in range(20):
            controller.update(self._estimate(10.0))
        controller.update(self._estimate(40.0))  # big jump
        assert controller.n_probes > 6

    def test_failed_sweep_treated_as_motion(self):
        controller = AdaptiveProbeController(min_probes=6, max_probes=20)
        for _ in range(20):
            controller.update(self._estimate(0.0))
        floor = controller.n_probes
        controller.update(None)
        assert controller.n_probes > floor

    def test_small_jitter_ignored(self):
        controller = AdaptiveProbeController(
            min_probes=6, max_probes=20, motion_threshold_deg=5.0
        )
        for offset in (0.0, 2.0, -2.0, 1.0) * 10:
            controller.update(self._estimate(10.0 + offset))
        assert controller.n_probes == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveProbeController(min_probes=1, max_probes=0)
        with pytest.raises(ValueError):
            AdaptiveProbeController(motion_threshold_deg=0.0)


class TestSectorTracker:
    def _measure_factory(self, pattern_table, azimuth):
        def measure(sector_ids, rng):
            return [
                ProbeMeasurement(
                    s,
                    float(pattern_table.gain(s, azimuth, 0.0)),
                    float(pattern_table.gain(s, azimuth, 0.0)) - 71.5,
                )
                for s in sector_ids
            ]

        return measure

    def test_step_records_history(self, pattern_table, rng):
        tracker = SectorTracker(CompressiveSectorSelector(pattern_table), n_probes=12)
        measure = self._measure_factory(pattern_table, -20.0)
        step = tracker.step(measure, rng)
        assert len(step.probe_ids) == 12
        assert step.training_time_us == pytest.approx(12 * 36.0 + 49.1)
        assert tracker.history == [step]
        assert tracker.selections == [step.result.sector_id]

    def test_step_probes_in_ascending_sweep_order(self, pattern_table):
        """The draw is sorted into sweep order; per-probe noise in the
        blockage, mobility and live-protocol loops is drawn in it."""
        tracker = SectorTracker(CompressiveSectorSelector(pattern_table), n_probes=10)
        measure = self._measure_factory(pattern_table, 0.0)
        rng = np.random.default_rng(2017)
        steps = [tracker.step(measure, rng) for _ in range(2)]
        assert [step.probe_ids for step in steps] == [
            [2, 3, 11, 15, 25, 27, 29, 30, 61, 62],
            [3, 9, 15, 17, 19, 22, 28, 29, 30, 31],
        ]

    def test_run_accumulates(self, pattern_table, rng):
        tracker = SectorTracker(CompressiveSectorSelector(pattern_table), n_probes=10)
        steps = tracker.run(self._measure_factory(pattern_table, 5.0), 5, rng)
        assert len(steps) == 5
        assert tracker.total_training_time_us == pytest.approx(5 * (10 * 36.0 + 49.1))

    def test_adaptive_budget_shrinks_on_static_scene(self, pattern_table, rng):
        controller = AdaptiveProbeController(min_probes=6, max_probes=18)
        tracker = SectorTracker(
            CompressiveSectorSelector(pattern_table), adaptive=controller
        )
        tracker.run(self._measure_factory(pattern_table, 0.0), 12, rng)
        assert len(tracker.history[0].probe_ids) == 18
        assert len(tracker.history[-1].probe_ids) < 18

    def test_budget_capped_by_candidates(self, pattern_table, rng):
        tracker = SectorTracker(CompressiveSectorSelector(pattern_table), n_probes=99)
        step = tracker.step(self._measure_factory(pattern_table, 0.0), rng)
        assert len(step.probe_ids) == 34
