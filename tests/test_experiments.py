"""Tests for the experiment harness (reduced configs, full code paths)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import (
    BoxStats,
    Fig7Config,
    Fig8Config,
    Fig9Config,
    Fig10Config,
    Fig11Config,
    Table1Config,
    build_testbed,
    count_lobes,
    random_subsweep,
    record_directions,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_table1,
    stability_of_selections,
)
from repro.channel import conference_room


class TestBoxStats:
    def test_ordering_invariant(self, rng):
        stats = BoxStats.from_samples(rng.normal(size=500))
        assert (
            stats.whisker_low
            <= stats.box_low
            <= stats.median
            <= stats.box_high
            <= stats.whisker_high
        )
        assert stats.n_samples == 500

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxStats.from_samples([])

    def test_constant_samples(self):
        stats = BoxStats.from_samples([3.0, 3.0, 3.0])
        assert stats.median == stats.whisker_high == 3.0

    # Few distinct values make ties common; signed zeros are one value
    # (their order among ties is unspecified in numpy too).
    _SAMPLES = st.lists(
        st.one_of(
            st.sampled_from([0.0, 1.0, 2.5, -7.0, 1e308, -1e308, 5e-324]),
            st.floats(allow_nan=False, allow_infinity=True).map(lambda x: x + 0.0),
        ),
        min_size=1,
        max_size=60,
    )

    @settings(max_examples=300, deadline=None)
    @given(samples=_SAMPLES, as_array=st.booleans())
    @example(samples=[4.0], as_array=False)  # n = 1
    @example(samples=[1.0, 3.0, 2.0], as_array=True)  # odd n
    @example(samples=[4.0, 1.0, 3.0, 2.0], as_array=False)  # even n
    @example(samples=[2.0, 2.0, 1.0, 2.0, 2.0, 5.0], as_array=True)  # ties
    def test_one_sort_equals_numpy_bit_for_bit(self, samples, as_array):
        values = np.asarray(samples, dtype=float)
        with np.errstate(all="ignore"):
            expected = [float(np.median(values))] + np.percentile(
                values, (25, 75, 0.5, 99.5)
            ).tolist()
            stats = BoxStats.from_samples(values if as_array else samples)
        got = [
            stats.median, stats.box_low, stats.box_high,
            stats.whisker_low, stats.whisker_high,
        ]
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
        assert stats.n_samples == len(samples)

    def test_a_nan_sample_makes_every_statistic_nan(self):
        stats = BoxStats.from_samples([1.0, np.nan, 2.0])
        with np.errstate(all="ignore"):
            median = np.median([1.0, np.nan, 2.0])
            percentiles = np.percentile([1.0, np.nan, 2.0], (25, 75, 0.5, 99.5))
        assert np.isnan(median) and np.isnan(percentiles).all()
        assert all(
            math.isnan(value)
            for value in (
                stats.median, stats.box_low, stats.box_high,
                stats.whisker_low, stats.whisker_high,
            )
        )


class TestStability:
    def test_all_same(self):
        assert stability_of_selections([5, 5, 5]) == 1.0

    def test_modal_share(self):
        assert stability_of_selections([1, 1, 2, 3]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stability_of_selections([])


class TestRecordings:
    def test_recording_structure(self, testbed, rng):
        recordings = record_directions(
            testbed, conference_room(6.0), [-10.0, 10.0], [0.0], 3, rng
        )
        assert len(recordings) == 2
        for recording in recordings:
            assert recording.true_snr_db.shape == (34,)
            assert len(recording.sweeps) == 3
            for sweep in recording.sweeps:
                assert set(sweep) <= set(testbed.tx_sector_ids)
            assert recording.optimal_snr_db() == recording.true_snr_db.max()

    def test_random_subsweep_respects_reports(self, testbed, rng):
        recordings = record_directions(
            testbed, conference_room(6.0), [0.0], [0.0], 1, rng
        )
        sweep = recordings[0].sweeps[0]
        subset = random_subsweep(sweep, testbed.tx_sector_ids, 14, rng)
        assert len(subset) <= 14
        for measurement in subset:
            assert sweep[measurement.sector_id] is measurement

    def test_random_subsweep_validates_count(self, testbed, rng):
        with pytest.raises(ValueError):
            random_subsweep({}, testbed.tx_sector_ids, 35, rng)


_FAST7 = Fig7Config(
    probe_counts=(8, 20),
    lab_azimuth_step_deg=20.0,
    lab_elevation_step_deg=15.0,
    conference_azimuth_step_deg=15.0,
    n_sweeps=1,
    subsamples_per_sweep=1,
)


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7(_FAST7)

    def test_series_aligned(self, result):
        for series in (result.lab, result.conference):
            assert series.probe_counts == [8, 20]
            assert len(series.azimuth_stats) == 2
            assert len(series.elevation_stats) == 2

    def test_error_shrinks_with_probes(self, result):
        assert result.lab.azimuth_median(20) <= result.lab.azimuth_median(8)

    def test_errors_reasonable_at_20_probes(self, result):
        assert result.lab.azimuth_median(20) < 10.0
        assert result.conference.azimuth_median(20) < 10.0

    def test_format_rows(self, result):
        rows = result.format_rows()
        assert any("lab" in row for row in rows)
        assert any("conference" in row for row in rows)


class TestFig8And9:
    @pytest.fixture(scope="class")
    def fig8(self):
        return run_fig8(Fig8Config(probe_counts=(6, 20, 34), azimuth_step_deg=20.0, n_sweeps=12))

    @pytest.fixture(scope="class")
    def fig9(self):
        return run_fig9(Fig9Config(probe_counts=(6, 20, 34), azimuth_step_deg=20.0, n_sweeps=8))

    def test_stability_increases_with_probes(self, fig8):
        assert fig8.css_at(34) > fig8.css_at(6)

    def test_ssw_stability_below_one(self, fig8):
        assert 0.4 < fig8.ssw_stability < 1.0

    def test_css_beats_ssw_at_full_probing(self, fig8):
        assert fig8.css_at(34) > fig8.ssw_stability - 0.05

    def test_loss_decreases_with_probes(self, fig9):
        assert fig9.css_at(34) < fig9.css_at(6)

    def test_ssw_loss_small(self, fig9):
        assert 0.0 < fig9.ssw_loss_db < 2.0

    def test_css_reaches_ssw_quality(self, fig9):
        assert fig9.css_at(34) <= fig9.ssw_loss_db + 0.3

    def test_crossovers_defined(self, fig8, fig9):
        assert fig8.crossover_probes() in fig8.probe_counts
        assert fig9.crossover_probes() in fig9.probe_counts


class TestFig10:
    def test_paper_numbers_exact(self):
        result = run_fig10(Fig10Config())
        assert result.ssw_time_ms == pytest.approx(1.273, abs=0.001)
        assert result.reference_time_ms == pytest.approx(0.553, abs=0.001)
        assert result.speedup == pytest.approx(2.3, abs=0.05)

    def test_linear_in_probes(self):
        result = run_fig10(Fig10Config(probe_counts=(10, 20, 30)))
        times = result.css_time_ms
        assert times[1] - times[0] == pytest.approx(times[2] - times[1])


class TestFig11:
    def test_throughput_magnitudes(self):
        result = run_fig11(Fig11Config(n_intervals=15))
        assert result.directions_deg == [-45.0, 0.0, 45.0]
        for css, ssw in zip(result.css_gbps, result.ssw_gbps):
            assert 0.8 < css <= 1.8
            assert 0.8 < ssw <= 1.8
            # Same order of magnitude as the paper's ~1.5 Gbps.
            assert abs(css - ssw) < 0.5


class TestTable1:
    def test_captures_match_spec(self):
        result = run_table1(Table1Config(n_bursts_per_pose=1))
        assert result.beacon_consistent
        assert result.sweep_consistent
        # Aggregating across poses should confirm most slots.
        assert result.beacon_coverage() > 0.9
        assert result.sweep_coverage() > 0.9


class TestFig5Helpers:
    def test_count_lobes_single(self):
        pattern = np.full(100, -7.0)
        pattern[40:50] = 10.0
        assert count_lobes(pattern) == 1

    def test_count_lobes_two(self):
        pattern = np.full(100, -7.0)
        pattern[10:15] = 10.0
        pattern[60:70] = 9.0
        assert count_lobes(pattern) == 2

    def test_count_lobes_wraps_circularly(self):
        pattern = np.full(100, -7.0)
        pattern[:5] = 10.0
        pattern[-5:] = 10.0  # one lobe across the seam
        assert count_lobes(pattern) == 1
