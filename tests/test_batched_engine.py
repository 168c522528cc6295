"""The selection kernel against a naive Eq. 2–5 reference (tier 1).

Every experiment runs on one array kernel over padded (trials × probes)
batches (``AngleEstimator.estimate_fused_arrays`` plus the Eq. 4 gather
and result builder of ``CompressiveSectorSelector.select_batch``); the
one-sweep ``estimate`` / ``select`` / ``correlation_surface`` calls are
adapters over it.  These tests drive the kernel and its adapters over
hypothesis-generated ragged, NaN-ridden batches in every fusion mode
and correlation domain and assert **exact** equality with the
deliberately naive reference in :mod:`tests.reference_kernel` — the
pinned experiment outputs depend on every bit.  Also here: the perf
guards (the pattern matrix is never transformed per estimate, and
``repro-bench perf --check`` fails on a latency regression).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.correlation as correlation
from repro.core.compressive import CompressiveSectorSelector
from repro.core.correlation import correlation_map
from repro.core.estimator import _UNIT_CACHE_LIMIT, AngleEstimator
from repro.core.measurements import ProbeMeasurement
from repro.experiments.common import pack_probe_trials, random_probe_columns

from tests.reference_kernel import (
    N_SECTORS,
    ReferenceEstimator,
    ReferenceSelector,
    any_sector,
    batches,
    eq2,
    measurements_of,
    outcome,
    small_table,
    unpack,
    valid_slots,
)

TABLE = small_table()

FUSIONS = ("product", "snr", "rssi")
DOMAINS = ("linear", "db")

# One estimator per (fusion, domain), shared across hypothesis examples
# (estimators are stateless; selectors are not and are built per example).
ESTIMATORS = {
    (fusion, domain): AngleEstimator(TABLE, domain=domain, fusion=fusion)
    for fusion in FUSIONS
    for domain in DOMAINS
}
REFERENCES = {
    (fusion, domain): ReferenceEstimator(TABLE, fusion=fusion, domain=domain)
    for fusion in FUSIONS
    for domain in DOMAINS
}


class TestCorrelationMapBatch:
    @pytest.mark.parametrize("domain", DOMAINS)
    @settings(max_examples=60, deadline=None)
    @given(batch=batches(min_width=2))
    def test_rows_match_reference_bitwise(self, domain, batch):
        """The public Eq. 2 helper, row by row over a padded batch."""
        _, snr, _, mask = unpack(batch)
        patterns = TABLE.sample_matrix(TABLE.grid)[: snr.shape[1]]
        for row in range(snr.shape[0]):
            keep = mask[row]
            if not keep.any():
                continue
            got = correlation_map(snr[row][keep], patterns[keep], domain=domain)
            expected = eq2(snr[row][keep], patterns[keep], domain)
            assert np.array_equal(got, expected, equal_nan=True)


class TestEstimateBatch:
    @pytest.mark.parametrize("fusion", FUSIONS)
    @pytest.mark.parametrize("domain", DOMAINS)
    @settings(max_examples=40, deadline=None)
    @given(batch=batches(sectors=any_sector))
    def test_rows_match_scalar_bitwise(self, fusion, domain, batch):
        """Batch rows and one-sweep calls both equal the reference."""
        estimator = ESTIMATORS[(fusion, domain)]
        reference = REFERENCES[(fusion, domain)]
        ids, snr, rssi, mask = unpack(batch)
        rows = [valid_slots(trial) for trial in batch]
        assert outcome(
            lambda: estimator.estimate_batch(ids, snr_db=snr, rssi_dbm=rssi, mask=mask)
        ) == outcome(lambda: reference.estimate_rows(rows))
        for slots in rows:
            measurements = measurements_of(slots)
            if measurements is None:
                continue

            def expected():
                estimate = reference.estimate_rows([slots])[0]
                if estimate is None:
                    raise ValueError("under-filled")
                return estimate

            assert outcome(lambda: estimator.estimate(measurements)) == outcome(expected)
            expected_surface = outcome(lambda: reference.surface(slots))
            got_surface = outcome(lambda: estimator.correlation_surface(measurements))
            if isinstance(expected_surface, type):
                assert got_surface is expected_surface
            else:
                assert np.array_equal(got_surface, expected_surface[0], equal_nan=True)

    def test_mask_shape_mismatch_rejected(self):
        estimator = ESTIMATORS[("snr", "linear")]
        with pytest.raises(ValueError, match="mask shape"):
            estimator.estimate_batch(
                np.zeros((2, 3), dtype=int), np.zeros((2, 3)), mask=np.ones((2, 4), bool)
            )

    def test_underfilled_row_is_none_not_error(self):
        estimator = ESTIMATORS[("product", "linear")]
        ids = np.array([[0, 1, 2], [0, 1, 2]])
        snr = np.array([[5.0, np.nan, np.nan], [5.0, 4.0, 3.0]])
        rssi = np.full((2, 3), -60.0)
        estimates = estimator.estimate_batch(ids, snr_db=snr, rssi_dbm=rssi)
        assert estimates[0] is None
        assert estimates[1] is not None

    def test_unknown_usable_sector_raises(self):
        estimator = ESTIMATORS[("snr", "linear")]
        ids = np.array([[0, 63]])
        with pytest.raises(KeyError, match="no measured pattern"):
            estimator.estimate_batch(ids, snr_db=np.array([[1.0, 2.0]]))

    def test_grid_index_matches_nearest_lookup(self):
        estimator = ESTIMATORS[("product", "linear")]
        measurements = [
            ProbeMeasurement(sector_id=s, snr_db=5.0 - s, rssi_dbm=-60.0 - s)
            for s in range(4)
        ]
        estimate = estimator.estimate(measurements)
        assert estimate.grid_index == estimator.search_grid.nearest_index(
            estimate.azimuth_deg, estimate.elevation_deg
        )


class TestSelectBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        batch=batches(sectors=any_sector),
        min_probes=st.integers(min_value=2, max_value=4),
        fallback_correlation=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sequence_matches_scalar_bitwise(self, batch, min_probes, fallback_correlation):
        """A batch call and a sequence of one-sweep calls both equal the
        reference's sweep-by-sweep selections, state included."""
        config = dict(min_probes=min_probes, fallback_correlation=fallback_correlation)
        ids, snr, rssi, mask = unpack(batch)
        rows = [valid_slots(trial) for trial in batch]
        reference = ReferenceSelector(TABLE, **config)
        expected = outcome(lambda: reference.select_rows(rows))

        batched = CompressiveSectorSelector(TABLE, **config)
        assert outcome(
            lambda: batched.select_batch(ids, snr_db=snr, rssi_dbm=rssi, mask=mask)
        ) == expected
        if not isinstance(expected, type):
            assert batched.last_selection == reference.last_selection

        measurements = [measurements_of(slots) for slots in rows]
        if any(m is None for m in measurements):
            return
        one_row = CompressiveSectorSelector(TABLE, **config)
        assert outcome(lambda: [one_row.select(m) for m in measurements]) == expected

    def test_reset_restores_initial_selection(self):
        selector = CompressiveSectorSelector(TABLE, initial_sector_id=3)
        selector.select([])  # fallback with nothing: keeps initial
        assert selector.last_selection == 3
        selector.select_batch(
            np.array([[1, 2, 3]]),
            snr_db=np.array([[1.0, 9.0, 2.0]]),
            rssi_dbm=np.array([[-60.0, -55.0, -58.0]]),
        )
        selector.reset()
        assert selector.last_selection == 3
        # The fallback-with-nothing result reflects the reset state.
        assert selector.select([]).sector_id == 3

    def test_fallback_tie_keeps_first_like_python_max(self):
        selector = CompressiveSectorSelector(TABLE, min_probes=4)
        results = selector.select_batch(
            np.array([[1, 2, 3]]),
            snr_db=np.array([[7.0, 7.0, 7.0]]),
            rssi_dbm=np.array([[-60.0, -60.0, -60.0]]),
        )
        assert results[0].fallback
        assert results[0].sector_id == 1


class TestPackProbeTrials:
    def test_padding_mask_and_order(self):
        trials = [
            [ProbeMeasurement(1, 5.0, -60.0), ProbeMeasurement(2, 4.0, -61.0)],
            [ProbeMeasurement(3, 3.0, -62.0)],
        ]
        ids, snr, rssi, mask = pack_probe_trials(trials)
        assert ids.shape == snr.shape == rssi.shape == mask.shape == (2, 2)
        assert ids[0].tolist() == [1, 2] and ids[1][0] == 3
        assert mask.tolist() == [[True, True], [True, False]]
        assert np.isnan(snr[1, 1]) and np.isnan(rssi[1, 1])
        # The tuple is in estimate_batch/select_batch argument order.
        estimator = ESTIMATORS[("product", "linear")]
        estimates = estimator.estimate_batch(ids, snr, rssi, mask)
        assert estimates[0] is not None and estimates[1] is None

    def test_random_probe_columns_matches_single_choice(self):
        draws = np.random.default_rng(11)
        reference = np.random.default_rng(11)
        columns = random_probe_columns(10, 4, draws)
        assert np.array_equal(
            columns, reference.choice(10, size=4, replace=False)
        )


class TestEstimatorHelpers:
    def test_has_sector(self):
        estimator = ESTIMATORS[("product", "linear")]
        assert estimator.has_sector(0)
        assert estimator.has_sector(N_SECTORS - 1)
        assert not estimator.has_sector(N_SECTORS)
        assert not estimator.has_sector(63)

    def test_unit_cache_hits_are_bitwise_and_bounded(self):
        estimator = AngleEstimator(TABLE)
        rows = [0, 2, 4]
        first = estimator._pattern_unit(rows)
        again = estimator._pattern_unit(np.array(rows, dtype=np.intp))
        assert again is first  # dict hit, list and array keys agree
        fresh = correlation.normalize_rows(estimator._prepared[rows].T).T
        assert np.allclose(first, fresh)
        for extra in range(_UNIT_CACHE_LIMIT + 10):
            estimator._pattern_unit([extra % N_SECTORS, (extra + 1) % N_SECTORS, extra % 2])
        assert len(estimator._unit_cache) <= _UNIT_CACHE_LIMIT


class TestPerfGuards:
    def test_estimate_never_transforms_pattern_matrix(self, monkeypatch):
        """The precomputed path pays the (N, K) transform at construction
        only; per-estimate calls transform probe values, never anything
        as wide as the (·, K) pattern matrix."""
        estimator = AngleEstimator(TABLE)  # construction transforms (N, K)
        selector = CompressiveSectorSelector(TABLE)
        grid_points = TABLE.grid.n_points
        seen = []
        original = correlation.to_linear_power

        def counting(values_db):
            seen.append(np.asarray(values_db).shape)
            return original(values_db)

        monkeypatch.setattr(correlation, "to_linear_power", counting)
        measurements = [
            ProbeMeasurement(sector_id=s, snr_db=5.0 + s, rssi_dbm=-60.0 + s)
            for s in range(4)
        ]
        for _ in range(3):
            estimator.estimate(measurements)
            selector.select(measurements)
        assert seen, "the linear domain must still transform probe vectors"
        assert all(shape[-1] != grid_points for shape in seen)

        seen.clear()
        ids = np.array([[0, 1, 2, 3]] * 3)
        snr = np.full((3, 4), 5.0)
        rssi = np.full((3, 4), -60.0)
        estimator.estimate_batch(ids, snr_db=snr, rssi_dbm=rssi)
        assert seen and all(shape[-1] != grid_points for shape in seen)

    def test_perf_check_exit_codes(self, tmp_path, monkeypatch):
        from repro import perf

        healthy = {name: 1.0 for name in perf._LATENCY_METRICS}
        trajectory = tmp_path / "bench.json"
        monkeypatch.setattr(perf, "measure_metrics", lambda repeats=20: dict(healthy))
        assert perf.run_perf(label="baseline", output=str(trajectory)) == 0
        assert trajectory.is_file()
        assert perf.run_perf(output=str(trajectory), check=True) == 0

        regressed = dict(healthy)
        regressed["select_scalar_ms_median"] = 2.5  # > 2x the baseline
        monkeypatch.setattr(
            perf, "measure_metrics", lambda repeats=20: dict(regressed)
        )
        assert perf.run_perf(output=str(trajectory), check=True) == 1

    def test_check_against_baseline_reports_lines(self):
        from repro import perf

        data = {
            "points": [
                {"label": "baseline", "metrics": {"select_scalar_ms_median": 1.0}}
            ]
        }
        assert perf.check_against_baseline(data, {"select_scalar_ms_median": 1.5}) == []
        failures = perf.check_against_baseline(
            data, {"select_scalar_ms_median": 2.1}
        )
        assert failures and "select_scalar_ms_median" in failures[0]
        assert perf.check_against_baseline({"points": []}, {}) != []
        # Metrics absent on either side are skipped, not failed.
        assert perf.check_against_baseline(data, {"other_metric": 9.0}) == []

    def test_supervision_overhead_gate_widens_by_observed_noise(self):
        from repro import perf

        data = {"points": [{"label": "baseline", "metrics": {}}]}
        # within the absolute budget: passes regardless of noise
        assert perf.check_against_baseline(
            data, {"runner_supervision_overhead_pct": 4.0}
        ) == []
        # over budget on a quiet machine: fails
        failures = perf.check_against_baseline(
            data,
            {
                "runner_supervision_overhead_pct": 7.0,
                "runner_supervision_noise_pct": 0.5,
            },
        )
        assert failures and "runner_supervision_overhead_pct" in failures[0]
        # the same overhead inside the measured jitter band: tolerated
        assert perf.check_against_baseline(
            data,
            {
                "runner_supervision_overhead_pct": 7.0,
                "runner_supervision_noise_pct": 6.0,
            },
        ) == []

    def test_parallel_ratio_gate_widens_by_observed_noise(self):
        from repro import perf

        data = {"points": [{"label": "baseline", "metrics": {}}]}
        # jobs=4 faster than serial: passes
        assert perf.check_against_baseline(
            data, {"scenario_jobs4_over_jobs1_ratio": 0.92}
        ) == []
        # slower than serial on a quiet machine: fails
        failures = perf.check_against_baseline(
            data,
            {
                "scenario_jobs4_over_jobs1_ratio": 1.15,
                "scenario_jobs_noise_pct": 1.0,
            },
        )
        assert failures and "scenario_jobs4_over_jobs1_ratio" in failures[0]
        # the same ratio inside the measured jitter band: tolerated
        assert perf.check_against_baseline(
            data,
            {
                "scenario_jobs4_over_jobs1_ratio": 1.15,
                "scenario_jobs_noise_pct": 20.0,
            },
        ) == []

    def test_environment_capture_and_mismatch_warnings(self):
        from repro import perf

        env = perf._environment()
        assert isinstance(env["cpu_count"], int)
        assert env["start_method"] in ("fork", "spawn", "forkserver")
        assert perf.environment_mismatches(env, env) == []
        # cpu_count stored as a string by pre-int points still matches.
        legacy = dict(env, cpu_count=str(env["cpu_count"]))
        del legacy["start_method"]  # older points predate the key
        assert perf.environment_mismatches(legacy, env) == []
        moved = dict(env, numpy="0.0.1")
        lines = perf.environment_mismatches(moved, env)
        assert len(lines) == 1 and "numpy" in lines[0]

    def test_environment_values_compare_numerically(self):
        # Captures changed type across trajectory history (cpu_count
        # was the string "1" before it became the int 1); numeric
        # values compare as numbers regardless of representation.
        from repro import perf

        assert perf._normalize_env_value("1") == perf._normalize_env_value(1)
        assert perf._normalize_env_value(1.0) == perf._normalize_env_value(1)
        assert perf._normalize_env_value(" 4 ") == perf._normalize_env_value(4)
        assert perf._normalize_env_value("fork") == "fork"
        assert perf._normalize_env_value(True) != perf._normalize_env_value(1)
        assert (
            perf.environment_mismatches(
                {"cpu_count": "1"}, {"cpu_count": 1}
            )
            == []
        )
        lines = perf.environment_mismatches({"cpu_count": "2"}, {"cpu_count": 1})
        assert len(lines) == 1 and "cpu_count" in lines[0]

    def test_probe_design_throughput_gate(self):
        from repro import perf

        data = {
            "points": [
                {"label": "baseline", "metrics": {}},
                {"label": "probe-designer", "metrics": {"probe_design_per_s": 400.0}},
            ]
        }
        # Throughput holding (or improving): passes.
        assert perf.check_against_baseline(
            data, {"probe_design_per_s": 410.0}
        ) == []
        # Collapsing below committed / REGRESSION_FACTOR: fails, and the
        # reference is the most recent point carrying the metric, not
        # the (pre-designer) baseline label.
        failures = perf.check_against_baseline(
            data, {"probe_design_per_s": 400.0 / perf.REGRESSION_FACTOR - 1.0}
        )
        assert failures and "probe_design_per_s" in failures[0]
        # A trajectory with no designer point yet gates nothing.
        assert perf.check_against_baseline(
            {"points": [{"label": "baseline", "metrics": {}}]},
            {"probe_design_per_s": 1.0},
        ) == []
