"""Frame-major reports, array-backed recordings, row-averaged campaigns.

Each path is compared bit for bit with the frozen one-call-at-a-time
reference in :mod:`tests.reference_observe`: the reports (signs of
zeros included), the exception a NaN/+inf frame raises, and the
generator state left behind.
"""

from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import MeasurementModel, observation, ziggurat
from repro.channel.environment import conference_room
from repro.experiments.common import record_directions
from repro.measurement.campaign import PatternMeasurementCampaign
from repro.measurement.processing import robust_average, robust_average_rows
from repro.runtime import ScenarioRunner
from tests import reference_observe as reference

NOISE_FLOOR_DBM = -71.5

#: Truth values: mostly finite, with NaN / ±inf frames mixed in.
truths = st.one_of(
    st.floats(-30.0, 40.0, allow_nan=False),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0]),
)

custom_models = st.builds(
    MeasurementModel,
    snr_step_db=st.sampled_from([0.25, 0.5, 1.0, 0.3]),
    rssi_step_db=st.sampled_from([1.0, 0.25, 2.0]),
    decode_threshold_db=st.floats(-12.0, 5.0),
    decode_width_db=st.floats(0.1, 4.0),
    report_dropout_probability=st.floats(0.0, 0.5),
    base_noise_std_db=st.floats(0.0, 2.0),
    low_snr_extra_noise_db=st.floats(0.0, 3.0),
    outlier_probability=st.floats(0.0, 0.9),
    outlier_magnitude_db=st.floats(0.0, 20.0),
    rssi_offset_db=st.floats(-5.0, 5.0),
)
models = st.one_of(
    st.just(MeasurementModel()), st.just(MeasurementModel.noiseless()), custom_models
)


def _same(a: float, b: float) -> bool:
    return a == b and np.signbit(a) == np.signbit(b)


def _reference_block(model, values, rng):
    """Reports of one scalar reference call per frame, or the raised error."""
    reports: List[Optional[tuple]] = []
    for value in values:
        try:
            reports.append(reference.observe(model, value, NOISE_FLOOR_DBM, rng))
        except (ValueError, OverflowError) as error:
            return reports, type(error)
    return reports, None


class TestFrameBody:
    @settings(max_examples=150, deadline=None)
    @given(models, st.lists(truths, min_size=0, max_size=40), st.integers(0, 2**32 - 1))
    def test_observe_frames_matches_the_scalar_reference(self, model, values, seed):
        ours_rng = np.random.default_rng(seed)
        theirs_rng = np.random.default_rng(seed)
        expected, error = _reference_block(model, values, theirs_rng)
        block = np.array(values, dtype=float)
        if error is not None:
            with pytest.raises(error):
                model.observe_frames(block, NOISE_FLOOR_DBM, ours_rng)
        else:
            batch = model.observe_frames(block, NOISE_FLOOR_DBM, ours_rng)
            assert len(batch) == len(values)
            for index, report in enumerate(expected):
                if report is None:
                    assert not batch.reported[index]
                    assert np.isnan(batch.snr_db[index]) and np.isnan(batch.rssi_dbm[index])
                else:
                    assert batch.reported[index]
                    assert _same(batch.snr_db[index], report[0])
                    assert _same(batch.rssi_dbm[index], report[1])
        assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(models, st.lists(truths, min_size=1, max_size=30), st.integers(0, 2**32 - 1))
    def test_observe_matches_the_scalar_reference(self, model, values, seed):
        ours_rng = np.random.default_rng(seed)
        theirs_rng = np.random.default_rng(seed)
        for value in np.array(values, dtype=float):
            try:
                expected = reference.observe(model, value, NOISE_FLOOR_DBM, theirs_rng)
            except (ValueError, OverflowError) as error:
                with pytest.raises(type(error)):
                    model.observe(value, NOISE_FLOOR_DBM, ours_rng)
                break
            observation = model.observe(value, NOISE_FLOOR_DBM, ours_rng)
            if expected is None:
                assert observation is None
            else:
                assert _same(observation.snr_db, expected[0])
                assert _same(observation.rssi_dbm, expected[1])
        assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state

    def test_rejects_non_1d_input(self, rng):
        with pytest.raises(ValueError):
            MeasurementModel().observe_frames(np.zeros((2, 3)), NOISE_FLOOR_DBM, rng)

    def test_empty_block(self, rng):
        state = rng.bit_generator.state
        batch = MeasurementModel().observe_frames(np.array([]), NOISE_FLOOR_DBM, rng)
        assert len(batch) == 0 and batch.reported.dtype == bool
        assert rng.bit_generator.state == state


#: A block of 0-20 sweeps of 0-40 frames each.
sweep_blocks = st.tuples(st.integers(0, 20), st.integers(0, 40)).flatmap(
    lambda shape: st.lists(
        truths, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda values: np.array(values, dtype=float).reshape(shape))
)
fade_stds = st.one_of(
    st.just(0.0), st.floats(0.0, 8.0), st.sampled_from([-1.0, float("nan")])
)


def _assert_block_matches(batch, expected):
    reported = batch.reported.reshape(-1)
    snr = batch.snr_db.reshape(-1)
    rssi = batch.rssi_dbm.reshape(-1)
    for index, report in enumerate(expected):
        if report is None:
            assert not reported[index]
            assert np.isnan(snr[index]) and np.isnan(rssi[index])
        else:
            assert reported[index]
            assert _same(snr[index], report[0])
            assert _same(rssi[index], report[1])


class _Counting:
    """Counts the replay's windows and its normals replayed off the fast path."""

    def __init__(self, monkeypatch):
        self.windows = 0
        self.slow_normals = 0
        fill, replay = observation._Replay._fill, observation._Replay._replay_normal

        def counted_fill(replay_self, *args):
            self.windows += 1
            return fill(replay_self, *args)

        def counted_replay(replay_self, word):
            self.slow_normals += 1
            return replay(replay_self, word)

        monkeypatch.setattr(observation._Replay, "_fill", counted_fill)
        monkeypatch.setattr(observation._Replay, "_replay_normal", counted_replay)


class TestSweepReplay:
    """``observe_sweeps`` against the scalar fade-then-frames loop."""

    @settings(max_examples=100, deadline=None)
    @given(models, sweep_blocks, fade_stds, st.integers(0, 2**32 - 1))
    def test_matches_the_scalar_recording_loop(self, model, block, fade_std_db, seed):
        ours_rng = np.random.default_rng(seed)
        theirs_rng = np.random.default_rng(seed)
        expected, error = reference.observe_sweeps(
            model, block, NOISE_FLOOR_DBM, fade_std_db, theirs_rng
        )
        if error is not None:
            with pytest.raises(error):
                model.observe_sweeps(block, NOISE_FLOOR_DBM, ours_rng, fade_std_db)
        else:
            batch = model.observe_sweeps(block, NOISE_FLOOR_DBM, ours_rng, fade_std_db)
            assert batch.reported.shape == batch.snr_db.shape == block.shape
            _assert_block_matches(batch, expected)
        assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state

    def test_long_stream_spans_windows_and_replays_slow_normals(self, monkeypatch):
        counting = _Counting(monkeypatch)
        model = MeasurementModel()
        block = np.random.default_rng(1).uniform(-14.0, 16.0, (2500, 40))
        ours_rng = np.random.default_rng(17)
        theirs_rng = np.random.default_rng(17)
        batch = model.observe_sweeps(block, NOISE_FLOOR_DBM, ours_rng, 3.0)
        expected, error = reference.observe_sweeps(
            model, block, NOISE_FLOOR_DBM, 3.0, theirs_rng
        )
        assert error is None
        _assert_block_matches(batch, expected)
        assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state
        assert counting.slow_normals > 500
        assert counting.windows >= 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e308])
    def test_a_bad_reading_windows_in_raises_after_its_draws(self, bad):
        model = MeasurementModel()
        block = np.random.default_rng(2).uniform(-5.0, 16.0, (300, 34))
        block[211, 17] = bad
        ours_rng = np.random.default_rng(5)
        theirs_rng = np.random.default_rng(5)
        _, error = reference.observe_sweeps(model, block, NOISE_FLOOR_DBM, 2.0, theirs_rng)
        assert error is not None
        with pytest.raises(error):
            model.observe_sweeps(block, NOISE_FLOOR_DBM, ours_rng, 2.0)
        assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state

    def test_readings_that_round_to_zero_report_positive_zero(self):
        model = MeasurementModel.noiseless()
        block = np.array([[-0.1, -0.05, -0.0, 0.05, 0.1]])
        ours_rng = np.random.default_rng(6)
        theirs_rng = np.random.default_rng(6)
        batch = model.observe_sweeps(block, 0.0, ours_rng)
        expected, _ = reference.observe_sweeps(model, block, 0.0, 0.0, theirs_rng)
        _assert_block_matches(batch, expected)
        assert not np.signbit(batch.snr_db).any() and not np.signbit(batch.rssi_dbm).any()

    def test_a_buffered_half_word_survives(self):
        model = MeasurementModel()
        block = np.random.default_rng(3).uniform(-10.0, 14.0, (6, 34))
        ours_rng = np.random.default_rng(9)
        theirs_rng = np.random.default_rng(9)
        for generator in (ours_rng, theirs_rng):
            generator.random(dtype=np.float32)  # leaves has_uint32 set
        model.observe_sweeps(block, NOISE_FLOOR_DBM, ours_rng, 1.5)
        reference.observe_sweeps(model, block, NOISE_FLOOR_DBM, 1.5, theirs_rng)
        assert ours_rng.bit_generator.state["has_uint32"] == 1
        assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state
        assert ours_rng.random(dtype=np.float32) == theirs_rng.random(dtype=np.float32)

    def test_other_bit_generators_are_rejected(self):
        rng = np.random.Generator(np.random.MT19937(4))
        with pytest.raises(TypeError, match="PCG64"):
            MeasurementModel().observe_frames(np.zeros(3), NOISE_FLOOR_DBM, rng)

    def test_rejects_non_2d_input(self, rng):
        with pytest.raises(ValueError):
            MeasurementModel().observe_sweeps(np.zeros(3), NOISE_FLOOR_DBM, rng)


class TestZigguratTables:
    """The committed fast-path tables against the installed numpy's sampler."""

    def test_anchors(self):
        assert ziggurat.KI[0] == 0x000EF33D8025EF6A
        assert ziggurat.KI[1] == 0
        assert len(ziggurat.WI) == len(ziggurat.KI) == 256

    def test_every_row_against_crafted_draws(self):
        for idx in range(256):
            ki = ziggurat.KI[idx]
            # The largest accepted power of two; row 1 accepts none, and
            # its slow path returns the product after the zero word.
            rabs = 1 << (ki - 1).bit_length() - 1 if ki > 1 else 1
            value, _ = ziggurat.normal_of_word(ziggurat.crafted_word(idx, rabs))
            assert value == rabs * ziggurat.WI[idx], idx
            if ki > 0:
                assert ziggurat.normal_of_word(ziggurat.crafted_word(idx, ki - 1))[1] == 1
            assert ziggurat.normal_of_word(ziggurat.crafted_word(idx, ki))[1] > 1


class TestModelValidation:
    @pytest.mark.parametrize("name", ["snr_step_db", "rssi_step_db", "decode_width_db"])
    @pytest.mark.parametrize("value", [0.0, -0.25, float("nan")])
    def test_non_positive_steps_and_width_are_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            MeasurementModel(**{name: value})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_noise_std_db": -0.1},
            {"low_snr_extra_noise_db": -1.0},
            {"outlier_magnitude_db": -10.0},
            {"outlier_magnitude_db": float("inf")},
            {"outlier_magnitude_db": 1e308},
        ],
    )
    def test_draws_numpy_would_reject_are_rejected_up_front(self, kwargs):
        with pytest.raises(ValueError):
            MeasurementModel(**kwargs)


class TestRowAverage:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 12).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.one_of(
                        st.floats(-20.0, 20.0, allow_nan=False),
                        st.floats(-20.0, 20.0, allow_nan=False).map(
                            lambda value: round(value / 0.25) * 0.25
                        ),
                        st.sampled_from([0.0, -0.0, 1.0, 5.0, 9.0, -4.0, float("nan")]),
                    ),
                    min_size=width,
                    max_size=width,
                ),
                min_size=1,
                max_size=20,
            )
        ),
        st.sampled_from([4.0, 1.0, 0.0]),
    )
    def test_rows_match_the_per_cell_average(self, rows, max_deviation_db):
        samples = np.array(rows, dtype=float).reshape(len(rows), -1)
        got = robust_average_rows(samples, max_deviation_db)
        for row, value in zip(samples, got):
            expected = robust_average([x for x in row if not np.isnan(x)], max_deviation_db)
            if np.isnan(expected):
                assert np.isnan(value)
            else:
                assert _same(value, expected)

    def test_all_rejected_row_keeps_the_median_ties(self):
        samples = np.array([[0.0, 100.0, 200.0, np.nan], [1.0, 1.0, 9.0, 9.0]])
        got = robust_average_rows(samples, max_deviation_db=1.0)
        assert got[0] == robust_average([0.0, 100.0, 200.0], 1.0) == 100.0
        assert got[1] == robust_average([1.0, 1.0, 9.0, 9.0], 1.0)

    def test_rejects_non_2d_input(self):
        with pytest.raises(ValueError):
            robust_average_rows(np.zeros(3))


class TestCampaignAverage:
    def test_averaged_matrix_matches_the_per_cell_loop(self, testbed):
        campaign = PatternMeasurementCampaign(
            testbed.dut_antenna,
            testbed.dut_codebook,
            measurement_model=testbed.measurement_model,
        )
        truth = np.random.default_rng(5).uniform(-12.0, 14.0, (7, 9))
        n_sweeps = 4
        ours_rng = np.random.default_rng(11)
        got = campaign._averaged(truth, n_sweeps, ours_rng)

        # The nested-list loop the campaign used: sweep, position, sector.
        theirs_rng = np.random.default_rng(11)
        noise_floor = campaign.budget.noise_floor_dbm
        samples = [[[] for _ in range(truth.shape[1])] for _ in range(truth.shape[0])]
        for _ in range(n_sweeps):
            for position in range(truth.shape[0]):
                for sector in range(truth.shape[1]):
                    report = reference.observe(
                        testbed.measurement_model,
                        truth[position, sector],
                        noise_floor,
                        theirs_rng,
                    )
                    if report is not None:
                        samples[position][sector].append(report[0])
        expected = np.array([[robust_average(cell) for cell in row] for row in samples])
        assert np.array_equal(got, expected, equal_nan=True)
        assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state


@pytest.fixture(scope="module")
def recordings(testbed):
    return record_directions(
        testbed, conference_room(6.0), [-30.0, 0.0, 25.0], [0.0, 8.0], 4,
        np.random.default_rng(3),
    )


class TestRecordings:
    def test_sweep_rows_match_the_scalar_reference(self, testbed):
        environment = conference_room(6.0)
        truth = np.random.default_rng(8).uniform(-12.0, 14.0, len(testbed.tx_sector_ids))
        noise_floor = testbed.budget.noise_floor_dbm
        ours_rng = np.random.default_rng(21)
        reports = testbed.measurement_model.observe_sweeps(
            np.tile(truth, (5, 1)), noise_floor, ours_rng, environment.shadowing_std_db
        )
        present, snr, rssi = reports.reported, reports.snr_db, reports.rssi_dbm
        theirs_rng = np.random.default_rng(21)
        sweeps = []
        for _ in range(5):
            fade_db = theirs_rng.normal(0.0, environment.shadowing_std_db)
            sweeps.append(
                reference.record_sweep(
                    testbed.measurement_model,
                    testbed.tx_sector_ids,
                    truth + fade_db,
                    noise_floor,
                    theirs_rng,
                )
            )
        expected = reference.packed_sweeps(sweeps, testbed.tx_sector_ids)
        for ours, theirs in zip((present, snr, rssi), expected):
            assert np.array_equal(ours, theirs, equal_nan=True)
        assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state

    def test_recordings_are_read_only(self, recordings):
        with pytest.raises(ValueError):
            recordings[0].snr_db[0, 0] = 1.0

    @pytest.mark.parametrize("order", ["own", "permuted", "subset", "unknown"])
    def test_packed_sweeps_match_the_dict_walk(self, recordings, order):
        for index, recording in enumerate(recordings):
            ids = list(recording.tx_sector_ids)
            if order == "permuted":
                ids = list(np.random.default_rng(index).permutation(ids))
            elif order == "subset":
                ids = ids[::3][::-1]
            elif order == "unknown":
                ids = ids[:5] + [999, -1] + ids[5:9]
            got = recording.packed_sweeps(ids)
            expected = reference.packed_sweeps(recording.sweeps, ids)
            for ours, theirs in zip(got, expected):
                assert ours.dtype == theirs.dtype
                assert np.array_equal(ours, theirs, equal_nan=True)

    def test_sweeps_view_round_trips_the_arrays(self, recordings):
        for recording in recordings:
            assert len(recording.sweeps) == recording.n_sweeps
            assert recording.sweeps is recording.sweeps  # built once
            for row, sweep in enumerate(recording.sweeps):
                assert list(sweep) == [
                    sector_id
                    for column, sector_id in enumerate(recording.tx_sector_ids)
                    if recording.present[row, column]
                ]
                for measurement in sweep.values():
                    assert type(measurement.snr_db) is float


class _PerTrialPolicy:
    """Draws the call's probe count from ``widths``, then each trial's
    subset with its own ``rng.choice`` call."""

    name = "per-trial"

    def __init__(self, widths):
        self.widths = widths

    def probe_positions(self, n_trials, pool, rng):
        width = int(rng.choice(self.widths))
        rows = [rng.choice(len(pool), size=width, replace=False) for _ in range(n_trials)]
        return np.array(rows, dtype=np.intp).reshape(n_trials, width)


def _reference_plan(policy, recordings, tx_ids, rng, subsamples):
    """The per-trial assembly the planner used: one gather per trial."""
    id_row = np.asarray(tx_ids, dtype=np.intp)
    n_trials = subsamples * sum(len(recording.sweeps) for recording in recordings)
    drawn = iter(policy.probe_positions(n_trials, list(tx_ids), rng))
    blocks = []
    for recording in recordings:
        present, snr, rssi = reference.packed_sweeps(recording.sweeps, tx_ids)
        rows = {"ids": [], "snr": [], "rssi": [], "mask": []}
        sweep_ix, sub_ix, requested = [], [], []
        for sweep_index in range(len(recording.sweeps)):
            for subsample in range(subsamples):
                columns = next(drawn)
                rows["ids"].append(id_row[columns])
                rows["snr"].append(snr[sweep_index, columns])
                rows["rssi"].append(rssi[sweep_index, columns])
                rows["mask"].append(present[sweep_index, columns])
                sweep_ix.append(sweep_index)
                sub_ix.append(subsample)
                requested.append(columns.size)
        blocks.append(
            (
                np.array(rows["ids"], dtype=np.intp),
                np.array(rows["snr"], dtype=float),
                np.array(rows["rssi"], dtype=float),
                np.array(rows["mask"], dtype=bool),
                np.asarray(sweep_ix, dtype=np.intp),
                np.asarray(sub_ix, dtype=np.intp),
                np.asarray(requested, dtype=np.intp),
            )
        )
    return blocks


class TestPlannerGather:
    @pytest.mark.parametrize(
        "widths, subsamples", [((6, 14, 1, 0), 2), ((10,), 3), ((0,), 1), ((3, 34), 1)]
    )
    def test_blocks_match_the_per_trial_assembly(
        self, testbed, recordings, widths, subsamples
    ):
        tx_ids = testbed.tx_sector_ids
        ours_rng = np.random.default_rng(4)
        theirs_rng = np.random.default_rng(4)
        with ScenarioRunner() as runner:
            blocks = runner.plan_trials(
                _PerTrialPolicy(widths), recordings, tx_ids, ours_rng, subsamples
            )
        expected = _reference_plan(
            _PerTrialPolicy(widths), recordings, tx_ids, theirs_rng, subsamples
        )
        assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state
        for index, (block, theirs) in enumerate(zip(blocks, expected)):
            assert block.recording_index == index
            ours = (
                block.sector_ids, block.snr_db, block.rssi_dbm, block.mask,
                block.sweep_indices, block.subsample_indices, block.probes_requested,
            )
            for mine, reference_array in zip(ours, theirs):
                assert mine.dtype == reference_array.dtype
                assert mine.shape == reference_array.shape
                assert np.array_equal(mine, reference_array, equal_nan=True)
