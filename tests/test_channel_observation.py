"""Unit tests for the firmware measurement model (§5 quirks)."""

import hashlib
import struct

import numpy as np
import pytest

from repro.channel import MeasurementModel, quantize_to_step


class TestQuantize:
    def test_quarter_db(self):
        assert quantize_to_step(3.13, 0.25) == pytest.approx(3.25)
        assert quantize_to_step(-1.12, 0.25) == pytest.approx(-1.0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            quantize_to_step(1.0, 0.0)


class TestMeasurementModel:
    def test_noiseless_is_pure_quantization(self, rng):
        model = MeasurementModel.noiseless()
        observation = model.observe(5.13, -71.5, rng)
        assert observation is not None
        assert observation.snr_db == pytest.approx(quantize_to_step(5.13, 0.25))

    def test_snr_clipped_to_reporting_window(self, rng):
        model = MeasurementModel.noiseless()
        high = model.observe(40.0, -71.5, rng)
        low = model.observe(-20.0, -71.5, rng)
        assert high.snr_db == 12.0
        # -20 dB is below the decode floor of the *default* model, but
        # the noiseless model never drops frames; the reading clips.
        assert low.snr_db == -7.0

    def test_readings_always_in_window(self, rng):
        model = MeasurementModel()
        for true_snr in np.linspace(-8, 30, 50):
            observation = model.observe(float(true_snr), -71.5, rng)
            if observation is not None:
                assert -7.0 <= observation.snr_db <= 12.0

    def test_quarter_db_grid(self, rng):
        model = MeasurementModel()
        for _ in range(50):
            observation = model.observe(5.0, -71.5, rng)
            if observation is not None:
                assert (observation.snr_db * 4) == pytest.approx(round(observation.snr_db * 4))

    def test_decode_probability_monotone(self):
        model = MeasurementModel()
        probabilities = [model.decode_probability(snr) for snr in (-15, -9, -5, 0, 10)]
        assert probabilities == sorted(probabilities)
        assert model.decode_probability(model.decode_threshold_db) == pytest.approx(0.5)

    def test_weak_frames_mostly_dropped(self, rng):
        model = MeasurementModel()
        received = sum(
            model.observe(-14.0, -71.5, rng) is not None for _ in range(300)
        )
        assert received < 60

    def test_strong_frames_mostly_reported(self, rng):
        model = MeasurementModel()
        received = sum(model.observe(10.0, -71.5, rng) is not None for _ in range(300))
        assert received > 250

    def test_report_dropout_even_when_decodable(self, rng):
        model = MeasurementModel(
            report_dropout_probability=0.5, decode_threshold_db=-1e9
        )
        received = sum(model.observe(10.0, -71.5, rng) is not None for _ in range(400))
        assert 120 < received < 280

    def test_rssi_tracks_snr_on_average(self, rng):
        model = MeasurementModel()
        noise_floor = -71.5
        readings = [model.observe(8.0, noise_floor, rng) for _ in range(400)]
        rssi = np.array([r.rssi_dbm for r in readings if r is not None])
        assert np.mean(rssi) == pytest.approx(8.0 + noise_floor, abs=1.0)

    def test_snr_and_rssi_fluctuate_independently(self, rng):
        """§5: outliers rarely hit both values of one report."""
        model = MeasurementModel(outlier_probability=0.3)
        both_outliers = 0
        singles = 0
        for _ in range(600):
            observation = model.observe(8.0, -71.5, rng)
            if observation is None:
                continue
            snr_off = abs(observation.snr_db - 8.0) > 4.0
            rssi_off = abs(observation.rssi_dbm - (-63.5)) > 4.0
            if snr_off and rssi_off:
                both_outliers += 1
            elif snr_off or rssi_off:
                singles += 1
        assert singles > both_outliers

    def test_low_snr_noisier_than_high_snr(self, rng):
        model = MeasurementModel(outlier_probability=0.0)
        low = [model.observe(-2.0, -71.5, rng) for _ in range(500)]
        high = [model.observe(10.0, -71.5, rng) for _ in range(500)]
        low_std = np.std([r.snr_db for r in low if r is not None])
        high_std = np.std([r.snr_db for r in high if r is not None])
        assert low_std > high_std

    def test_pinned_scalar_stream(self):
        """Frozen scalar stream: 5,000 reports from one generator.

        Every recording is built from this stream, so any change to the
        per-frame arithmetic or draw order shows up here first.  A NaN
        and a +inf input raise inside the quarter-dB quantizer (after
        their draws); -inf never decodes.  The digest was recorded
        before ``observe`` swapped ``np.clip`` for ``min``/``max``.
        """
        model = MeasurementModel()
        values = np.random.default_rng(20171212).uniform(-15.0, 20.0, 5000)
        values[1000] = np.nan
        values[2000] = np.inf
        values[3000] = -np.inf
        rng = np.random.default_rng(0xC0FFEE)
        digest = hashlib.sha256()
        for value in values:
            try:
                observation = model.observe(value, -71.5, rng)
            except (ValueError, OverflowError) as error:
                digest.update(type(error).__name__.encode())
                continue
            if observation is None:
                digest.update(b"none")
            else:
                digest.update(struct.pack("<dd", observation.snr_db, observation.rssi_dbm))
        assert digest.hexdigest() == (
            "8e55e8cd281f1e5382b1d6d730d45fcfc0ffdf6fa4369e999a166a7cc66ebf68"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementModel(snr_max_db=-10.0, snr_min_db=0.0)
        with pytest.raises(ValueError):
            MeasurementModel(report_dropout_probability=1.0)
        with pytest.raises(ValueError):
            MeasurementModel(outlier_probability=-0.1)


class TestObserveBatch:
    """Block reports (``observe_frames``): one report per frame of the block."""

    def test_single_frame_matches_scalar_stream(self):
        model = MeasurementModel()
        for seed in range(50):
            for true_snr in (-8.0, 0.0, 5.5, 11.0, 30.0):
                scalar = model.observe(true_snr, -71.5, np.random.default_rng(seed))
                batch = model.observe_frames(
                    np.array([true_snr]), -71.5, np.random.default_rng(seed)
                )
                if scalar is None:
                    assert not batch.reported[0]
                    assert np.isnan(batch.snr_db[0])
                else:
                    assert batch.reported[0]
                    assert batch.snr_db[0] == scalar.snr_db
                    assert batch.rssi_dbm[0] == scalar.rssi_dbm

    def test_deterministic_given_generator(self):
        model = MeasurementModel()
        values = np.linspace(-5.0, 12.0, 64)
        one = model.observe_frames(values, -71.5, np.random.default_rng(99))
        two = model.observe_frames(values, -71.5, np.random.default_rng(99))
        assert np.array_equal(one.reported, two.reported)
        assert np.array_equal(one.snr_db, two.snr_db, equal_nan=True)
        assert np.array_equal(one.rssi_dbm, two.rssi_dbm, equal_nan=True)

    def test_noiseless_batch_is_pure_quantization(self, rng):
        model = MeasurementModel.noiseless()
        values = np.array([5.13, -1.12, 3.0])
        batch = model.observe_frames(values, -71.5, rng)
        assert batch.reported.all()
        for reading, true_snr in zip(batch.snr_db, values):
            assert reading == pytest.approx(quantize_to_step(float(true_snr), 0.25))

    def test_readings_stay_in_reporting_window(self, rng):
        model = MeasurementModel()
        batch = model.observe_frames(np.linspace(-8.0, 30.0, 256), -71.5, rng)
        reported = batch.snr_db[batch.reported]
        assert ((reported >= -7.0) & (reported <= 12.0)).all()

    def test_rejects_non_1d_input(self, rng):
        model = MeasurementModel()
        with pytest.raises(ValueError):
            model.observe_frames(np.zeros((2, 3)), -71.5, rng)
