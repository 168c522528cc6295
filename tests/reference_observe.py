"""Frozen reference of the firmware report model and the campaign average.

``observe`` below is the scalar ``MeasurementModel.observe`` body as it
stood before the frame-major loop replaced it: one frame at a time,
``rng.normal`` / ``rng.uniform`` for the noise and outlier draws,
``quantize_to_step`` for the quarter-dB grid.  Every committed
experiment output was recorded from this stream, so the program's
report paths compare to it with ``==`` — and draw-for-draw, through the
generator state left behind.

``observe_sweeps`` is the loop recordings were drawn with (a fade per
sweep, then a frame at a time), ``packed_sweeps`` the dict walk
recordings were packed with before they were held as arrays, and
``robust_average`` is imported from the program's per-cell
specification unchanged.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.observation import MeasurementModel, quantize_to_step
from repro.core.measurements import ProbeMeasurement


def _noise_std_db(model: MeasurementModel, true_snr_db: float) -> float:
    low_snr_weight = 1.0 / (1.0 + np.exp((true_snr_db - 2.0) / 2.0))
    return model.base_noise_std_db + model.low_snr_extra_noise_db * low_snr_weight


def _maybe_outlier(model: MeasurementModel, rng: np.random.Generator) -> float:
    if rng.random() < model.outlier_probability:
        return float(rng.uniform(-model.outlier_magnitude_db, model.outlier_magnitude_db))
    return 0.0


def observe(
    model: MeasurementModel,
    true_snr_db: float,
    noise_floor_dbm: float,
    rng: np.random.Generator,
) -> Optional[Tuple[float, float]]:
    """One frame's ``(snr_db, rssi_dbm)`` report, or ``None``."""
    argument = (true_snr_db - model.decode_threshold_db) / model.decode_width_db
    if rng.random() > float(1.0 / (1.0 + np.exp(-argument))):
        return None
    if rng.random() < model.report_dropout_probability:
        return None

    noise_std = _noise_std_db(model, true_snr_db)
    snr_reading = true_snr_db + rng.normal(0.0, noise_std) + _maybe_outlier(model, rng)
    snr_reading = float(
        min(
            max(quantize_to_step(snr_reading, model.snr_step_db), model.snr_min_db),
            model.snr_max_db,
        )
    )
    rssi_reading = (
        true_snr_db
        + noise_floor_dbm
        + model.rssi_offset_db
        + rng.normal(0.0, noise_std)
        + _maybe_outlier(model, rng)
    )
    rssi_reading = float(quantize_to_step(rssi_reading, model.rssi_step_db))
    return snr_reading, rssi_reading


def record_sweep(
    model: MeasurementModel,
    tx_ids: Sequence[int],
    truth: np.ndarray,
    noise_floor_dbm: float,
    rng: np.random.Generator,
) -> Dict[int, ProbeMeasurement]:
    """One recorded sweep as the dict of reports it used to be."""
    sweep: Dict[int, ProbeMeasurement] = {}
    for column, sector_id in enumerate(tx_ids):
        report = observe(model, truth[column], noise_floor_dbm, rng)
        if report is not None:
            sweep[sector_id] = ProbeMeasurement(sector_id, report[0], report[1])
    return sweep


def observe_sweeps(
    model: MeasurementModel,
    truth: np.ndarray,
    noise_floor_dbm: float,
    fade_std_db: float,
    rng: np.random.Generator,
) -> Tuple[List[Optional[Tuple[float, float]]], Optional[type]]:
    """The recording loop: per row one fade draw, then one ``observe`` per frame.

    Returns the reports in row-major order and the type of the error a
    NaN/±inf reading raised (None when none did); a raised error ends
    the loop, as it ended the recording.
    """
    reports: List[Optional[Tuple[float, float]]] = []
    for row in truth:
        fade_db = rng.normal(0.0, fade_std_db) if fade_std_db > 0 else 0.0
        for value in row + fade_db:
            try:
                reports.append(observe(model, value, noise_floor_dbm, rng))
            except (ValueError, OverflowError) as error:
                return reports, type(error)
    return reports, None


def packed_sweeps(
    sweeps: Sequence[Dict[int, ProbeMeasurement]], tx_sector_ids: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dict walk: ``(present, snr_db, rssi_dbm)`` by column of ``tx_sector_ids``."""
    column_of = {sector_id: column for column, sector_id in enumerate(tx_sector_ids)}
    shape = (len(sweeps), len(tx_sector_ids))
    present = np.zeros(shape, dtype=bool)
    snr = np.full(shape, np.nan)
    rssi = np.full(shape, np.nan)
    for row, sweep in enumerate(sweeps):
        for sector_id, measurement in sweep.items():
            column = column_of.get(sector_id)
            if column is not None:
                present[row, column] = True
                snr[row, column] = measurement.snr_db
                rssi[row, column] = measurement.rssi_dbm
    return present, snr, rssi
