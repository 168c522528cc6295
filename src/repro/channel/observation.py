"""Firmware measurement model: from true SNR to what the chip reports.

Section 5 of the paper documents the quirks of the QCA9500's signal
strength reporting, all of which are modelled here:

* SNR readings are quantized to quarter-dB steps and clipped to the
  range −7 … 12 dB;
* low-gain sectors show large fluctuations and severe outliers;
* sometimes the firmware reports nothing at all for a sector;
* RSSI is acquired separately from SNR — the two are correlated on
  average but their fluctuations are not simultaneous, which is what
  makes the paper's SNR×RSSI correlation fusion (Eq. 5) effective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "SignalObservation",
    "SignalObservationBatch",
    "MeasurementModel",
    "quantize_to_step",
]


def quantize_to_step(value: float, step: float) -> float:
    """Round ``value`` to the nearest multiple of ``step``."""
    if step <= 0:
        raise ValueError("quantization step must be positive")
    return round(value / step) * step


@dataclass(frozen=True)
class SignalObservation:
    """One reported measurement for one received SSW frame."""

    snr_db: float
    rssi_dbm: float


@dataclass(frozen=True)
class SignalObservationBatch:
    """Vectorized firmware reports for a block of frames.

    ``reported[i]`` is False when frame ``i`` failed to decode or its
    report was dropped; the corresponding ``snr_db[i]`` / ``rssi_dbm[i]``
    slots hold NaN.
    """

    reported: np.ndarray
    snr_db: np.ndarray
    rssi_dbm: np.ndarray

    def __len__(self) -> int:
        return int(self.reported.size)


@dataclass(frozen=True)
class MeasurementModel:
    """Stochastic model of the firmware's signal-strength reporting.

    Attributes:
        snr_min_db / snr_max_db: reporting range of the SNR field.
        snr_step_db: SNR quantization (quarter dB on the QCA9500).
        rssi_step_db: RSSI quantization.
        decode_threshold_db: SNR at which frame decoding succeeds 50 %
            of the time (soft threshold with ``decode_width_db`` slope).
        report_dropout_probability: chance that a decoded frame still
            yields no firmware report.
        base_noise_std_db: measurement noise at high SNR.
        low_snr_extra_noise_db: extra noise approached at low SNR.
        outlier_probability: chance of a severe outlier per value.
        outlier_magnitude_db: half-range of the outlier offset.
    """

    snr_min_db: float = -7.0
    snr_max_db: float = 12.0
    snr_step_db: float = 0.25
    rssi_step_db: float = 1.0
    # SSW frames ride the heavily spread control PHY, which decodes
    # below the SNR field's own -7 dB reporting floor.
    decode_threshold_db: float = -9.0
    decode_width_db: float = 1.5
    report_dropout_probability: float = 0.03
    base_noise_std_db: float = 0.4
    low_snr_extra_noise_db: float = 1.6
    outlier_probability: float = 0.08
    outlier_magnitude_db: float = 10.0
    rssi_offset_db: float = 0.0

    def __post_init__(self) -> None:
        if self.snr_max_db <= self.snr_min_db:
            raise ValueError("snr_max_db must exceed snr_min_db")
        for name in ("snr_step_db", "rssi_step_db", "decode_width_db"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.report_dropout_probability < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        if not 0.0 <= self.outlier_probability < 1.0:
            raise ValueError("outlier probability must be in [0, 1)")
        # The draws numpy's normal/uniform would reject, rejected once
        # here instead of at the first frame that reaches them.
        if not (self.base_noise_std_db >= 0.0 and self.low_snr_extra_noise_db >= 0.0):
            raise ValueError("noise standard deviations must be non-negative")
        magnitude = self.outlier_magnitude_db
        if not (magnitude >= 0.0 and np.isfinite(magnitude - -magnitude)):
            raise ValueError("outlier magnitude must be non-negative, with a finite range")

    @classmethod
    def noiseless(cls) -> "MeasurementModel":
        """Quantization only — for ablations and deterministic tests."""
        return cls(
            report_dropout_probability=0.0,
            base_noise_std_db=0.0,
            low_snr_extra_noise_db=0.0,
            outlier_probability=0.0,
            decode_threshold_db=-1e9,
        )

    def decode_probability(self, true_snr_db: float) -> float:
        """Soft frame-decoding probability as a function of SNR."""
        argument = (true_snr_db - self.decode_threshold_db) / self.decode_width_db
        return float(1.0 / (1.0 + np.exp(-argument)))

    def _frame(
        self,
        truth: float,
        decode_p: float,
        noise_std: float,
        noise_floor_dbm: float,
        rng: np.random.Generator,
    ) -> Optional[Tuple[float, float]]:
        """One frame's ``(snr_db, rssi_dbm)`` report, or ``None``.

        The draws, in order: decode, dropout, SNR noise, SNR outlier
        (+ offset), RSSI noise, RSSI outlier (+ offset).  ``rng.normal(0, s)``
        and ``rng.uniform(-m, m)`` are written out as numpy computes them
        (``0 + s * z`` and ``-m + (m - -m) * u``), which skips their
        argument handling and leaves every value bit for bit the same.
        NaN and +inf readings raise in ``round`` after their draws.
        """
        random = rng.random
        if random() > decode_p:
            return None
        if random() < self.report_dropout_probability:
            return None
        low = -self.outlier_magnitude_db
        span = self.outlier_magnitude_db - low
        outlier_p = self.outlier_probability
        snr = (
            truth
            + (0.0 + noise_std * rng.standard_normal())
            + (low + span * random() if random() < outlier_p else 0.0)
        )
        step = self.snr_step_db
        snr = float(min(max(round(snr / step) * step, self.snr_min_db), self.snr_max_db))
        # RSSI: independently acquired estimate of the received power.
        rssi = (
            truth
            + noise_floor_dbm
            + self.rssi_offset_db
            + (0.0 + noise_std * rng.standard_normal())
            + (low + span * random() if random() < outlier_p else 0.0)
        )
        step = self.rssi_step_db
        return snr, float(round(rssi / step) * step)

    def observe(
        self,
        true_snr_db: float,
        noise_floor_dbm: float,
        rng: np.random.Generator,
    ) -> Optional[SignalObservation]:
        """Produce the firmware's report for one frame, or ``None``.

        ``None`` models either a frame that failed to decode or a
        decoded frame whose measurement the firmware dropped.  Noise
        grows as the SNR approaches the sensitivity floor.
        """
        low_snr_weight = 1.0 / (1.0 + np.exp((true_snr_db - 2.0) / 2.0))
        noise_std = self.base_noise_std_db + self.low_snr_extra_noise_db * low_snr_weight
        report = self._frame(
            true_snr_db,
            self.decode_probability(true_snr_db),
            float(noise_std),
            noise_floor_dbm,
            rng,
        )
        if report is None:
            return None
        return SignalObservation(snr_db=report[0], rssi_dbm=report[1])

    def observe_frames(
        self,
        true_snr_db: np.ndarray,
        noise_floor_dbm: float,
        rng: np.random.Generator,
    ) -> SignalObservationBatch:
        """Reports for a block of frames, drawn frame by frame.

        Bit for bit the reports — and the generator state — of one
        :meth:`observe` call per frame, in order: only the decode
        probabilities and noise levels are computed for the whole block
        at once.  A NaN or +inf frame raises after its draws, as a
        scalar loop would.
        """
        truth = np.ascontiguousarray(true_snr_db, dtype=float)
        if truth.ndim != 1:
            raise ValueError("true_snr_db must be a 1-D block of frames")
        argument = (truth - self.decode_threshold_db) / self.decode_width_db
        decode_p = 1.0 / (1.0 + np.exp(-argument))
        low_snr_weight = 1.0 / (1.0 + np.exp((truth - 2.0) / 2.0))
        noise_std = self.base_noise_std_db + self.low_snr_extra_noise_db * low_snr_weight
        frame = self._frame
        reports = [
            frame(value, p, std, noise_floor_dbm, rng)
            for value, p, std in zip(truth.tolist(), decode_p.tolist(), noise_std.tolist())
        ]
        reported = np.array([report is not None for report in reports], dtype=bool)
        values = np.full((2, truth.size), np.nan)
        if reported.any():
            values[:, reported] = np.array(
                [report for report in reports if report is not None]
            ).T
        return SignalObservationBatch(reported, values[0], values[1])

    def observe_batch(
        self,
        true_snr_db: np.ndarray,
        noise_floor_dbm: float,
        rng: np.random.Generator,
    ) -> SignalObservationBatch:
        """Firmware reports for a whole block of frames in a few draws.

        The per-frame arithmetic matches :meth:`observe` exactly; the
        random stream follows a fixed **stage-major** convention so the
        result is deterministic given the injected generator:

        1. one decode uniform per frame,
        2. one dropout uniform per *decoded* frame,
        3. SNR noise normals for the reporting frames,
        4. SNR outlier uniforms, then offsets for the outliers,
        5. RSSI noise normals, 6. RSSI outlier uniforms + offsets.

        For a single frame this is the same draw order as the scalar
        path, so ``observe_batch(np.array([x]), ...)`` reproduces
        ``observe(x, ...)`` bit for bit from the same generator state
        (the pinned regression test asserts this).  For larger blocks
        the draws are regrouped, so the *stream* differs from a scalar
        loop even though the per-frame distribution is identical —
        which is why recordings and campaigns, whose outputs are pinned
        to the scalar stream, use :meth:`observe_frames` instead.
        """
        true_snr = np.asarray(true_snr_db, dtype=float)
        if true_snr.ndim != 1:
            raise ValueError("true_snr_db must be a 1-D block of frames")
        n_frames = true_snr.size
        snr_out = np.full(n_frames, np.nan)
        rssi_out = np.full(n_frames, np.nan)
        reported = np.zeros(n_frames, dtype=bool)
        if n_frames == 0:
            return SignalObservationBatch(reported, snr_out, rssi_out)

        argument = (true_snr - self.decode_threshold_db) / self.decode_width_db
        decode_p = 1.0 / (1.0 + np.exp(-argument))
        decoded = np.flatnonzero(rng.random(n_frames) <= decode_p)
        if decoded.size:
            dropout = rng.random(decoded.size)
            decoded = decoded[dropout >= self.report_dropout_probability]
        if decoded.size == 0:
            return SignalObservationBatch(reported, snr_out, rssi_out)
        reported[decoded] = True

        truth = true_snr[decoded]
        low_snr_weight = 1.0 / (1.0 + np.exp((truth - 2.0) / 2.0))
        noise_std = self.base_noise_std_db + self.low_snr_extra_noise_db * low_snr_weight

        def outlier_offsets(count: int) -> np.ndarray:
            offsets = np.zeros(count)
            hits = np.flatnonzero(rng.random(count) < self.outlier_probability)
            if hits.size:
                offsets[hits] = rng.uniform(
                    -self.outlier_magnitude_db, self.outlier_magnitude_db, hits.size
                )
            return offsets

        snr_noise = rng.normal(0.0, noise_std)
        snr_reading = truth + snr_noise + outlier_offsets(decoded.size)
        snr_out[decoded] = np.clip(
            np.round(snr_reading / self.snr_step_db) * self.snr_step_db,
            self.snr_min_db,
            self.snr_max_db,
        )
        rssi_noise = rng.normal(0.0, noise_std)
        rssi_reading = (
            truth
            + noise_floor_dbm
            + self.rssi_offset_db
            + rssi_noise
            + outlier_offsets(decoded.size)
        )
        rssi_out[decoded] = np.round(rssi_reading / self.rssi_step_db) * self.rssi_step_db
        return SignalObservationBatch(reported, snr_out, rssi_out)
