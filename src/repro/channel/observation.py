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

import functools
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

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
    """Vectorized firmware reports for a block of frames (or of sweeps × frames).

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
        """Reports for a block of frames: one :meth:`observe` call per frame.

        Bit for bit the reports — and the generator state — of the
        scalar loop, replayed from raw generator words (see
        :meth:`observe_sweeps`).  A NaN or ±inf reading raises after
        its frame's draws, as the loop would.
        """
        truth = np.asarray(true_snr_db, dtype=float)
        if truth.ndim != 1:
            raise ValueError("true_snr_db must be a 1-D block of frames")
        batch = self.observe_sweeps(truth[None], noise_floor_dbm, rng)
        return SignalObservationBatch(batch.reported[0], batch.snr_db[0], batch.rssi_dbm[0])

    def observe_sweeps(
        self,
        true_snr_db: np.ndarray,
        noise_floor_dbm: float,
        rng: np.random.Generator,
        fade_std_db: float = 0.0,
    ) -> SignalObservationBatch:
        """Reports for a block of sweeps (rows) of frames, with per-sweep fades.

        Bit for bit the reports, the raised error and the generator
        state of this scalar loop::

            for row in true_snr_db:
                fade = rng.normal(0.0, fade_std_db) if fade_std_db > 0 else 0.0
                for truth in row:
                    observe(truth + fade, noise_floor_dbm, rng)

        but with no generator call per frame.  ``random()`` reads one
        64-bit word and ``standard_normal()`` one word on its ziggurat
        fast path, so the loop is replayed from blocks of raw words of
        a private copy of the generator: decoded as doubles and
        fast-path normals, each frame's first word found with one
        comparison per frame, the reports computed as arrays with
        :meth:`_frame`'s operations.  A normal off the fast path
        (~1.5 %) is drawn by numpy itself.  ``rng`` is then advanced by
        exactly the words the loop would have read.

        Only a PCG64 generator (every ``default_rng``) can be replayed;
        any other raises ``TypeError``.
        """
        truth = np.ascontiguousarray(true_snr_db, dtype=float)
        if truth.ndim != 2:
            raise ValueError("true_snr_db must be a 2-D block of sweeps × frames")
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(
                f"frame reports replay PCG64 words; got a {type(bit_generator).__name__} generator"
            )
        reported = np.zeros(truth.shape, dtype=bool)
        snr = np.full(truth.shape, np.nan)
        rssi = np.full(truth.shape, np.nan)
        fading = fade_std_db > 0
        if truth.shape[0] and (truth.shape[1] or fading):
            replay = _Replay(
                self, truth, noise_floor_dbm, bit_generator, fade_std_db if fading else None
            )
            replay.run(reported.reshape(-1), snr.reshape(-1), rssi.reshape(-1))
        return SignalObservationBatch(reported, snr, rssi)


#: ``random()``'s scale: a word's top 53 bits times 2**-53.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0

#: The most words a frame whose normals take the fast path reads.
_FRAME_WORDS = 8

#: Words decoded at a time; a window that runs short is extended.
_WINDOW_WORDS = 4096

#: ``rabs``: the 52 bits above a word's index and sign bits.
_RABS_MASK = (1 << 52) - 1

_private = threading.local()


def _private_generators() -> Tuple[
    np.random.PCG64, np.random.PCG64, Callable[[], float], np.random.PCG64
]:
    """This thread's private generators, reused across calls.

    Every use sets a generator's state before drawing, so nothing
    carries from one call to the next.  The window generator draws the
    raw words; the cursor (with its normal sampler) and the reference
    replay the normals off the fast path.
    """
    try:
        return _private.generators
    except AttributeError:
        cursor = np.random.PCG64(0)
        _private.generators = (
            np.random.PCG64(0),
            cursor,
            np.random.Generator(cursor).standard_normal,
            np.random.PCG64(0),
        )
        return _private.generators


@functools.lru_cache(maxsize=None)
def _ziggurat_tables() -> Tuple[np.ndarray, np.ndarray]:
    # Imported on first use, so ``python -m repro.channel.ziggurat``
    # does not find its own module already imported by the package.
    from . import ziggurat

    tables = np.array(ziggurat.WI), np.array(ziggurat.KI, dtype=np.uint64)
    for table in tables:
        table.flags.writeable = False
    return tables


class _Replay:
    """One :meth:`MeasurementModel.observe_sweeps` call's walk through raw words.

    Positions are word indices local to the current window, whose first
    word is word ``base`` of the call.  For every position ``p`` the
    window knows where a decoded frame starting at ``p`` ends,
    ``jump[p]``, assuming both its normals take the fast path: ``-end``
    when the firmware drops the frame's report after two words, -1 when
    a normal leaves the fast path and the frame is walked word by word.
    """

    def __init__(
        self,
        model: MeasurementModel,
        truth: np.ndarray,
        noise_floor_dbm: float,
        bit_generator: np.random.PCG64,
        fade_std_db: Optional[float],
    ) -> None:
        self.model = model
        self.truth = truth
        self.noise_floor_dbm = noise_floor_dbm
        self.fade_std_db = fade_std_db
        self.fades = np.zeros(truth.shape[0])  # each row's fade, as drawn
        self.bit_generator = bit_generator
        self.start_state = bit_generator.state
        self.window, self.cursor, self.cursor_normal, self.reference = _private_generators()
        self.window.state = self.start_state
        self.cursor_at = -1  # the cursor's and the reference's word; -1 = not set
        self.base = 0
        self.first_frame = 0  # flat index of the window's first scanned frame
        self.starts: List[int] = []  # per scanned frame: its first word, -1 = no report
        self.slow: Dict[int, Tuple[float, int, float, int]] = {}  # frame -> normals, tests
        self.words = np.empty(0, dtype=np.uint64)
        self._fill(0, self._window_size())

    # -- windows ---------------------------------------------------------

    def _window_size(self) -> int:
        rows, frames = self.truth.shape
        left = rows * frames - self.first_frame
        fades = rows if self.fade_std_db is not None else 0
        return min(_WINDOW_WORDS, left * _FRAME_WORDS + fades + _FRAME_WORDS)

    def _fill(self, keep_from: int, size: int) -> None:
        """Make the window ``size`` words from local position ``keep_from`` on."""
        kept = self.words[keep_from:]
        if keep_from > self.words.size:  # a slow normal read past the window
            self.window.random_raw(keep_from - self.words.size, output=False)
        fresh = self.window.random_raw(max(size - kept.size, _FRAME_WORDS))
        self.words = words = np.concatenate((kept, fresh)) if kept.size else fresh
        wi, ki = _ziggurat_tables()
        self.uniform = uniform = (words >> 11) * _DOUBLE_UNIT
        index = words & 0xFF
        rabs = (words >> 9) & _RABS_MASK
        self.normal = rabs * wi[index]
        self.normal.view(np.uint64)[...] |= (words & 0x100) << 55  # the sign bit
        self.accepted = accepted = rabs < ki[index]

        # Frame layout: decode, dropout, SNR normal, SNR outlier test
        # (+ offset), RSSI normal, RSSI outlier test (+ offset).
        model = self.model
        n = words.size - _FRAME_WORDS + 1
        outlier_p = model.outlier_probability
        self.rssi_at = rssi_at = np.arange(4, n + 4) + (uniform[3 : n + 3] < outlier_p)
        end = rssi_at + 2 + (uniform[rssi_at + 1] < outlier_p)
        end[~(accepted[2 : n + 2] & accepted[rssi_at])] = -1
        dropped = uniform[1 : n + 1] < model.report_dropout_probability
        end[dropped] = -2 - np.flatnonzero(dropped)
        # The walk reads these a few times per frame: element views, not
        # lists of every word's Python object.
        self.uniform_at = memoryview(uniform)
        self.jump_at = memoryview(end)
        self.limit = n - 1

    def _roll(self, position: int, size: int = 0) -> int:
        """Report the window's frames and start the next window at ``position``."""
        self._flush()
        self.base += position
        self._fill(position, max(size, self._window_size()))
        return 0

    def _normal_at(self, position: int) -> Tuple[float, int]:
        """The normal whose first word is at ``position``, and the next position."""
        if self.accepted[position]:
            return float(self.normal[position]), position + 1
        value, used = self._replay_normal(self.base + position)
        return value, position + used

    def _replay_normal(self, word: int) -> Tuple[float, int]:
        """numpy's own draw of the normal at ``word``, off the fast path.

        A cursor advanced to the word draws it; the words it read are
        counted by stepping a reference generator until the two states
        agree, never by matching word values.  (``advance`` wraps a
        negative step, which a frame walked again after a roll takes.)
        """
        cursor, reference = self.cursor, self.reference
        if self.cursor_at < 0:
            cursor.state = reference.state = self.start_state
            self.cursor_at = 0
        cursor.advance(word - self.cursor_at)
        value = self.cursor_normal()
        after = cursor.state["state"]["state"]
        used = 2
        reference.advance(word + used - self.cursor_at)
        while reference.state["state"]["state"] != after:
            reference.advance(1)
            used += 1
        self.cursor_at = word + used
        return value, used

    def _slow_frame(self, position: int) -> Tuple[int, int]:
        """Walk a reported frame off the fast path; its ``(start, end)`` positions.

        Rolls the window first when the frame does not fit in it.
        """
        outlier_p = self.model.outlier_probability
        while True:
            size = self.words.size
            snr_normal, snr_test = self._normal_at(position + 2)
            if snr_test + 3 <= size:
                rssi_at = snr_test + 1 + (self.uniform_at[snr_test] < outlier_p)
                rssi_normal, rssi_test = self._normal_at(rssi_at)
                if rssi_test + 2 <= size:
                    frame = self.first_frame + len(self.starts)
                    self.slow[frame] = (snr_normal, snr_test, rssi_normal, rssi_test)
                    return position, rssi_test + 1 + (self.uniform_at[rssi_test] < outlier_p)
            position = self._roll(position, 2 * (size - position) + _WINDOW_WORDS)

    # -- the walk --------------------------------------------------------

    def run(self, reported: np.ndarray, snr: np.ndarray, rssi: np.ndarray) -> None:
        """Walk every row, filling the flat output arrays, and advance the caller."""
        model = self.model
        self.out = (reported, snr, rssi)
        threshold, width = model.decode_threshold_db, model.decode_width_db
        fade_std = self.fade_std_db
        if fade_std is None:
            argument = (self.truth - threshold) / width
            decode_p = 1.0 / (1.0 + np.exp(-argument))
        p = 0
        for row in range(self.truth.shape[0]):
            if fade_std is not None:
                if p > self.limit:
                    p = self._roll(p)
                fade, p = self._normal_at(p)
                fade = self.fades[row] = 0.0 + fade_std * fade
                argument = (self.truth[row] + fade - threshold) / width
                row_p = (1.0 / (1.0 + np.exp(-argument))).tolist()
            else:
                row_p = decode_p[row].tolist()
            uniform, jump, limit = self.uniform_at, self.jump_at, self.limit
            append = self.starts.append
            for frame_p in row_p:
                if p > limit:
                    p = self._roll(p)
                    uniform, jump, limit = self.uniform_at, self.jump_at, self.limit
                    append = self.starts.append
                if uniform[p] > frame_p:  # not decoded
                    append(-1)
                    p += 1
                    continue
                end = jump[p]
                if end < 0:
                    if end < -1:  # report dropped
                        append(-1)
                        p = -end
                        continue
                    p, end = self._slow_frame(p)
                    uniform, jump, limit = self.uniform_at, self.jump_at, self.limit
                    append = self.starts.append
                append(p)
                p = end
        self._flush()
        self.bit_generator.random_raw(self.base + p, output=False)

    def _flush(self) -> None:
        """Compute the reports of the window's scanned frames."""
        model = self.model
        starts = np.array(self.starts, dtype=np.intp)
        reported = starts >= 0
        frames = self.first_frame + np.flatnonzero(reported)
        at = starts[reported]
        slow, self.slow = self.slow, {}
        self.first_frame += starts.size
        self.starts = []
        if not frames.size:
            return
        # Rows: SNR, RSSI.  The word of each normal, then of its outlier test.
        normal_at = np.empty((2, frames.size), dtype=np.intp)
        np.add(at, 2, out=normal_at[0])
        np.take(self.rssi_at, at, out=normal_at[1])
        normals = self.normal[normal_at]
        tests = normal_at + 1
        if slow:
            columns = np.searchsorted(frames, list(slow))
            values = list(slow.values())
            normals[:, columns] = np.array([(v[0], v[2]) for v in values]).T
            tests[:, columns] = np.array([(v[1], v[3]) for v in values]).T
        uniform = self.uniform
        outlier = uniform[tests] < model.outlier_probability
        low = -model.outlier_magnitude_db
        span = model.outlier_magnitude_db - low
        offsets = np.where(outlier, low + span * uniform[tests + 1], 0.0)

        truth = self.truth.reshape(-1)[frames]
        if self.fade_std_db is not None:
            truth += self.fades[frames // self.truth.shape[1]]
        low_snr_weight = 1.0 / (1.0 + np.exp((truth - 2.0) / 2.0))
        noise_std = model.base_noise_std_db + model.low_snr_extra_noise_db * low_snr_weight
        readings = np.empty_like(normals)
        readings[0] = truth
        np.add(truth, self.noise_floor_dbm, out=readings[1])
        readings[1] += model.rssi_offset_db
        readings += 0.0 + noise_std * normals
        readings += offsets
        steps = np.array([[model.snr_step_db], [model.rssi_step_db]])
        readings /= steps
        finite = np.isfinite(readings)
        if not finite.all():
            # The loop draws up to the reading that ``round`` rejects.
            frame = int(np.flatnonzero(~finite.all(axis=0))[0])
            kind = 0 if not finite[0, frame] else 1
            consumed = self.base + tests[kind, frame] + 1 + outlier[kind, frame]
            self.bit_generator.random_raw(int(consumed), output=False)
            if np.isnan(readings[kind, frame]):
                raise ValueError("cannot convert float NaN to integer")
            raise OverflowError("cannot convert float infinity to integer")

        # ``round`` returns an int, so the loop never reports -0.0; and
        # ``min(max(v, lo), hi)`` keeps ``v`` on ties.
        readings = (np.round(readings) + 0.0) * steps
        value = readings[0]
        value = np.where(model.snr_min_db > value, model.snr_min_db, value)
        out_reported, out_snr, out_rssi = self.out
        out_reported[frames] = True
        out_snr[frames] = np.where(model.snr_max_db < value, model.snr_max_db, value)
        out_rssi[frames] = readings[1]
