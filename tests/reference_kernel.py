"""A deliberately naive reference of Eqs. 2–5 and the selector around them.

Written from the paper's equations, independently of
``repro.core.correlation`` and the estimator/selector kernel: one sweep
at a time, plain Python loops over the probes, no memo, no compaction,
no padding, no certificate.  The argmax is taken over the full map of
Eq. 2/5, built with the operations of the kernel's exact one-row path
(clamp, ``10 ** (x / 10)``, column norms, ``dot`` for the probe norm,
``@`` for the inner products, squaring, the fused product).  The
reported correlation is Eq. 2/5 at the winning grid point alone, each
sum a plain running sum over the probes in slot order
(:meth:`ReferenceEstimator.winner_correlation`), the kernel's one
definition of it.  So every field of the kernel's results compares to
this reference with ``==`` rather than a tolerance, the argmax
included: rows the kernel's dense pass cannot certify, exact ties
among them, take the exact path.

The hypothesis strategies at the bottom generate the padded
(trials × probes) batches the kernel consumes: NaN/±inf readings,
unknown and out-of-range sector ids, single-probe rows and masked
slots.
"""

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.core.estimator import AngleEstimate
from repro.core.measurements import ProbeMeasurement
from repro.core.selector import SelectionResult
from repro.geometry import AngularGrid
from repro.measurement import PatternTable

EPSILON = 1e-12
RSSI_REFERENCE_DBM = -71.5

#: One probe slot: (sector id, snr [dB], rssi [dBm]).
Slot = Tuple[int, float, float]


def to_linear(values_db) -> np.ndarray:
    """dB → linear power, clamped to ±200 dB."""
    values = np.asarray(values_db, dtype=float)
    return 10.0 ** (np.clip(values, -200.0, 200.0) / 10.0)


def eq2(probes_db, patterns_db) -> np.ndarray:
    """Eq. 2: ``W = ⟨p/‖p‖, x/‖x‖⟩²`` per grid point, in linear power.

    ``probes_db`` has shape ``(M,)`` and ``patterns_db`` ``(M, K)``.
    """
    probes = to_linear(probes_db)
    patterns = to_linear(patterns_db)
    with np.errstate(invalid="ignore", divide="ignore"):
        column_norms = np.sqrt(np.sum(patterns * patterns, axis=0))
        unit_columns = patterns / np.maximum(column_norms, EPSILON)
        unit_probes = probes / max(np.sqrt(probes.dot(probes)), EPSILON)
        return (unit_probes @ unit_columns) ** 2


def finite_argmax(surface: np.ndarray) -> int:
    """First index of the largest non-NaN value; 0 when all are NaN."""
    best = None
    for index, value in enumerate(surface):
        if not np.isnan(value) and (best is None or value > surface[best]):
            best = index
    return 0 if best is None else best


def first_argmax(values: Sequence[float]) -> int:
    """Python-``max`` semantics: replace only on a strictly greater value."""
    best = 0
    for index in range(1, len(values)):
        if values[index] > values[best]:
            best = index
    return best


class ReferenceEstimator:
    """Eqs. 3 and 5 over one sweep's valid probes, straight from the paper."""

    def __init__(self, table: PatternTable, fusion: str = "product"):
        self.table = table
        self.grid: AngularGrid = table.grid
        self.fusion = fusion
        matrix = table.sample_matrix(self.grid)
        self.pattern_of = {sector: matrix[row] for row, sector in enumerate(table.sector_ids)}

    def channels(self, slot: Slot) -> List[float]:
        """The slot's values in the channels this fusion mode uses."""
        _, snr, rssi = slot
        return {"product": [snr, rssi], "snr": [snr], "rssi": [rssi]}[self.fusion]

    def finite(self, slots: Sequence[Slot]) -> List[Slot]:
        return [s for s in slots if all(np.isfinite(v) for v in self.channels(s))]

    def check_known(self, slots: Sequence[Slot]) -> None:
        """A finite probe of a sector without a pattern is a caller bug."""
        for sector, _, _ in self.finite(slots):
            if sector not in self.pattern_of:
                raise KeyError(f"no measured pattern for probed sector {sector}")

    def surface(self, slots: Sequence[Slot]) -> Tuple[np.ndarray, int]:
        """The fused correlation map over the finite probes, and their count."""
        self.check_known(slots)
        kept = self.finite(slots)
        if len(kept) < 2:
            raise ValueError("need at least two finite probe measurements")
        patterns = np.array([self.pattern_of[sector] for sector, _, _ in kept])
        surface = None
        for readings in self.channel_readings(kept):
            channel_map = eq2(readings, patterns)
            surface = channel_map if surface is None else surface * channel_map
        return surface, len(kept)

    def channel_readings(self, kept: Sequence[Slot]) -> List[List[float]]:
        """Each used channel's dB readings over ``kept``, SNR first; RSSI
        is referenced to the nominal noise floor."""
        readings = []
        if self.fusion in ("product", "snr"):
            readings.append([snr for _, snr, _ in kept])
        if self.fusion in ("product", "rssi"):
            readings.append([rssi - RSSI_REFERENCE_DBM for _, _, rssi in kept])
        return readings

    def winner_correlation(self, slots: Sequence[Slot], index: int) -> float:
        """Eq. 2 / Eq. 5 at grid point ``index``, with running sums in slot order.

        Per channel ``(Σ v·p / (max(√Σ v², ε)·max(√Σ p², ε)))²`` over
        the finite probes, fused by product (SNR first).
        """
        kept = self.finite(slots)
        patterns = [
            float(to_linear(self.pattern_of[sector])[index])
            for sector, _, _ in kept
        ]
        pattern_sq = 0.0
        for pattern in patterns:
            pattern_sq += pattern * pattern
        pattern_norm = max(math.sqrt(pattern_sq), EPSILON)
        correlation = None
        for readings in self.channel_readings(kept):
            values = [float(value) for value in to_linear(readings)]
            value_sq = inner = 0.0
            for value, pattern in zip(values, patterns):
                value_sq += value * value
                inner += value * pattern
            cosine = inner / (max(math.sqrt(value_sq), EPSILON) * pattern_norm)
            factor = cosine * cosine
            correlation = factor if correlation is None else correlation * factor
        return correlation

    def estimate(self, slots: Sequence[Slot]) -> Optional[AngleEstimate]:
        """Eq. 3 / Eq. 5 argmax, or None with fewer than two finite probes."""
        try:
            surface, n_used = self.surface(slots)
        except ValueError:
            return None
        index = finite_argmax(surface)
        azimuth, elevation = self.grid.index_to_angles(index)
        return AngleEstimate(
            azimuth, elevation, self.winner_correlation(slots, index), n_used, index
        )

    def estimate_rows(self, rows: Sequence[Sequence[Slot]]) -> List[Optional[AngleEstimate]]:
        """A whole batch: any row's unknown finite probe raises first."""
        for slots in rows:
            self.check_known(slots)
        return [self.estimate(slots) for slots in rows]


class ReferenceSelector:
    """Eq. 4 on top of :class:`ReferenceEstimator`, with the SNR fallback."""

    def __init__(self, table: PatternTable, fusion: str = "product"):
        self.estimator = ReferenceEstimator(table, fusion)
        self.candidates = [s for s in table.sector_ids if s != 0]
        self.candidate_matrix = table.sample_matrix(table.grid, self.candidates)
        self.last_selection = 1

    def fallback(self, slots: Sequence[Slot]) -> SelectionResult:
        if slots:
            best = first_argmax([snr for _, snr, _ in slots])
            self.last_selection = slots[best][0]
        return SelectionResult(sector_id=self.last_selection, fallback=True)

    def select(self, slots: Sequence[Slot]) -> SelectionResult:
        usable = [s for s in slots if s[0] in self.estimator.pattern_of]
        if len(usable) < 2:
            return self.fallback(usable)
        estimate = self.estimator.estimate(usable)
        if estimate is None:
            raise ValueError("need at least two finite probe measurements")
        gains = self.candidate_matrix[:, estimate.grid_index]
        self.last_selection = self.candidates[first_argmax(gains)]
        return SelectionResult(sector_id=self.last_selection, estimate=estimate)

    def select_rows(self, rows: Sequence[Sequence[Slot]]) -> List[SelectionResult]:
        return [self.select(slots) for slots in rows]


# ----------------------------------------------------------------------
# Hypothesis strategies over padded batches.
# ----------------------------------------------------------------------

N_SECTORS = 6


def small_table(seed: int = 7) -> PatternTable:
    """Six sectors (ids 0–5) on a 5 × 2 grid."""
    grid = AngularGrid(np.linspace(-20.0, 20.0, 5), np.array([0.0, 10.0]))
    rng = np.random.default_rng(seed)
    return PatternTable(
        grid, {s: rng.uniform(-10.0, 12.0, grid.shape) for s in range(N_SECTORS)}
    )


def _mostly(common, rare, rare_in: int = 8):
    """``rare`` about once in ``rare_in`` draws, else ``common``."""
    return st.integers(min_value=1, max_value=rare_in).flatmap(
        lambda roll: rare if roll == 1 else common
    )


#: A reading: mostly ordinary, sometimes NaN or ±inf (so most rows still
#: reach the estimator, whose non-finite handling is then exercised).
probe_value = _mostly(
    st.floats(min_value=-30.0, max_value=30.0),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)

#: Measured sectors.
known_sector = st.integers(min_value=0, max_value=N_SECTORS - 1)

#: Mostly measured sectors; sometimes a valid 802.11ad id with no
#: measured pattern, or an id outside 0–63.
any_sector = _mostly(
    known_sector,
    st.one_of(
        st.integers(min_value=N_SECTORS, max_value=63),
        st.sampled_from([-1, 64, 1000]),
    ),
)


#: A slot carries a report most of the time; padding is the rest.
slot_valid = _mostly(st.just(True), st.just(False), rare_in=4)


def batches(sectors=known_sector, min_width=1):
    """Ragged padded batches of ``(sector, snr, rssi, slot-valid)`` slots."""
    slot = st.tuples(sectors, probe_value, probe_value, slot_valid)
    return st.integers(min_value=min_width, max_value=5).flatmap(
        lambda width: st.lists(
            st.lists(slot, min_size=width, max_size=width), min_size=1, max_size=4
        )
    )


def unpack(trials):
    """Batch → ``(sector_ids, snr_db, rssi_dbm, mask)`` arrays."""
    ids = np.array([[s[0] for s in trial] for trial in trials])
    snr = np.array([[s[1] for s in trial] for trial in trials])
    rssi = np.array([[s[2] for s in trial] for trial in trials])
    mask = np.array([[s[3] for s in trial] for trial in trials])
    return ids, snr, rssi, mask


def valid_slots(trial) -> List[Slot]:
    """The slots of one padded row that carry a report."""
    return [(s[0], s[1], s[2]) for s in trial if s[3]]


def measurements_of(slots: Sequence[Slot]):
    """Slots as :class:`ProbeMeasurement` s, or None when an id is outside 0–63."""
    if any(not 0 <= sector <= 63 for sector, _, _ in slots):
        return None
    return [ProbeMeasurement(sector, snr, rssi) for sector, snr, rssi in slots]


def outcome(call):
    """``call()``'s value, or the exception type it raised."""
    try:
        return call()
    except (KeyError, ValueError) as error:
        return type(error)
