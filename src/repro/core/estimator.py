"""Angle-of-arrival estimation from compressive probes (Eqs. 3 and 5).

The estimator maximizes the correlation map over a discrete angular
grid.  Following §5, it can fuse the SNR-based and RSSI-based maps by
multiplication — the two values are acquired independently inside the
firmware, so an outlier in one rarely coincides with an outlier in the
other, and the product suppresses it.

Hot-path layout: the pattern matrix is sampled on the search grid
*and* converted to linear power once at construction, with its
elementwise square beside it.  One array kernel
(:meth:`AngleEstimator.estimate_fused_arrays`) evaluates a whole
padded (trials × probes) batch as two GEMMs and certifies each row's
argmax against the exact one-row computation (DESIGN.md §12);
:meth:`AngleEstimator.estimate`, :meth:`AngleEstimator.estimate_batch`
and :meth:`AngleEstimator.correlation_surface` are adapters over it
with no arithmetic of their own.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs as _obs
from ..obs import quality as _quality
from ..geometry.grid import AngularGrid
from ..measurement.patterns import PatternTable
from .correlation import _EPSILON, _correlate_core, _unit_columns, to_linear_power
from .measurements import ProbeMeasurement

__all__ = ["AngleEstimate", "AngleEstimator"]

#: RSSI values are referenced to this nominal noise floor before the
#: linear-domain correlation; any constant works (the correlation is
#: scale-invariant) but keeping numbers small avoids float overflow.
_RSSI_REFERENCE_DBM = -71.5

#: Rows per dense pass of the certified kernel: bounds its (rows × grid)
#: temporaries (~1 MB each on the 1,010-point grid) at any batch size.
_BLOCK_ROWS = 128

#: The argmax certificate's threshold τ: a row whose dense-kernel top
#: value beats its runner-up by more than this provably has the exact
#: one-row computation's argmax (derivation in
#: :meth:`AngleEstimator._argmax_rows`).
_CERTIFIED_GAP = 1e-11

#: The largest usable-probe count the certificate accepts; τ keeps a
#: 21× margin over the rounding bound there.  Longer rows take the
#: exact path.
_CERTIFIED_MAX_PROBES = 128

_LOGGER = logging.getLogger(__name__)


def _finite_argmax(surface: np.ndarray) -> int:
    """Index of the maximum *finite-aware* correlation value.

    ``np.argmax`` stops updating its running maximum at the first NaN
    (every comparison against NaN is False), so a single NaN grid point
    — a zero-norm pattern column, an overflow in the fused product —
    silently wins the whole argmax.  On NaN-free surfaces this is
    exactly ``surface.argmax()`` (bit-identical, no extra scan cost on
    the hot path); when the winner is NaN the argmax is retaken over
    the non-NaN entries, and an all-NaN surface keeps index 0, the
    value ``np.argmax`` would report.
    """
    best = int(surface.argmax())
    if not np.isnan(surface[best]):
        return best
    valid = np.flatnonzero(~np.isnan(surface))
    if valid.size == 0:
        return best
    return int(valid[surface[valid].argmax()])


def _fused_surface(
    pattern_unit: np.ndarray, channels: Sequence[np.ndarray]
) -> np.ndarray:
    """One row's correlation map: Eq. 3 for one channel, Eq. 5 for two.

    ``channels`` are the row's linear-power probe values, SNR first;
    the fused map is their per-channel maps multiplied.
    """
    surface = None
    for values in channels:
        channel_surface = _correlate_core(values, pattern_unit)
        surface = channel_surface if surface is None else surface * channel_surface
    return surface


def _one_row_arrays(
    measurements: Sequence[ProbeMeasurement],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sweep's ``(sector_ids, snr_db, rssi_dbm)`` as a 1-row batch."""
    ids = np.array([[m.sector_id for m in measurements]], dtype=np.intp)
    snr = np.array([[m.snr_db for m in measurements]], dtype=float)
    rssi = np.array([[m.rssi_dbm for m in measurements]], dtype=float)
    return ids, snr, rssi


@dataclass(frozen=True)
class AngleEstimate:
    """Result of one angle-of-arrival estimation.

    ``grid_index`` is the flat search-grid index of the argmax when the
    estimate came from a grid search (``None`` for estimators that
    interpolate off-grid, e.g. out-of-band assistance).  It equals
    ``search_grid.nearest_index(azimuth_deg, elevation_deg)`` and lets
    Eq. 4 skip that lookup.
    """

    azimuth_deg: float
    elevation_deg: float
    correlation: float
    n_probes_used: int
    grid_index: Optional[int] = None


class AngleEstimator:
    """Correlation-based estimator over a measured pattern table."""

    def __init__(
        self,
        pattern_table: PatternTable,
        search_grid: Optional[AngularGrid] = None,
        fusion: str = "product",
        precomputed: Optional[Dict[str, np.ndarray]] = None,
    ):
        """
        Args:
            pattern_table: measured sector patterns (Figures 5/6 data).
            search_grid: grid for the numeric argmax of Eq. 3; defaults
                to the table's own measurement grid.
            fusion: ``"product"`` fuses the SNR and RSSI maps (Eq. 5);
                ``"snr"`` / ``"rssi"`` use one map alone (Eq. 3).
            precomputed: optional ``prepared_matrix`` array (the
                linear-power pattern matrix) to adopt instead of
                sampling the table on the grid — how a pool worker
                adopts the kernels it read from a published
                shared-memory segment (see :mod:`repro.runtime.shm`).
                It must be a byte copy of what construction would
                compute (deterministic in the table + grid), so
                adopting it is bit-invisible.
        """
        if fusion not in ("product", "snr", "rssi"):
            raise ValueError("fusion must be 'product', 'snr' or 'rssi'")
        self.pattern_table = pattern_table
        self.search_grid = search_grid if search_grid is not None else pattern_table.grid
        self.fusion = fusion
        # Precompute the (n_sectors, n_grid_points) matrix once, in
        # linear power.  Gathering rows of the converted matrix is
        # bitwise identical to converting the gathered rows (the
        # conversion is elementwise), so per-estimate work never touches
        # the (M, K) pattern slice.
        if precomputed is not None:
            prepared = precomputed["prepared_matrix"]
            expected_shape = (len(pattern_table.sector_ids), self.search_grid.n_points)
            if prepared.shape != expected_shape:
                raise ValueError(
                    f"precomputed kernel shape {prepared.shape} "
                    f"does not match {expected_shape}"
                )
            self._prepared = prepared
        else:
            self._prepared = to_linear_power(pattern_table.sample_matrix(self.search_grid))
        # The dense kernel's denominators are a GEMM against P².
        self._prepared_squares = self._prepared * self._prepared
        self._row_of_sector: Dict[int, int] = {
            sector_id: row for row, sector_id in enumerate(pattern_table.sector_ids)
        }
        self._known_sectors = frozenset(self._row_of_sector)
        # Dense sector-id -> row lookup for the kernel (-1 = unknown).
        max_id = max(self._row_of_sector, default=0)
        lookup = np.full(max_id + 1, -1, dtype=np.intp)
        for sector_id, row in self._row_of_sector.items():
            lookup[sector_id] = row
        self._row_lookup = lookup
        self._needs_snr = fusion in ("product", "snr")
        self._needs_rssi = fusion in ("product", "rssi")

    def has_sector(self, sector_id: int) -> bool:
        """O(1): does this sector have a measured pattern?"""
        return sector_id in self._known_sectors

    def _batch_arrays(
        self,
        sector_ids: np.ndarray,
        snr_db: Optional[np.ndarray],
        rssi_dbm: Optional[np.ndarray],
        mask: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
        """Validate a padded batch and return ``(rows, usable, channels)``.

        ``usable`` marks entries that are both valid (per ``mask``) and
        finite in every channel the fusion mode uses.  ``channels``
        holds those channels — SNR first, then RSSI — already
        converted to linear power (garbage in masked-out slots, which is
        never gathered).

        Raises:
            KeyError: a usable entry names a sector without a measured
                pattern.
        """
        ids = np.asarray(sector_ids)
        if ids.ndim != 2:
            raise ValueError("sector_ids must be 2-D (trials x probe slots)")
        ids = ids.astype(np.intp, copy=False)
        shape = ids.shape
        if mask is None:
            usable = np.ones(shape, dtype=bool)
        else:
            usable = np.asarray(mask, dtype=bool).copy()
            if usable.shape != shape:
                raise ValueError(
                    f"mask shape {usable.shape} does not match sector_ids "
                    f"shape {shape}"
                )

        def channel(values, name):
            if values is None:
                raise ValueError(f"fusion '{self.fusion}' requires {name} values")
            values = np.asarray(values, dtype=float)
            if values.shape != shape:
                raise ValueError(
                    f"{name} shape {values.shape} does not match sector_ids "
                    f"shape {shape}"
                )
            return values

        snr = channel(snr_db, "snr_db") if self._needs_snr else None
        rssi = channel(rssi_dbm, "rssi_dbm") if self._needs_rssi else None
        if snr is not None:
            usable &= np.isfinite(snr)
        if rssi is not None:
            usable &= np.isfinite(rssi)

        in_range = (ids >= 0) & (ids < self._row_lookup.size)
        rows = np.where(
            in_range, self._row_lookup[np.clip(ids, 0, self._row_lookup.size - 1)], -1
        )
        unknown = usable & (rows < 0)
        if unknown.any():
            first = int(ids[unknown][0])
            raise KeyError(f"no measured pattern for probed sector {first}")

        channels = []
        with np.errstate(invalid="ignore", over="ignore"):
            if snr is not None:
                channels.append(to_linear_power(snr))
            if rssi is not None:
                channels.append(to_linear_power(rssi - _RSSI_REFERENCE_DBM))
        return rows, usable, channels

    def _one_row(
        self, measurements: Sequence[ProbeMeasurement]
    ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
        """:meth:`_batch_arrays` on one sweep's measurements as a 1-row batch.

        Firmware reports occasionally carry NaN/inf after parse bugs or
        truncated ring-buffer reads.  The kernel skips such probes in
        every row; for a single sweep the drop is also logged, and a
        sweep left with fewer than two finite probes raises instead of
        yielding no estimate.

        Raises:
            ValueError: fewer than two finite measurements remain.
        """
        count = len(measurements)
        ids, snr, rssi = _one_row_arrays(measurements)
        arrays = self._batch_arrays(ids, snr, rssi, None)
        usable = arrays[1][0]
        kept = int(usable.sum())
        if kept < count:
            _LOGGER.warning(
                "dropped %d of %d probe measurements with non-finite "
                "snr/rssi values (sectors %s)",
                count - kept,
                count,
                sorted(ids[0, ~usable].tolist()),
            )
        if kept < 2:
            if kept < count:
                raise ValueError(
                    f"need at least two finite probe measurements to correlate "
                    f"({count - kept} of {count} were non-finite)"
                )
            raise ValueError("need at least two probe measurements to correlate")
        return arrays

    def _estimate_at(
        self, grid_index: int, correlation: float, n_probes: int
    ) -> AngleEstimate:
        azimuth, elevation = self.search_grid.index_to_angles(grid_index)
        return AngleEstimate(
            azimuth_deg=azimuth,
            elevation_deg=elevation,
            correlation=correlation,
            n_probes_used=n_probes,
            grid_index=grid_index,
        )

    def _row_surface(
        self, measurements: Sequence[ProbeMeasurement]
    ) -> Tuple[np.ndarray, int]:
        """One sweep's fused correlation map and the probe count behind it."""
        rows, usable, channels = self._one_row(measurements)
        index = np.flatnonzero(usable[0])
        with np.errstate(invalid="ignore", divide="ignore"):
            surface = _fused_surface(
                _unit_columns(self._prepared[rows[0, index]]),
                [values[0, index] for values in channels],
            )
        return surface, int(index.size)

    def correlation_surface(
        self, measurements: Sequence[ProbeMeasurement]
    ) -> np.ndarray:
        """The fused correlation map over the search grid, flattened.

        Shape ``(grid.n_points,)``; reshape to ``grid.shape`` to plot.
        Non-finite probe values are dropped (with a logged count)
        before correlating.
        """
        return self._row_surface(measurements)[0]

    def estimate(self, measurements: Sequence[ProbeMeasurement]) -> AngleEstimate:
        """Eq. 3 / Eq. 5 on one sweep: a one-row call of the kernel.

        ``n_probes_used`` counts only the finite measurements that
        actually entered the correlation.
        """
        n_probes, best_index, best_corr = self._argmax_rows(*self._one_row(measurements))
        return self._estimate_at(int(best_index[0]), float(best_corr[0]), int(n_probes[0]))

    def estimate_batch(
        self,
        sector_ids: np.ndarray,
        snr_db: Optional[np.ndarray] = None,
        rssi_dbm: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ) -> List[Optional[AngleEstimate]]:
        """:meth:`estimate_fused_arrays` as one estimate (or ``None``) per row.

        Rows with fewer than two usable measurements yield ``None``
        instead of raising, because padded batches legitimately contain
        under-filled trials that callers want to skip.
        """
        n_probes, best_index, best_corr = self.estimate_fused_arrays(
            sector_ids, snr_db, rssi_dbm, mask
        )
        return [
            self._estimate_at(int(index), float(corr), int(count)) if index >= 0 else None
            for count, index, corr in zip(n_probes, best_index, best_corr)
        ]

    def estimate_fused_arrays(
        self,
        sector_ids: np.ndarray,
        snr_db: Optional[np.ndarray] = None,
        rssi_dbm: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eq. 3 / Eq. 5 over a padded batch of probe sweeps.

        Row ``t`` describes one sweep's probes in slot order: sector ids
        in ``sector_ids[t]``, their reported values in ``snr_db[t]`` /
        ``rssi_dbm[t]`` (whichever channels the fusion mode uses), and
        ``mask[t]`` flagging slots that actually carry a report (padded
        slots may hold anything).  Non-finite values in a used channel
        are skipped like padding.

        Returns:
            ``(n_probes, best_index, best_corr)`` arrays of length
            ``T``: usable probes, flat search-grid index of the argmax
            and the correlation there.  Rows with fewer than two usable
            measurements carry ``best_index == -1`` and
            ``best_corr == NaN``.
        """
        return self._argmax_rows(*self._batch_arrays(sector_ids, snr_db, rssi_dbm, mask))

    def _argmax_rows(
        self, rows: np.ndarray, usable: np.ndarray, channels: List[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kernel: the finite argmax of Eq. 3/5 per row, and its correlation.

        Rows with at least two usable probes get an argmax; the
        reference for it is the exact one-row computation
        (:meth:`_exact_argmax`: :func:`_unit_columns` and one GEMV per
        channel, the path :meth:`correlation_surface` takes).  A
        multi-row call computes every row's map at once in
        :meth:`_dense_argmax` and keeps a row's argmax only when the
        certificate below proves it equal to the exact path's.  Rows
        that fail it (exact ties, near-ties, any NaN), one-row calls
        and every row under a quality context (whose peak ratio needs
        the full map) take the exact path.  The reported correlation
        has one definition on both paths (:func:`_slot_correlation`,
        over the exact path's gathered slice or the padded rows of
        :meth:`_winner_correlation`), so every output of a row is a
        pure function of that row.

        **The certificate.**  With ``u = 2**-53`` and ``M`` usable
        probes, both paths compute ``W = Π_c (x̂_c·p̂)²``, where each
        factor is a squared inner product of two unit vectors, so
        ``0 ≤ W ≤ 1`` and every error below is absolute.  The exact
        path's unit vectors carry a relative error of at most
        ``(M/2 + 2)u`` (a sum of ``M`` squares, a square root, a
        divide), its GEMV adds ``M·u·Σ|x̂_i p̂_i| ≤ M·u`` (Cauchy–Schwarz),
        so each inner product is within ``(2M + 4)u``, each squared
        factor within ``(4M + 9)u`` and the fused product within
        ``(8M + 20)u`` of the exact real value.  The dense path's
        numerator ``x̂·P`` is within ``(1.5M + 3)u·‖P‖`` (the scatter's
        sums of repeated ids and the GEMM's sums are one summation tree
        of ``M`` products), its denominator ``Σ P²`` within a relative
        ``(M + 2)u``, and its fused quotient within ``(8M + 21)u``.
        The ``ε`` clamps only scale ``W`` down.  So ``|W_dense − W_exact| ≤ (16M + 48)u`` (plus
        subnormal rounding, below ``1e-300``), and a dense top value
        that beats every other grid point by more than twice that,
        ``(32M + 96)u``, is the exact path's unique maximum.  The
        certificate demands a gap above ``τ =`` :data:`_CERTIFIED_GAP`
        ``= 1e-11`` (no row with a NaN passes); at the largest accepted
        ``M``, :data:`_CERTIFIED_MAX_PROBES` ``= 128``, the proof needs
        ``4,192u ≈ 4.7e-13``, a 21× margin.
        """
        _obs.inc("estimator_calls_total")
        _obs.inc("estimator_batch_rows_total", rows.shape[0])
        n_trials = rows.shape[0]
        n_probes = usable.sum(axis=1)
        best_index = np.full(n_trials, -1, dtype=np.intp)
        best_corr = np.full(n_trials, np.nan)
        winners = np.flatnonzero(n_probes >= 2)
        if not winners.size:
            return n_probes, best_index, best_corr
        quality_on = _quality.quality_context() is not None
        with np.errstate(invalid="ignore", divide="ignore", over="ignore", under="ignore"):
            # Rows the dense pass certified; the exact path takes the rest.
            dense = []
            if n_trials == 1 or quality_on:
                exact = winners
            else:
                candidates = winners[n_probes[winners] <= _CERTIFIED_MAX_PROBES]
                exact = [winners[n_probes[winners] > _CERTIFIED_MAX_PROBES]]
                for first in range(0, candidates.size, _BLOCK_ROWS):
                    block = candidates[first : first + _BLOCK_ROWS]
                    found, certified = self._dense_argmax(
                        rows[block], usable[block], [values[block] for values in channels]
                    )
                    best_index[block[certified]] = found[certified]
                    dense.append(block[certified])
                    exact.append(block[~certified])
                exact = np.sort(np.concatenate(exact))
            for row in exact:
                best_index[row], best_corr[row] = self._exact_argmax(
                    rows[row], usable[row], [values[row] for values in channels],
                    quality_on,
                )
            dense = np.concatenate(dense) if dense else ()
            if len(dense):
                picked = slice(None) if len(dense) == n_trials else dense
                best_corr[picked] = self._winner_correlation(
                    rows[picked],
                    usable[picked],
                    [values[picked] for values in channels],
                    best_index[picked],
                )
        return n_probes, best_index, best_corr

    def _exact_argmax(
        self,
        rows: np.ndarray,
        usable: np.ndarray,
        channels: List[np.ndarray],
        quality_on: bool,
    ) -> Tuple[int, float]:
        """One row's finite argmax over its full map, and its correlation.

        One GEMV per channel over the row's gathered pattern slice; the
        correlation at the winner is :func:`_slot_correlation` of that
        slice's winning column and the row's usable values — the slots
        :meth:`_winner_correlation` reads, without its padding.  Records
        the row's peak ratio when quality telemetry is on.
        """
        index = np.flatnonzero(usable)
        patterns = self._prepared[rows[index]]
        values = [channel[index] for channel in channels]
        surface = _fused_surface(_unit_columns(patterns), values)
        found = _finite_argmax(surface)
        if quality_on:
            _quality.record_peak_ratio(surface, found, int(index.size))
        correlation = _slot_correlation(
            patterns[np.newaxis, :, found], [channel[np.newaxis] for channel in values]
        )
        return found, float(correlation[0])

    def _dense_argmax(
        self, rows: np.ndarray, usable: np.ndarray, channels: List[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every row's map as two GEMMs; its argmax and whether it is certified.

        Each row's unit probe vector per channel, and its probe counts,
        are scattered into ``(T, S)`` matrices over the table's ``S``
        sectors (``bincount`` sums repeated ids).  The numerators
        ``x̂·P`` of all channels are one GEMM against the prepared
        matrix, the denominators ``Σ P²`` one GEMM of the counts
        against its square, and ``W = Π_c num_c² / max(den, ε²)^C``.
        A row is certified when its top value beats its runner-up by
        more than :data:`_CERTIFIED_GAP`.
        """
        n_rows = rows.shape[0]
        n_sectors = self._prepared.shape[0]
        size = n_rows * n_sectors
        row_idx, col_idx = np.nonzero(usable)
        flat = row_idx * n_sectors + rows[row_idx, col_idx]
        counts = np.bincount(flat, minlength=size).reshape(n_rows, n_sectors)
        units = np.empty((len(channels) * n_rows, n_sectors))
        for channel, values in enumerate(channels):
            probes = np.where(usable, values, 0.0)
            norms = np.sqrt(np.einsum("ij,ij->i", probes, probes))
            unit = probes[row_idx, col_idx] / np.maximum(norms, _EPSILON)[row_idx]
            units[channel * n_rows : (channel + 1) * n_rows] = np.bincount(
                flat, weights=unit, minlength=size
            ).reshape(n_rows, n_sectors)
        numerators = units @ self._prepared
        denominators = counts.astype(float) @ self._prepared_squares
        np.square(numerators, out=numerators)
        surface = numerators[:n_rows]
        for channel in range(1, len(channels)):
            surface *= numerators[channel * n_rows : (channel + 1) * n_rows]
        np.maximum(denominators, _EPSILON * _EPSILON, out=denominators)
        if len(channels) == 2:
            np.square(denominators, out=denominators)
        surface /= denominators
        found = surface.argmax(axis=1)
        every = np.arange(n_rows)
        top = surface[every, found]
        surface[every, found] = -np.inf
        # A NaN anywhere in the row makes the gap NaN, which certifies nothing.
        certified = top - surface.max(axis=1) > _CERTIFIED_GAP
        return found, certified

    def _winner_correlation(
        self,
        rows: np.ndarray,
        usable: np.ndarray,
        channels: List[np.ndarray],
        best_index: np.ndarray,
    ) -> np.ndarray:
        """Eq. 2 / Eq. 5 at each row's winning grid point, over padded rows.

        :func:`_slot_correlation` of each row's winning pattern values
        and channel values, with the unusable slots zeroed.
        """
        patterns = self._prepared[np.where(usable, rows, 0), best_index[:, np.newaxis]]
        patterns[~usable] = 0.0
        return _slot_correlation(
            patterns, [np.where(usable, values, 0.0) for values in channels]
        )


def _slot_correlation(patterns: np.ndarray, channels: List[np.ndarray]) -> np.ndarray:
    """Eq. 2 / Eq. 5 per row: the one definition of the reported correlation.

    ``patterns`` and each of ``channels`` are ``(rows × slots)``: a
    row's pattern values at its winning grid point and its channel
    values, slot by slot, zero in slots that carry no usable probe.
    Per channel ``(Σ v·p / (max(√Σ v², ε)·max(√Σ p², ε)))²``, fused by
    product in channel order, with every sum taken in slot order:
    ``cumsum`` adds strictly in sequence, and the zero slots' exact
    zeros change no partial sum.  So the value depends on the row's
    usable probes alone — not on padding, batch size or the path that
    found the argmax — and a row's compacted slots give the same bits
    as its padded ones.
    """
    n_channels = len(channels)
    # Squares first (patterns, then each channel), inner products last.
    terms = np.empty((1 + 2 * n_channels,) + patterns.shape)
    np.multiply(patterns, patterns, out=terms[0])
    for channel, values in enumerate(channels):
        np.multiply(values, values, out=terms[1 + channel])
        np.multiply(values, patterns, out=terms[1 + n_channels + channel])
    sums = np.cumsum(terms, axis=2)[:, :, -1]
    norms = np.maximum(np.sqrt(sums[: 1 + n_channels]), _EPSILON)
    cosines = sums[1 + n_channels :] / (norms[1:] * norms[0])
    factors = cosines * cosines
    correlation = factors[0]
    for factor in factors[1:]:
        correlation = correlation * factor
    return correlation
