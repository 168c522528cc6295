"""Angle-of-arrival estimation from compressive probes (Eqs. 3 and 5).

The estimator maximizes the correlation map over a discrete angular
grid.  Following §5, it can fuse the SNR-based and RSSI-based maps by
multiplication — the two values are acquired independently inside the
firmware, so an outlier in one rarely coincides with an outlier in the
other, and the product suppresses it.

Hot-path layout: the pattern matrix is sampled on the search grid
*and* converted to the correlation domain once at construction.  One
array kernel (:meth:`AngleEstimator.estimate_fused_arrays`) evaluates a
whole padded (trials × probes) batch; :meth:`AngleEstimator.estimate`,
:meth:`AngleEstimator.estimate_batch` and
:meth:`AngleEstimator.correlation_surface` are adapters over it with no
arithmetic of their own.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs as _obs
from ..obs import quality as _quality
from ..geometry.grid import AngularGrid
from ..measurement.patterns import PatternTable
from .correlation import (
    _EPSILON,
    _check_domain,
    _correlate_core,
    _to_domain,
    _unit_columns,
)
from .measurements import ProbeMeasurement

__all__ = ["AngleEstimate", "AngleEstimator"]

#: RSSI values are referenced to this nominal noise floor before the
#: linear-domain correlation; any constant works (the correlation is
#: scale-invariant) but keeping numbers small avoids float overflow.
_RSSI_REFERENCE_DBM = -71.5

#: Rows per stacked kernel pass.  Rows of equal usable-probe count are
#: evaluated a few at a time as ``(R, M, K)`` blocks in a per-thread
#: scratch pair; on the 1,010-point grid four rows keep that pair in
#: L2, and stacks of 8 double it for no measurable gain (DESIGN.md §12).
_STACK_ROWS = 4

#: Per-thread scratch of :meth:`AngleEstimator._argmax_stack`: two flat
#: float64 buffers, grown on demand.  Module-level, so an estimator
#: pickles without them and threads sharing one never share a buffer.
_SCRATCH = threading.local()

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


def _scratch_pair(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """This thread's two scratch buffers, each at least ``size`` floats."""
    pair = getattr(_SCRATCH, "pair", None)
    if pair is None or pair[0].size < size:
        pair = (np.empty(size), np.empty(size))
        _SCRATCH.pair = pair
    return pair


def _fused_surface(
    pattern_unit: np.ndarray, channels: Sequence[np.ndarray]
) -> np.ndarray:
    """One row's correlation map: Eq. 3 for one channel, Eq. 5 for two.

    ``channels`` are the row's domain-transformed probe values, SNR
    first; the fused map is their per-channel maps multiplied.
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
        domain: str = "linear",
        fusion: str = "product",
        precomputed: Optional[Dict[str, np.ndarray]] = None,
    ):
        """
        Args:
            pattern_table: measured sector patterns (Figures 5/6 data).
            search_grid: grid for the numeric argmax of Eq. 3; defaults
                to the table's own measurement grid.
            domain: correlation domain (see :mod:`.correlation`).
            fusion: ``"product"`` fuses the SNR and RSSI maps (Eq. 5);
                ``"snr"`` / ``"rssi"`` use one map alone (Eq. 3).
            precomputed: optional ``pattern_matrix`` / ``prepared_matrix``
                arrays to adopt instead of sampling the table on the
                grid — the zero-copy path for pool workers attaching a
                published shared-memory segment (see
                :mod:`repro.runtime.shm`).  Arrays must be byte copies
                of what construction would compute (deterministic in
                the table + grid), so adopting them is bit-invisible.
        """
        if fusion not in ("product", "snr", "rssi"):
            raise ValueError("fusion must be 'product', 'snr' or 'rssi'")
        _check_domain(domain)
        self.pattern_table = pattern_table
        self.search_grid = search_grid if search_grid is not None else pattern_table.grid
        self.domain = domain
        self.fusion = fusion
        # Precompute the (n_sectors, n_grid_points) matrix once, in both
        # the native dB domain and the correlation domain.  Gathering
        # rows of the pre-transformed matrix is bitwise identical to
        # transforming the gathered rows (the transform is elementwise),
        # so per-estimate work never touches the (M, K) pattern slice.
        expected_shape = (len(pattern_table.sector_ids), self.search_grid.n_points)
        if precomputed is not None:
            matrix = precomputed["pattern_matrix"]
            prepared = precomputed["prepared_matrix"]
            if matrix.shape != expected_shape or prepared.shape != expected_shape:
                raise ValueError(
                    f"precomputed kernel shape {matrix.shape}/{prepared.shape} "
                    f"does not match {expected_shape}"
                )
            self._matrix = matrix
            self._prepared = prepared
        else:
            self._matrix = pattern_table.sample_matrix(self.search_grid)
            self._prepared = _to_domain(self._matrix, domain)
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

    def known_sector_ids(self) -> List[int]:
        """Sectors with a measured pattern (usable as probes)."""
        return list(self._row_of_sector)

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
        transformed into the correlation domain (garbage in masked-out
        slots, which is never gathered).

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
                channels.append(_to_domain(snr, self.domain))
            if rssi is not None:
                channels.append(_to_domain(rssi - _RSSI_REFERENCE_DBM, self.domain))
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
        """The kernel: compact, correlate and take the finite argmax per row.

        One ``nonzero`` compacts every usable entry of the batch into
        flat arrays up front.  A one-row batch is then one
        :func:`_unit_columns` and one GEMV per channel; larger batches
        group their rows by usable-probe count and evaluate each group
        in stacks of at most :data:`_STACK_ROWS` rows
        (:meth:`_argmax_stack`), the group's probe units computed once.
        Per row, every reduction and BLAS call is the one the one-row
        path makes, so both give the same bits.
        A single ``np.errstate`` entry covers the whole batch.
        """
        _obs.inc("estimator_calls_total")
        _obs.inc("estimator_batch_rows_total", rows.shape[0])
        n_trials = rows.shape[0]
        n_probes = usable.sum(axis=1)
        best_index = np.full(n_trials, -1, dtype=np.intp)
        best_corr = np.full(n_trials, np.nan)
        # Row-major nonzero visits each row's usable columns in
        # ascending order, so each row's probes sit contiguously, in
        # slot order, in the flat gathers.
        row_idx, col_idx = np.nonzero(usable)
        rows_c = rows[row_idx, col_idx]
        channels_c = [values[row_idx, col_idx] for values in channels]
        quality_on = _quality.quality_context() is not None
        with np.errstate(invalid="ignore", divide="ignore"):
            if n_trials == 1:
                if n_probes[0] >= 2:
                    surface = _fused_surface(
                        _unit_columns(self._prepared[rows_c]), channels_c
                    )
                    found = _finite_argmax(surface)
                    best_index[0] = found
                    best_corr[0] = surface[found]
                    if quality_on:
                        _quality.record_peak_ratio(surface, found, int(n_probes[0]))
                return n_probes, best_index, best_corr
            starts = np.cumsum(n_probes) - n_probes
            eligible = np.flatnonzero(n_probes >= 2)
            # A stable sort keeps trial order within each count group.
            order = eligible[np.argsort(n_probes[eligible], kind="stable")]
            cuts = np.flatnonzero(np.diff(n_probes[order])) + 1
            for group in np.split(order, cuts) if order.size else ():
                count = int(n_probes[group[0]])
                flat = starts[group, np.newaxis] + np.arange(count)
                group_rows = rows_c[flat]
                # Each row's probe norm is its own BLAS ``dot``, as in
                # the one-row path; stacking only batches the calls.
                probe_units = []
                for values in channels_c:
                    values = values[flat]
                    squares = np.matmul(values[:, np.newaxis, :], values[:, :, np.newaxis])
                    probe_units.append(
                        values / np.maximum(np.sqrt(squares[:, 0]), _EPSILON)
                    )
                for first in range(0, group.size, _STACK_ROWS):
                    stop = first + _STACK_ROWS
                    stack = group[first:stop]
                    found, surface = self._argmax_stack(
                        group_rows[first:stop], [unit[first:stop] for unit in probe_units]
                    )
                    best_index[stack] = found
                    best_corr[stack] = surface[np.arange(stack.size), found]
                    if quality_on:
                        for row, index in enumerate(found):
                            _quality.record_peak_ratio(surface[row], int(index), count)
        return n_probes, best_index, best_corr

    def _argmax_stack(
        self, rows: np.ndarray, probe_units: List[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Finite argmax and fused surface of ``R`` rows of equal probe count.

        ``rows`` is ``(R, M)`` pattern rows; ``probe_units`` are the
        ``(R, M)`` unit probe vectors per channel, SNR first.  Each row
        gets :func:`_unit_columns`' reduction over its ``M`` probes and
        a GEMV per channel — stacked ``matmul`` runs the GEMVs row by
        row — so a stacked row equals the one-row path bit for bit.
        The ``(R, M, K)`` gather and its squares live in this thread's
        scratch pair (:func:`_scratch_pair`), so a stack allocates only
        its ``(R, K)`` norms and surfaces.  Rows with the same pattern
        rows (a fixed design) share one unit matrix.
        """
        if (rows == rows[0]).all():
            unit = _unit_columns(self._prepared[rows[0]])[np.newaxis]
        else:
            shape = rows.shape + (self._prepared.shape[1],)
            size = rows.size * shape[2]
            first, second = _scratch_pair(size)
            unit = first[:size].reshape(shape)
            squares = second[:size].reshape(shape)
            # ``mode="raise"`` would buffer ``out``; the rows are valid
            # indices, so ``"wrap"`` gathers exactly the fancy index.
            np.take(self._prepared, rows, axis=0, mode="wrap", out=unit)
            # ``square`` is ``x * x`` bit for bit, at about half the cost.
            np.square(unit, out=squares)
            norms = np.add.reduce(squares, axis=1)
            np.sqrt(norms, out=norms)
            np.maximum(norms, _EPSILON, out=norms)
            np.divide(unit, norms[:, np.newaxis, :], out=unit)
        surface = None
        for probe_unit in probe_units:
            channel_surface = np.matmul(probe_unit[:, np.newaxis, :], unit)[:, 0] ** 2
            surface = channel_surface if surface is None else surface * channel_surface
        found = surface.argmax(axis=1)
        for row in np.flatnonzero(np.isnan(surface[np.arange(found.size), found])):
            found[row] = _finite_argmax(surface[row])
        return found, surface
