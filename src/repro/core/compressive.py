"""Compressive sector selection (the paper's core contribution, §2.2).

Two steps per sweep:

1. Probe ``M`` of the ``N`` available sectors and estimate the signal's
   path direction by correlating the received signal-strength vector
   against the measured 3D patterns (Eqs. 2, 3, 5).
2. Pick, among **all** ``N`` sectors, the one whose measured pattern
   has the highest gain at the estimated direction (Eq. 4).

``N`` can therefore be much larger than ``M`` — the selection quality
is bounded by the pattern knowledge, not the probe count.
"""

from __future__ import annotations

from typing import Callable, ContextManager, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import obs as _obs
from ..obs import quality as _quality
from ..geometry.grid import AngularGrid
from ..measurement.patterns import PatternTable
from .estimator import AngleEstimator, _one_row_arrays
from .measurements import ProbeMeasurement
from .selector import (
    INITIAL_SECTOR,
    SELECTION_DTYPE,
    SelectionResult,
    Selections,
    forward_fill,
)

__all__ = ["CompressiveSectorSelector"]


#: The :data:`~.selector.SELECTION_DTYPE` fields of a row without an
#: estimate, and their values.
_NO_ESTIMATE = (
    ("azimuth", np.nan),
    ("elevation", np.nan),
    ("correlation", np.nan),
    ("probes_used", 0),
    ("grid_index", -1),
)


#: The part starts of a batch that is one part.
_ONE_PART = np.zeros(1, dtype=np.intp)
_ONE_PART.flags.writeable = False


def _count_fallbacks(count: int) -> None:
    if count:
        _obs.inc("selector_fallbacks_total", count)


class _FusedBatch(NamedTuple):
    """Per-row arrays from the stateless half of :meth:`select_batch`.

    Everything the stateful result builder needs, with no reference to
    selector state — rows are independent, so batches from several
    blocks may be stacked, run through :meth:`_fused_arrays` once, and
    built once with each block as a part (see the runner's chunked
    execution).
    """

    ids: np.ndarray          #: validated (T, M) intp sector ids
    sel_usable: np.ndarray   #: (T, M) bool — valid and known-sector
    need: np.ndarray         #: (T,) bool — row has two usable probes
    n_probes: np.ndarray     #: (T,) intp — finite usable count per row
    best_index: np.ndarray   #: (T,) intp — Eq. 3/5 argmax (-1 = none)
    best_corr: np.ndarray    #: (T,) float — correlation at the argmax
    sector_of: np.ndarray    #: (T,) intp — Eq. 4 winner (-1 = none)


class CompressiveSectorSelector:
    """Selects sectors from compressive probes and measured patterns."""

    def __init__(
        self,
        pattern_table: PatternTable,
        search_grid: Optional[AngularGrid] = None,
        fusion: str = "product",
        precomputed=None,
    ):
        """
        Args:
            pattern_table: measured patterns of every available sector.
                The ``N`` sectors eligible for the final selection are
                all of them but the quasi-omni RX sector 0, i.e. every
                TX sector.
            search_grid: angular grid for the Eq. 3 argmax.
            fusion: correlation fusion mode — ``"product"`` applies the
                Eq. 5 SNR×RSSI robustification (§5); ``"snr"`` and
                ``"rssi"`` use a single map (for the ablation study).
            precomputed: optional dict of ``prepared_matrix`` /
                ``candidate_matrix`` arrays to adopt instead of
                re-sampling the table on the grid — how a pool worker
                adopts the kernels it read from a published
                shared-memory segment (byte copies of what construction
                would compute, so bit-invisible).

        Before any sweep succeeds the selection is sector
        :data:`~.selector.INITIAL_SECTOR`; a sweep with fewer than two
        usable reports falls back (to its one report, else the last
        choice).
        """
        self.pattern_table = pattern_table
        self.candidate_sector_ids = [
            sector_id for sector_id in pattern_table.sector_ids if sector_id != 0
        ]
        self.estimator = AngleEstimator(
            pattern_table,
            search_grid=search_grid,
            fusion=fusion,
            precomputed=precomputed,
        )
        self._last_selection = INITIAL_SECTOR
        # Candidate gains on the search grid, for the Eq. 4 lookup.
        if precomputed is not None:
            candidate_matrix = precomputed["candidate_matrix"]
            expected = (
                len(self.candidate_sector_ids),
                self.estimator.search_grid.n_points,
            )
            if candidate_matrix.shape != expected:
                raise ValueError(
                    f"precomputed candidate matrix shape {candidate_matrix.shape} "
                    f"does not match {expected}"
                )
            self._candidate_matrix = candidate_matrix
        else:
            self._candidate_matrix = pattern_table.sample_matrix(
                self.estimator.search_grid, self.candidate_sector_ids
            )
        self._candidate_ids_array = np.asarray(self.candidate_sector_ids, dtype=np.intp)

    @property
    def last_selection(self) -> int:
        return self._last_selection

    def reset(self) -> None:
        """Forget the selection history (as if freshly constructed).

        Experiments that evaluate many independent recordings reuse one
        selector (construction samples two full grid matrices) and call
        this between recordings instead of rebuilding it.
        """
        self._last_selection = INITIAL_SECTOR

    def select(self, measurements: Sequence[ProbeMeasurement]) -> SelectionResult:
        """Run both steps on one sweep's measurements (a one-row batch)."""
        return self.select_batch(*_one_row_arrays(measurements))[0]

    def select_batch(
        self,
        sector_ids: np.ndarray,
        snr_db: np.ndarray,
        rssi_dbm: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ) -> Selections:
        """Both steps over a padded batch of sweeps (correlate → argmax → Eq. 4).

        Row ``t`` holds one sweep's probes in slot order (``mask[t]``
        flags slots carrying a report; padded slots may hold anything).
        Probes of sectors without a measured pattern are ignored.
        ``snr_db`` is always required, while ``rssi_dbm`` is only
        needed when the estimator's fusion uses it.  Rows update the
        selection state in order, so the result rows are the sequence of
        one-sweep selections.

        Raises:
            ValueError: a row had enough known-sector probes to attempt
                estimation but fewer than two finite ones.
        """
        return self._fused_build(
            self._fused_arrays(sector_ids, snr_db, rssi_dbm, mask),
            _ONE_PART,
            self._last_selection,
        )

    # The repo benchmark's per-layer wrappers (bench/layers.py) time
    # the kernel under this older name as well, so it stays an alias.
    select_fused_batch = select_batch

    def _fused_arrays(
        self,
        sector_ids: np.ndarray,
        snr_db: np.ndarray,
        rssi_dbm: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ) -> _FusedBatch:
        """Stateless array half of :meth:`select_batch`.

        Validates the padded batch, runs the estimator's kernel
        (correlate → finite argmax), and resolves Eq. 4 for every estimated
        row in one vectorized column gather.  Touches no selector state
        (``_last_selection`` is only read/written by the builder), so
        several blocks' batches may be stacked row-wise and evaluated
        in a single call.
        """
        ids = np.asarray(sector_ids)
        if ids.ndim != 2:
            raise ValueError("sector_ids must be 2-D (trials x probe slots)")
        _obs.inc("selector_calls_total")
        _obs.inc("selector_batch_rows_total", ids.shape[0])
        ids = ids.astype(np.intp, copy=False)
        snr = np.asarray(snr_db, dtype=float)
        if snr.shape != ids.shape:
            raise ValueError(
                f"snr_db shape {snr.shape} does not match sector_ids shape {ids.shape}"
            )
        if mask is None:
            valid = np.ones(ids.shape, dtype=bool)
        else:
            valid = np.asarray(mask, dtype=bool)
            if valid.shape != ids.shape:
                raise ValueError(
                    f"mask shape {valid.shape} does not match sector_ids "
                    f"shape {ids.shape}"
                )

        lookup = self.estimator._row_lookup
        in_range = (ids >= 0) & (ids < lookup.size)
        known = np.zeros(ids.shape, dtype=bool)
        known[in_range] = lookup[ids[in_range]] >= 0
        sel_usable = valid & known
        counts = sel_usable.sum(axis=1)
        need = counts >= 2

        # The estimator only sees rows with two usable probes; zeroing
        # short rows' masks instead of slicing keeps the batch layout
        # intact for the kernel's single-nonzero compaction.
        estimate_mask = sel_usable if bool(need.all()) else sel_usable & need[:, None]
        n_probes, best_index, best_corr = self.estimator.estimate_fused_arrays(
            ids, snr_db=snr, rssi_dbm=rssi_dbm, mask=estimate_mask
        )

        # Eq. 4, vectorized: per gathered column, the first argmax over
        # candidate gains.
        sector_of = np.full(ids.shape[0], -1, dtype=np.intp)
        have = best_index >= 0
        if have.any():
            candidate_gains = self._candidate_matrix[:, best_index[have]]
            sector_of[have] = self._candidate_ids_array[
                np.argmax(candidate_gains, axis=0)
            ]
        return _FusedBatch(ids, sel_usable, need, n_probes, best_index, best_corr, sector_of)

    def _fused_build(
        self, fused: _FusedBatch, starts: np.ndarray, entry: int
    ) -> Selections:
        """Stateful result-building half of :meth:`select_batch`, vectorized.

        The stacked rows fall into parts beginning at the rows
        ``starts`` (the first is 0), each entered with the selection
        ``entry``.  A row that estimated selects its Eq. 4 winner; a row
        with one usable probe falls back to that probe's sector, and
        with none keeps the running selection of its part
        (:func:`~.selector.forward_fill`).  ``last_selection`` ends as
        the last row's sector.

        Raises:
            ValueError: the first row with two usable probes but fewer
                than two finite ones, numbered within its part; the
                selection state is left as it stood before that row.
        """
        n_rows = fused.ids.shape[0]
        need, best_index, n_probes = fused.need, fused.best_index, fused.n_probes
        failed = need & (best_index < 0)
        estimated = need & ~failed
        all_estimated = bool(estimated.all())
        if all_estimated:
            # Every row estimated: no state to thread.
            sector = fused.sector_of
        else:
            sector = self._running_selection(fused, estimated, failed, starts, entry)
        if n_rows and starts[-1] < n_rows:
            self._last_selection = int(sector[-1])
        else:
            self._last_selection = entry
        grid = self.estimator.search_grid
        if _quality.quality_context() is not None:
            for row in np.flatnonzero(estimated):
                _quality.record_selection_margin(
                    self._candidate_matrix[:, best_index[row]], int(n_probes[row])
                )
        rows = np.empty(n_rows, dtype=SELECTION_DTYPE)
        rows["sector"] = sector
        rows["fallback"] = ~estimated
        rows["estimated"] = estimated
        rows["correlation"] = fused.best_corr
        rows["probes_used"] = n_probes
        rows["grid_index"] = best_index
        el_index, az_index = np.divmod(best_index, grid.n_azimuth)
        rows["azimuth"] = grid.azimuths_deg[az_index]
        rows["elevation"] = grid.elevations_deg[el_index]
        if not all_estimated:
            # Rows without an estimate carry the no-estimate values.
            plain = ~estimated
            for name, value in _NO_ESTIMATE:
                rows[name][plain] = value
        return Selections(rows)

    def _running_selection(
        self,
        fused: _FusedBatch,
        estimated: np.ndarray,
        failed: np.ndarray,
        starts: np.ndarray,
        entry: int,
    ) -> np.ndarray:
        """Each row's sector when some rows fall back (or fail).

        A fallback row has fewer than two usable probes: it takes the
        sector of its one usable probe and, with none, keeps the running
        selection of its part (:func:`~.selector.forward_fill`).  A
        failed row raises here, after the state before it is restored.
        """
        chosen = np.where(estimated, fused.sector_of, 0)
        sets = estimated.copy()
        backs = np.flatnonzero(~estimated & ~failed)
        # At most one usable slot per fallback row: nonzero finds each.
        rows, slots = np.nonzero(fused.sel_usable[backs])
        found = backs[rows]
        chosen[found] = fused.ids[found, slots]
        sets[found] = True
        sector = forward_fill(chosen, sets, starts, entry)
        if failed.any():
            trial = int(np.argmax(failed))
            start = int(starts[np.searchsorted(starts, trial, side="right") - 1])
            self._last_selection = int(sector[trial - 1]) if trial > start else entry
            _count_fallbacks(int(np.count_nonzero(backs < trial)))
            known = int(fused.sel_usable[trial].sum())
            raise ValueError(
                f"trial {trial - start}: need at least two finite probe "
                f"measurements to correlate ({known - int(fused.n_probes[trial])} "
                f"of {known} were non-finite)"
            )
        _count_fallbacks(int(backs.size))
        return sector

    def select_fused_stacked(
        self,
        parts: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
        around: Optional[Callable[[int], ContextManager]] = None,
    ) -> Selections:
        """:meth:`select_batch` on several independent batches in one pass.

        ``parts`` is a sequence of ``(sector_ids, snr_db, rssi_dbm,
        mask)`` tuples with equal probe widths; the result holds every
        part's rows in order.  Bit-for-bit equivalent to
        ``reset(); select_batch(*part)`` per part: the stateless half
        (:meth:`_fused_arrays`) is row-independent, and the one build
        (:meth:`_fused_build`) starts every part from freshly reset
        selection state.  Stacking amortizes the fixed-cost numpy
        dispatches of both halves over every part — the lever that
        makes chunked execution cheaper than one call per block.

        ``around(i)``, when given, returns a context manager entered
        once per part ``i``, in order, after the build — the runner
        opens each block's ``execute.block`` span there.

        Raises on width mismatch or any per-row validation error;
        callers degrade to per-part evaluation (which reproduces the
        exact per-part error behavior).
        """
        counts = np.array([part[0].shape[0] for part in parts], dtype=np.intp)
        fused = self._fused_arrays(
            *(
                np.concatenate([part[field] for part in parts])
                for field in range(4)
            )
        )
        self.reset()
        selections = self._fused_build(
            fused, np.cumsum(counts) - counts, self._last_selection
        )
        if around is not None:
            for index in range(len(parts)):
                with around(index):
                    pass
        return selections
