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

from contextlib import nullcontext
from typing import Callable, ContextManager, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import obs as _obs
from ..obs import quality as _quality
from ..geometry.grid import AngularGrid
from ..measurement.patterns import PatternTable
from .estimator import AngleEstimator, _one_row_arrays
from .measurements import ProbeMeasurement
from .selector import SelectionResult

__all__ = ["CompressiveSectorSelector"]


class _FusedBatch(NamedTuple):
    """Per-row arrays from the stateless half of :meth:`select_batch`.

    Everything the stateful result builder needs, with no reference to
    selector state — rows are independent, so batches from several
    blocks may be stacked, run through :meth:`_fused_arrays` once, and
    rebuilt per block (see the runner's chunked execution).
    """

    ids: np.ndarray          #: validated (T, M) intp sector ids
    snr: np.ndarray          #: validated (T, M) float SNR values
    sel_usable: np.ndarray   #: (T, M) bool — valid and known-sector
    need: np.ndarray         #: (T,) bool — row met ``min_probes``
    n_probes: np.ndarray     #: (T,) intp — finite usable count per row
    best_index: np.ndarray   #: (T,) intp — Eq. 3/5 argmax (-1 = none)
    best_corr: np.ndarray    #: (T,) float — correlation at the argmax
    sector_of: np.ndarray    #: (T,) intp — Eq. 4 winner (-1 = none)


class CompressiveSectorSelector:
    """Selects sectors from compressive probes and measured patterns."""

    def __init__(
        self,
        pattern_table: PatternTable,
        candidate_sector_ids: Optional[Sequence[int]] = None,
        search_grid: Optional[AngularGrid] = None,
        fusion: str = "product",
        domain: str = "linear",
        initial_sector_id: int = 1,
        min_probes: int = 2,
        fallback_correlation: float = 0.0,
        precomputed=None,
    ):
        """
        Args:
            pattern_table: measured patterns of every available sector.
            candidate_sector_ids: the ``N`` sectors eligible for the
                final selection (default: every table sector except the
                quasi-omni RX sector 0, i.e. all TX sectors).
            search_grid: angular grid for the Eq. 3 argmax.
            fusion: correlation fusion mode — ``"product"`` applies the
                Eq. 5 SNR×RSSI robustification (§5); ``"snr"`` and
                ``"rssi"`` use a single map (for the ablation study).
            domain: correlation domain, ``"linear"`` or ``"db"``.
            initial_sector_id: selection before any sweep succeeds.
            min_probes: below this many usable reports the selector
                falls back (argmax of what it has, else last choice).
            fallback_correlation: when the Eq. 3/5 peak correlation
                drops below this value the measured patterns clearly no
                longer describe the channel (e.g. a blocked LOS), and
                the selector falls back to the plain argmax of the
                probes.  0 (default) disables the fallback — the
                paper's protocol always trusts the patterns.
            precomputed: optional dict of ``pattern_matrix`` /
                ``prepared_matrix`` / ``candidate_matrix`` arrays to
                adopt instead of re-sampling the table on the grid —
                the zero-copy path for pool workers attaching a
                published shared-memory segment (byte copies of what
                construction would compute, so bit-invisible).
        """
        if candidate_sector_ids is None:
            candidate_sector_ids = [
                sector_id for sector_id in pattern_table.sector_ids if sector_id != 0
            ]
        unknown = [s for s in candidate_sector_ids if s not in pattern_table.sector_ids]
        if unknown:
            raise ValueError(f"candidate sectors without measured patterns: {unknown}")
        if min_probes < 2:
            raise ValueError("correlation needs at least two probes")

        self.pattern_table = pattern_table
        self.candidate_sector_ids = list(candidate_sector_ids)
        self.estimator = AngleEstimator(
            pattern_table,
            search_grid=search_grid,
            domain=domain,
            fusion=fusion,
            precomputed=precomputed,
        )
        if not 0.0 <= fallback_correlation <= 1.0:
            raise ValueError("fallback correlation must be in [0, 1]")
        self.min_probes = min_probes
        self.fallback_correlation = fallback_correlation
        self.initial_sector_id = initial_sector_id
        self._last_selection = initial_sector_id
        # Candidate gains on the search grid, for the Eq. 4 lookup.
        if precomputed is not None and "candidate_matrix" in precomputed:
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
        self._last_selection = self.initial_sector_id

    @property
    def n_candidates(self) -> int:
        return len(self.candidate_sector_ids)

    def best_sector_at(self, azimuth_deg: float, elevation_deg: float) -> int:
        """Eq. 4: the candidate with maximum measured gain there."""
        gains = self.pattern_table.vector(
            azimuth_deg, elevation_deg, self.candidate_sector_ids
        )
        return int(self.candidate_sector_ids[int(np.argmax(gains))])

    def _fallback(self, sub_ids: np.ndarray, sub_snr: np.ndarray) -> SelectionResult:
        """Fall back to the plain argmax of the usable probes' SNR.

        ``max(..., key=snr)`` semantics: the first element is kept and
        replaced only on a strictly greater key, so ties — and NaN keys,
        which never compare greater — resolve to the earliest probe.  A
        plain ``np.argmax`` would resolve NaN differently, so the loop
        is explicit.  With no usable probe the last choice stands.
        """
        _obs.inc("selector_fallbacks_total")
        if sub_ids.size:
            best = 0
            for index in range(1, sub_ids.size):
                if sub_snr[index] > sub_snr[best]:
                    best = index
            sector_id = int(sub_ids[best])
            self._last_selection = sector_id
            return SelectionResult(sector_id=sector_id, fallback=True)
        return SelectionResult(sector_id=self._last_selection, fallback=True)

    def select(self, measurements: Sequence[ProbeMeasurement]) -> SelectionResult:
        """Run both steps on one sweep's measurements (a one-row batch)."""
        return self.select_batch(*_one_row_arrays(measurements))[0]

    def select_batch(
        self,
        sector_ids: np.ndarray,
        snr_db: np.ndarray,
        rssi_dbm: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
    ) -> List[SelectionResult]:
        """Both steps over a padded batch of sweeps (correlate → argmax → Eq. 4).

        Row ``t`` holds one sweep's probes in slot order (``mask[t]``
        flags slots carrying a report; padded slots may hold anything).
        Probes of sectors without a measured pattern are ignored.
        ``snr_db`` is always required — the fallback ranks probes by
        SNR regardless of the fusion mode — while ``rssi_dbm`` is only
        needed when the estimator's fusion uses it.  Rows update the
        selection state in order, so the result list is the sequence of
        one-sweep selections.

        Raises:
            ValueError: a row had enough known-sector probes to attempt
                estimation but fewer than two finite ones.
        """
        return self._fused_build(self._fused_arrays(sector_ids, snr_db, rssi_dbm, mask))

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
        need = counts >= self.min_probes

        # The estimator only sees rows that met min_probes; zeroing
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
        return _FusedBatch(
            ids, snr, sel_usable, need, n_probes, best_index, best_corr, sector_of
        )

    def _fused_build(self, fused: _FusedBatch) -> List[SelectionResult]:
        """Stateful result-building half of :meth:`select_batch`.

        Rows are visited in order, threading ``_last_selection`` and
        resolving fallbacks — the only part of the selection that must
        run per block in submission order.
        """
        results: List[SelectionResult] = []
        estimate_at = self.estimator._estimate_at
        fallback_correlation = self.fallback_correlation
        quality_on = _quality.quality_context() is not None
        ids = fused.ids
        snr = fused.snr
        for trial in range(ids.shape[0]):
            if not fused.need[trial]:
                row_usable = fused.sel_usable[trial]
                results.append(
                    self._fallback(ids[trial, row_usable], snr[trial, row_usable])
                )
                continue
            if fused.best_index[trial] < 0:
                known = int(fused.sel_usable[trial].sum())
                raise ValueError(
                    f"trial {trial}: need at least two finite probe measurements "
                    f"to correlate ({known - int(fused.n_probes[trial])} of "
                    f"{known} were non-finite)"
                )
            correlation = float(fused.best_corr[trial])
            if correlation < fallback_correlation:
                row_usable = fused.sel_usable[trial]
                results.append(
                    self._fallback(ids[trial, row_usable], snr[trial, row_usable])
                )
                continue
            grid_index = int(fused.best_index[trial])
            estimate = estimate_at(grid_index, correlation, int(fused.n_probes[trial]))
            if quality_on:
                # Re-gather the Eq. 4 column (the stateless half does
                # not retain it) so the margin is recorded only for
                # rows that actually selected.
                _quality.record_selection_margin(
                    self._candidate_matrix[:, grid_index],
                    estimate.n_probes_used,
                )
            sector_id = int(fused.sector_of[trial])
            self._last_selection = sector_id
            results.append(SelectionResult(sector_id=sector_id, estimate=estimate))
        return results

    def select_fused_stacked(
        self,
        parts: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
        around: Optional[Callable[[int], ContextManager]] = None,
    ) -> List[List[SelectionResult]]:
        """:meth:`select_batch` on several independent batches in one pass.

        ``parts`` is a sequence of ``(sector_ids, snr_db, rssi_dbm,
        mask)`` tuples with equal probe widths.  Bit-for-bit equivalent
        to ``reset(); select_batch(*part)`` per part: the
        stateless half (:meth:`_fused_arrays`) is row-independent, so
        the stacked rows produce exactly the per-part values, and the
        stateful builder then runs per part against freshly reset
        selection state.  Stacking amortizes the ~25 fixed-cost numpy
        dispatches of the stateless half over every part — the lever
        that makes chunked execution cheaper than one call per block.

        ``around(i)``, when given, returns a context manager entered
        around part ``i``'s reset and build — the runner opens each
        block's ``execute.block`` span there.

        Raises on width mismatch or any per-row validation error;
        callers degrade to per-part evaluation (which reproduces the
        exact per-part error behavior).
        """
        counts = [part[0].shape[0] for part in parts]
        fused = self._fused_arrays(
            np.concatenate([part[0] for part in parts]),
            np.concatenate([part[1] for part in parts]),
            np.concatenate([part[2] for part in parts]),
            np.concatenate([part[3] for part in parts]),
        )
        results: List[List[SelectionResult]] = []
        start = 0
        for index, count in enumerate(counts):
            end = start + count
            with around(index) if around is not None else nullcontext():
                self.reset()
                results.append(
                    self._fused_build(
                        _FusedBatch(*(field[start:end] for field in fused))
                    )
                )
            start = end
        return results
