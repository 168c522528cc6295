"""Planned trials and evaluated records, as call-wide arrays.

An execute call is one :class:`TrialPlan` — every trial of the call in
padded ``(rows × width)`` arrays, cut into per-recording blocks by
``bounds`` — and comes back as one :class:`TrialRecords`: the plan's
per-row origin columns beside one :class:`~repro.core.selector.Selections`
array.  Both are also sequences of the per-block / per-row objects
(:class:`TrialBlock`, :class:`TrialRecord`), built on access, so code
that walks blocks or records keeps working while summaries read
columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterator, List, Sequence

import numpy as np

from ..core.selector import Selections

__all__ = ["TrialBlock", "TrialPlan", "TrialRecord", "TrialRecords"]


@dataclass(frozen=True)
class TrialBlock:
    """All planned trials of one recording, padded into batch arrays.

    Rows are trials in scalar order (sweep-major, then subsample).
    ``sector_ids`` / ``snr_db`` / ``rssi_dbm`` / ``mask`` have shape
    ``(n_trials, width)`` — the argument layout of ``select_batch`` —
    and ``probes_requested[t]`` is the number of probes the policy
    asked for in trial ``t`` (before padding and before reports went
    missing), which prices the training airtime.
    """

    recording_index: int
    sector_ids: np.ndarray
    snr_db: np.ndarray
    rssi_dbm: np.ndarray
    mask: np.ndarray
    sweep_indices: np.ndarray
    subsample_indices: np.ndarray
    probes_requested: np.ndarray

    @property
    def n_trials(self) -> int:
        return self.sector_ids.shape[0]


@dataclass(frozen=True, eq=False)
class TrialPlan(Sequence[TrialBlock]):
    """Every trial of one execute call, in call-wide arrays.

    ``sector_ids`` / ``snr_db`` / ``rssi_dbm`` / ``mask`` are
    ``(rows × width)``; slots past a row's probe count are padding (id
    0, NaN, NaN, False).  ``recording_indices``, ``sweep_indices``,
    ``subsample_indices`` and ``probes_requested`` are per row.  Block
    ``b`` is rows ``bounds[b]:bounds[b + 1]`` of recording
    ``block_recordings[b]``; indexing the plan yields that block as
    row-range views.
    """

    sector_ids: np.ndarray
    snr_db: np.ndarray
    rssi_dbm: np.ndarray
    mask: np.ndarray
    recording_indices: np.ndarray
    sweep_indices: np.ndarray
    subsample_indices: np.ndarray
    probes_requested: np.ndarray
    bounds: np.ndarray
    block_recordings: np.ndarray

    @classmethod
    def from_blocks(cls, blocks: Sequence[TrialBlock]) -> "TrialPlan":
        """One plan of hand-built blocks, right-padded to the widest."""
        if isinstance(blocks, TrialPlan):
            return blocks
        counts = np.array([block.n_trials for block in blocks], dtype=np.intp)
        bounds = np.zeros(len(blocks) + 1, dtype=np.intp)
        np.cumsum(counts, out=bounds[1:])
        n_rows = int(bounds[-1])
        width = max((block.sector_ids.shape[1] for block in blocks), default=0)
        sector_ids = np.zeros((n_rows, width), dtype=np.intp)
        snr_db = np.full((n_rows, width), np.nan)
        rssi_dbm = np.full((n_rows, width), np.nan)
        mask = np.zeros((n_rows, width), dtype=bool)
        for block, start, stop in zip(blocks, bounds[:-1], bounds[1:]):
            columns = block.sector_ids.shape[1]
            sector_ids[start:stop, :columns] = block.sector_ids
            snr_db[start:stop, :columns] = block.snr_db
            rssi_dbm[start:stop, :columns] = block.rssi_dbm
            mask[start:stop, :columns] = block.mask
        recordings = np.array([block.recording_index for block in blocks], dtype=np.intp)

        def rows(name: str) -> np.ndarray:
            return np.concatenate(
                [np.asarray(getattr(block, name), dtype=np.intp) for block in blocks]
                or [np.empty(0, dtype=np.intp)]
            )

        return cls(
            sector_ids=sector_ids,
            snr_db=snr_db,
            rssi_dbm=rssi_dbm,
            mask=mask,
            recording_indices=np.repeat(recordings, counts),
            sweep_indices=rows("sweep_indices"),
            subsample_indices=rows("subsample_indices"),
            probes_requested=rows("probes_requested"),
            bounds=bounds,
            block_recordings=recordings,
        )

    @property
    def n_rows(self) -> int:
        return self.sector_ids.shape[0]

    def as_one_block(self) -> "TrialPlan":
        """The same rows as one block, bounds ``[0, n_rows]``.

        Execution resets selection state at block boundaries only, so
        this is the plan of a loop whose state threads through every
        trial in order.  A plan with at most one block is returned as is.
        """
        if len(self) <= 1:
            return self
        return replace(
            self,
            bounds=np.array([0, self.n_rows], dtype=np.intp),
            block_recordings=self.block_recordings[:1],
        )

    def __len__(self) -> int:
        return self.bounds.shape[0] - 1

    def __getitem__(self, index: int) -> TrialBlock:  # type: ignore[override]
        if not -len(self) <= index < len(self):
            raise IndexError(f"block {index} out of range for {len(self)} blocks")
        index %= len(self)
        start, stop = int(self.bounds[index]), int(self.bounds[index + 1])
        return TrialBlock(
            recording_index=int(self.block_recordings[index]),
            sector_ids=self.sector_ids[start:stop],
            snr_db=self.snr_db[start:stop],
            rssi_dbm=self.rssi_dbm[start:stop],
            mask=self.mask[start:stop],
            sweep_indices=self.sweep_indices[start:stop],
            subsample_indices=self.subsample_indices[start:stop],
            probes_requested=self.probes_requested[start:stop],
        )


@dataclass(frozen=True)
class TrialRecord:
    """One evaluated trial, tagged with its origin in the plan."""

    recording_index: int
    sweep_index: int
    subsample: int
    result: Any  # SelectionResult
    probes_requested: int


@dataclass(frozen=True, eq=False)
class TrialRecords(Sequence[TrialRecord]):
    """An execute call's evaluated trials: per-row columns.

    ``recording``, ``sweep``, ``subsample`` and ``probes_requested``
    come from the plan; ``selections`` holds each row's selection.
    Indexing yields one :class:`TrialRecord`.
    """

    recording: np.ndarray
    sweep: np.ndarray
    subsample: np.ndarray
    probes_requested: np.ndarray
    selections: Selections

    @property
    def sector(self) -> np.ndarray:
        return self.selections.rows["sector"]

    @property
    def fallback(self) -> np.ndarray:
        return self.selections.rows["fallback"]

    @property
    def estimated(self) -> np.ndarray:
        return self.selections.rows["estimated"]

    @property
    def azimuth(self) -> np.ndarray:
        return self.selections.rows["azimuth"]

    @property
    def elevation(self) -> np.ndarray:
        return self.selections.rows["elevation"]

    def by_recording(self, n_recordings: int) -> List[np.ndarray]:
        """Each recording's row indices, in row order."""
        order = np.argsort(self.recording, kind="stable")
        cuts = np.searchsorted(self.recording[order], np.arange(1, n_recordings))
        return np.split(order, cuts)

    def __len__(self) -> int:
        return self.recording.shape[0]

    def __getitem__(self, index: int) -> TrialRecord:  # type: ignore[override]
        if not -len(self) <= index < len(self):
            raise IndexError(f"record {index} out of range for {len(self)} records")
        row = index % len(self)
        return TrialRecord(
            recording_index=int(self.recording[row]),
            sweep_index=int(self.sweep[row]),
            subsample=int(self.subsample[row]),
            result=self.selections[row],
            probes_requested=int(self.probes_requested[row]),
        )

    def __iter__(self) -> Iterator[TrialRecord]:
        for recording, sweep, subsample, requested, result in zip(
            self.recording.tolist(),
            self.sweep.tolist(),
            self.subsample.tolist(),
            self.probes_requested.tolist(),
            self.selections,
        ):
            yield TrialRecord(recording, sweep, subsample, result, requested)
