"""Post-processing of raw campaign samples (§4.3).

The paper turns raw per-position SNR samples into clean patterns by
(1) omitting obvious outliers, (2) averaging over the repeated
measurements and (3) interpolating over gaps where no frames were
captured (directions with too little gain to decode anything).  The
same three steps live here, each independently testable.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "reject_outliers",
    "robust_average",
    "robust_average_rows",
    "interpolate_gaps",
]


def reject_outliers(samples: Sequence[float], max_deviation_db: float = 4.0) -> np.ndarray:
    """Drop samples farther than ``max_deviation_db`` from the median.

    With fewer than three samples nothing can be judged an outlier and
    the input is returned unchanged.
    """
    values = np.asarray(list(samples), dtype=float)
    if values.size < 3:
        return values
    median = np.median(values)
    keep = np.abs(values - median) <= max_deviation_db
    # Never discard everything: the median sample always survives.
    if not keep.any():
        keep = np.abs(values - median) == np.min(np.abs(values - median))
    return values[keep]


def robust_average(samples: Sequence[float], max_deviation_db: float = 4.0) -> float:
    """Outlier-rejected mean of one grid position's samples.

    Returns ``NaN`` for an empty sample set (a gap to interpolate).
    """
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        return float("nan")
    return float(np.mean(reject_outliers(values, max_deviation_db)))


def _left_packed(values: np.ndarray, keep: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's kept values moved left in their order, and their counts."""
    order = np.argsort(~keep, axis=-1, kind="stable")
    return np.take_along_axis(values, order, axis=-1), keep.sum(axis=-1)


def _by_count(counts: np.ndarray):
    """``(count, rows)`` for every distinct count, rows ascending."""
    for count in np.unique(counts):
        yield int(count), np.flatnonzero(counts == count)


def robust_average_rows(samples: np.ndarray, max_deviation_db: float = 4.0) -> np.ndarray:
    """:func:`robust_average` of every row of a (rows × samples) array.

    NaN marks a missing sample.  Each row's samples are compacted in
    their order and rows with equal counts are averaged together, with
    numpy's median and mean along the last axis: the same operations on
    the same values in the same order as the per-row call, so every
    result is bit for bit :func:`robust_average`'s.
    """
    values = np.asarray(samples, dtype=float)
    if values.ndim != 2:
        raise ValueError("expected a (rows × samples) array")
    values, counts = _left_packed(values, ~np.isnan(values))
    out = np.full(values.shape[0], np.nan)
    for count, rows in _by_count(counts):
        if count == 0:
            continue
        group = values[rows, :count]
        if count < 3:
            out[rows] = np.mean(group, axis=-1)
            continue
        deviation = np.abs(group - np.median(group, axis=-1, keepdims=True))
        keep = deviation <= max_deviation_db
        # Never discard everything: the median sample always survives.
        lost = ~keep.any(axis=-1)
        keep[lost] = deviation[lost] == deviation[lost].min(axis=-1, keepdims=True)
        kept, kept_counts = _left_packed(group, keep)
        for kept_count, kept_rows in _by_count(kept_counts):
            out[rows[kept_rows]] = np.mean(kept[kept_rows, :kept_count], axis=-1)
    return out


def interpolate_gaps(
    values: np.ndarray, floor_db: Optional[float] = None
) -> np.ndarray:
    """Fill NaN gaps along the azimuth axis by linear interpolation.

    Works on a 1-D azimuth cut or a 2-D ``(elevation, azimuth)``
    pattern (each elevation row is treated independently, matching how
    the campaign scans).  Rows that contain no samples at all are
    filled with ``floor_db`` (default: the global minimum of the
    pattern, i.e. "as weak as anything we ever measured").
    """
    array = np.array(values, dtype=float)
    single_row = array.ndim == 1
    if single_row:
        array = array[np.newaxis, :]
    if array.ndim != 2:
        raise ValueError("expected a 1-D or 2-D pattern")

    if floor_db is None:
        finite = array[np.isfinite(array)]
        floor_db = float(finite.min()) if finite.size else 0.0

    for row in array:
        known = np.isfinite(row)
        if not known.any():
            row[:] = floor_db
            continue
        if known.all():
            continue
        positions = np.arange(row.size)
        row[~known] = np.interp(positions[~known], positions[known], row[known])
    return array[0] if single_row else array
