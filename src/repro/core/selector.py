"""Sector selector interface and the stock sector-sweep baseline.

A *selector* maps one sweep's probe measurements to a transmit sector.
:class:`SectorSweepSelector` is the IEEE 802.11ad baseline (paper
Eq. 1): the argmax of the reported SNR values over everything probed —
including any outliers, which is precisely why its selections
fluctuate (§6.3).

Batched selectors return :class:`Selections`: one structured array
row per sweep, read as columns by summaries and as
:class:`SelectionResult` s by everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Protocol, Sequence, Union, overload

import numpy as np

from .estimator import AngleEstimate
from .measurements import ProbeMeasurement

__all__ = [
    "INITIAL_SECTOR",
    "SELECTION_DTYPE",
    "SelectionResult",
    "Selections",
    "SectorSelector",
    "SectorSweepSelector",
    "first_max",
    "forward_fill",
]


#: The selection a stateful selector holds before any sweep yields one.
INITIAL_SECTOR = 1


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection.

    Attributes:
        sector_id: chosen transmit sector.
        estimate: angle estimate, for selectors that compute one.
        fallback: True when the selector could not run its primary
            logic (e.g. too few probes) and fell back.
    """

    sector_id: int
    estimate: Optional[AngleEstimate] = None
    fallback: bool = False


#: One selection per row: packed (50 bytes) and little-endian, so the
#: rows are also the checkpoint journal's payload bytes.  Rows without
#: an estimate carry NaN angles and correlation, 0 probes and grid
#: index -1; an estimate without a grid index (an off-grid estimator)
#: also stores -1.
SELECTION_DTYPE = np.dtype(
    [
        ("sector", "<i8"),
        ("fallback", "?"),
        ("estimated", "?"),
        ("azimuth", "<f8"),
        ("elevation", "<f8"),
        ("correlation", "<f8"),
        ("probes_used", "<i8"),
        ("grid_index", "<i8"),
    ]
)


def _result(
    sector: int,
    fallback: bool,
    estimated: bool,
    azimuth: float,
    elevation: float,
    correlation: float,
    probes_used: int,
    grid_index: int,
) -> SelectionResult:
    """One row of :data:`SELECTION_DTYPE` (as Python scalars) as a result."""
    estimate = (
        AngleEstimate(
            azimuth_deg=azimuth,
            elevation_deg=elevation,
            correlation=correlation,
            n_probes_used=probes_used,
            grid_index=None if grid_index < 0 else grid_index,
        )
        if estimated
        else None
    )
    return SelectionResult(sector_id=sector, estimate=estimate, fallback=fallback)


class Selections(Sequence[SelectionResult]):
    """A batch of selections as one read-only structured array.

    ``rows`` has dtype :data:`SELECTION_DTYPE`; summaries read its
    columns (``rows["sector"]``, ``rows["azimuth"]``, ...).  As a
    sequence it yields :class:`SelectionResult` s: indexing a row builds
    that one result, and a slice is a :class:`Selections` view.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        if rows.dtype != SELECTION_DTYPE or rows.ndim != 1:
            raise TypeError(f"selections need a 1-D {SELECTION_DTYPE} array")
        if rows.flags.writeable:
            rows = rows.view()
            rows.flags.writeable = False
        self.rows = rows

    @classmethod
    def from_columns(
        cls,
        sector: np.ndarray,
        fallback: np.ndarray,
        estimated: Optional[np.ndarray] = None,
        azimuth: Optional[np.ndarray] = None,
        elevation: Optional[np.ndarray] = None,
        correlation: Optional[np.ndarray] = None,
        probes_used: Optional[np.ndarray] = None,
        grid_index: Optional[np.ndarray] = None,
    ) -> "Selections":
        """Rows from per-field columns; omitted fields take the no-estimate
        values (False, NaN, 0, -1)."""
        rows = np.empty(len(sector), dtype=SELECTION_DTYPE)
        rows["sector"] = sector
        rows["fallback"] = fallback
        for name, column, default in (
            ("estimated", estimated, False),
            ("azimuth", azimuth, np.nan),
            ("elevation", elevation, np.nan),
            ("correlation", correlation, np.nan),
            ("probes_used", probes_used, 0),
            ("grid_index", grid_index, -1),
        ):
            rows[name] = default if column is None else column
        return cls(rows)

    @classmethod
    def from_results(cls, results: Sequence[SelectionResult]) -> "Selections":
        """Pack per-row results (a policy with only ``select``)."""
        if isinstance(results, Selections):
            return results
        packed = []
        for result in results:
            estimate = result.estimate
            if estimate is None:
                packed.append(
                    (result.sector_id, result.fallback, False, np.nan, np.nan, np.nan, 0, -1)
                )
            else:
                packed.append(
                    (
                        result.sector_id,
                        result.fallback,
                        True,
                        estimate.azimuth_deg,
                        estimate.elevation_deg,
                        estimate.correlation,
                        estimate.n_probes_used,
                        -1 if estimate.grid_index is None else estimate.grid_index,
                    )
                )
        return cls(np.array(packed, dtype=SELECTION_DTYPE))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Selections":
        """Rows from their raw bytes (:data:`SELECTION_DTYPE`, no header).

        Raises ``ValueError`` when ``data`` is not a whole number of rows.
        """
        return cls(np.frombuffer(data, dtype=SELECTION_DTYPE))

    def __len__(self) -> int:
        return self.rows.shape[0]

    @overload
    def __getitem__(self, index: int) -> SelectionResult: ...

    @overload
    def __getitem__(self, index: slice) -> "Selections": ...

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return Selections(self.rows[index])
        return _result(*self.rows[index].item())

    def __iter__(self) -> Iterator[SelectionResult]:
        for row in self.rows.tolist():
            yield _result(*row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Selections):
            return NotImplemented
        return self.rows.tobytes() == other.rows.tobytes()

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # Raw rows: the fixed dtype need not travel with every block.
        return Selections.from_bytes, (self.rows.tobytes(),)

    def __repr__(self) -> str:
        return f"Selections({len(self)} rows)"


def first_max(values: np.ndarray, usable: np.ndarray) -> np.ndarray:
    """Per row, the slot Python's ``max`` keeps among the ``usable`` ones.

    ``max(slots, key=value)`` keeps the first usable slot and replaces it
    only on a strictly greater value: ties go to the earliest slot, a NaN
    never wins, and a NaN in the first usable slot stands because nothing
    compares greater.  Returns the column per row, -1 where no slot is
    usable.
    """
    n_rows = values.shape[0]
    picked = np.full(n_rows, -1, dtype=np.intp)
    if n_rows == 0 or values.shape[1] == 0:
        return picked
    has = usable.any(axis=1)
    first = usable.argmax(axis=1)
    keyed = np.where(usable & ~np.isnan(values), values, -np.inf)
    best = keyed.argmax(axis=1)
    rows = np.arange(n_rows)
    # A row whose best non-NaN value is -inf (or that has none) keeps
    # its first usable slot, and so does a row starting with NaN.
    stays = np.isnan(values[rows, first]) | (keyed[rows, best] == -np.inf)
    picked[has] = np.where(stays, first, best)[has]
    return picked


def forward_fill(
    chosen: np.ndarray, sets: np.ndarray, starts: np.ndarray, entry: int
) -> np.ndarray:
    """The running selection after each row of a stateful batch.

    Row ``t`` sets the selection to ``chosen[t]`` where ``sets[t]``,
    and otherwise keeps the one before it.  ``starts`` are the rows
    where a part begins from the state ``entry`` (its first is 0); no
    selection crosses a part boundary.
    """
    n_rows = chosen.shape[0]
    positions = np.arange(n_rows)
    opens = sets.copy()
    opens[starts[starts < n_rows]] = True
    source = np.maximum.accumulate(np.where(opens, positions, 0)) if n_rows else positions
    return np.where(sets, chosen, entry)[source]


class SectorSelector(Protocol):
    """Anything that turns sweep measurements into a sector choice."""

    def select(self, measurements: Sequence[ProbeMeasurement]) -> SelectionResult:
        """Choose a transmit sector from one sweep's measurements."""
        ...


class SectorSweepSelector:
    """The standard's exhaustive selection: ``argmax_n p_n`` (Eq. 1).

    Stateful like the firmware: when a sweep yields no usable report,
    the previous selection (at first :data:`INITIAL_SECTOR`) is kept.
    """

    def __init__(self):
        self._last_selection = INITIAL_SECTOR

    @property
    def last_selection(self) -> int:
        return self._last_selection

    def select(self, measurements: Sequence[ProbeMeasurement]) -> SelectionResult:
        if not measurements:
            return SelectionResult(sector_id=self._last_selection, fallback=True)
        best = max(measurements, key=lambda m: m.snr_db)
        self._last_selection = best.sector_id
        return SelectionResult(sector_id=best.sector_id)
