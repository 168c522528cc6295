"""Probe designers: which ``M`` sectors to sweep.

The paper probes a *random* subset per sweep (§2.2) and discusses
smarter, context-specific choices in §7.  Every probe subset in the
package comes from a :class:`ProbeDesigner` — the spec-addressable
pipeline stage (DESIGN.md §13): registered by name in
:mod:`repro.runtime.registry`, declared in a ``probe_design`` block on
a :class:`~repro.runtime.spec.PolicySpec`, and routed through
``CompressivePolicy.probe_positions``.  The ``random`` designer is
the paper's draw (one ``rng.choice`` call per design, one
``rng.integers`` call per batch of designs); the
deterministic designers (``coherence-min``, ``in-sector``,
``greedy-submodular``, ``gain-diverse``) compute a *structured sensing
matrix* — a fixed M-of-N subset — once per (table, M, params, pool)
and memoize it in a module-level cache keyed by the pattern-table
digest, since design is expensive and tables are immutable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..measurement.patterns import PatternTable
from ..obs import quality as _quality
from .correlation import normalize_rows, to_linear_power

__all__ = [
    "ProbeDesigner",
    "RandomProbeDesigner",
    "CoherenceMinDesigner",
    "InSectorDesigner",
    "GreedySubmodularDesigner",
    "GainDiverseDesigner",
    "design_cache_key",
    "design_cache_size",
    "clear_design_cache",
    "register_builtin_designers",
]


def _validate(n_probes: int, available_ids: Sequence[int]) -> None:
    if n_probes < 1:
        raise ValueError("must probe at least one sector")
    if n_probes > len(available_ids):
        raise ValueError(
            f"cannot probe {n_probes} sectors out of {len(available_ids)} available"
        )


class ProbeDesigner(Protocol):
    """Designs the probing subset — the sensing matrix — for a policy.

    A designer is *spec-addressable*: it is registered by name,
    constructed from JSON params via
    :func:`repro.runtime.registry.build_probe_designer`, and its output
    for deterministic designers is cached across policies (see
    :func:`design_cache_key`).
    """

    name: str

    def design(
        self, n_probes: int, available_ids: Sequence[int], rng: np.random.Generator
    ) -> List[int]:
        """Return ``n_probes`` distinct sector IDs to probe."""
        ...

    def design_positions(
        self,
        n_probes: int,
        n_rows: int,
        available_ids: Sequence[int],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``n_rows`` designs at once, as an ``(n_rows, n_probes)`` array
        of positions in ``available_ids`` — exactly ``n_rows`` sequential
        :meth:`design` calls (same subsets, same rng stream, same
        telemetry).  The planner draws a recording's trials through it."""
        ...

    def params(self) -> Dict[str, Any]:
        """The designer's resolved parameters (canonical JSON values)."""
        ...


#: Module-level memo of deterministic designs.  Keyed by
#: :func:`design_cache_key` — pattern-table digest + designer identity
#: + (M, params, pool) — so the cache survives policy rebuilds and is
#: shared between policies that differ only in unrelated kwargs.
_DESIGN_CACHE: Dict[Tuple, Tuple[int, ...]] = {}

#: Memo of sensing-matrix diagnostics (mutual coherence, condition
#: number) per design cache key.  Computed lazily and only while a
#: quality-telemetry context is active, so untelemetered runs never
#: touch it; memoized because diagnostics are a pure function of the
#: designed subset and design() is called once per sweep.
_DIAGNOSTICS_CACHE: Dict[Tuple, Dict[str, float]] = {}


def design_cache_key(
    table: PatternTable,
    name: str,
    params: Dict[str, Any],
    n_probes: int,
    available_ids: Sequence[int],
) -> Tuple:
    """The memo key of one deterministic design.

    The table participates via its content :meth:`~PatternTable.digest`
    (not ``id()``), so separate table objects with the same patterns —
    a rebuilt testbed's, say — compute the same key.
    """
    return (
        table.digest(),
        str(name),
        tuple(sorted((str(k), v) for k, v in params.items())),
        int(n_probes),
        tuple(int(s) for s in available_ids),
    )


def design_cache_size() -> int:
    return len(_DESIGN_CACHE)


def clear_design_cache() -> None:
    _DESIGN_CACHE.clear()
    _DIAGNOSTICS_CACHE.clear()


#: Largest pool :meth:`RandomProbeDesigner.design_positions` replays:
#: up to here numpy's ``Generator.choice(n, M, replace=False)`` runs
#: Floyd's algorithm and a Fisher–Yates shuffle; above it, it may take
#: a tail shuffle of the whole pool instead.
_FLOYD_MAX_POOL = 10_000


class RandomProbeDesigner:
    """The paper's per-sweep uniform draw, as a designer.

    ``CompressivePolicy``'s default.  :meth:`design` is exactly one
    ``rng.choice(len(pool), size=M, replace=False)`` call — the same
    call as :func:`repro.experiments.common.random_probe_columns` —
    and the chosen order is **not** sorted.  Callers that emulate a
    live sweep (per-probe noise drawn in sweep order) sort the result.
    :meth:`design_positions` draws many designs in one generator call
    with the same subsets and the same stream.
    """

    name = "random"

    def __init__(self, pattern_table: Optional[PatternTable] = None):
        # The table is accepted (uniform factory signature) but unused:
        # a random draw needs no measured patterns.
        self._table = pattern_table

    def params(self) -> Dict[str, Any]:
        return {}

    def design(
        self, n_probes: int, available_ids: Sequence[int], rng: np.random.Generator
    ) -> List[int]:
        _validate(n_probes, available_ids)
        chosen = rng.choice(len(available_ids), size=n_probes, replace=False)
        return [available_ids[index] for index in chosen]

    def design_positions(
        self,
        n_probes: int,
        n_rows: int,
        available_ids: Sequence[int],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``n_rows`` draws as pool positions: the subsets and generator
        state of ``n_rows`` sequential :meth:`design` calls, from one
        ``rng.integers`` call.

        For a pool of ``n`` ≤ 10,000, ``rng.choice(n, M,
        replace=False)`` runs Floyd's algorithm — bounded draws on
        ``[0, j]`` for ``j = n − M … n − 1``, taking ``j`` itself when
        the draw is already chosen — then a Fisher–Yates shuffle, a
        bounded draw on ``[0, i]`` for ``i = M − 1 … 1`` and a swap of
        positions ``i`` and the draw.  Every bound depends on ``n`` and
        ``M`` only, so one int64 ``integers`` call with the bounds tiled
        ``n_rows`` times reads the same words in the same order; the
        algorithm is then replayed a column at a time across all rows.

        Raises:
            ValueError: the pool is larger than 10,000 (numpy's Floyd
                range), or :meth:`design` would raise.
        """
        if not n_rows:
            return np.empty((0, n_probes), dtype=np.intp)
        _validate(n_probes, available_ids)
        size = len(available_ids)
        if size > _FLOYD_MAX_POOL:
            raise ValueError(
                f"a pool of {size} sectors is beyond numpy's Floyd range "
                f"(at most {_FLOYD_MAX_POOL}) for batched random draws"
            )
        floyd = np.arange(size - n_probes, size)
        bounds = np.concatenate((floyd, np.arange(n_probes - 1, 0, -1)))
        draws = rng.integers(0, np.tile(bounds, n_rows) + 1, dtype=np.int64)
        draws = draws.reshape(n_rows, bounds.size)
        rows = np.arange(n_rows)
        positions = np.empty((n_rows, n_probes), dtype=np.intp)
        seen = np.zeros((n_rows, size), dtype=bool)
        for column, top in enumerate(floyd.tolist()):
            value = draws[:, column]
            value = np.where(seen[rows, value], top, value)
            positions[:, column] = value
            seen[rows, value] = True
        for column, slot in enumerate(range(n_probes - 1, 0, -1), n_probes):
            target = draws[:, column]
            held = positions[rows, target]
            positions[rows, target] = positions[:, slot]
            positions[:, slot] = held
        return positions


class _DeterministicDesigner:
    """Shared machinery of the rng-free structured designers.

    Subclasses implement ``_design(n_probes, pool)`` over the measured
    pattern table; this base handles validation and the module-level
    memo.  Deterministic designers consume **no**
    randomness, so a policy routed through one leaves the pinned rng
    stream untouched for everything around it.
    """

    name = "?"

    def __init__(self, pattern_table: PatternTable):
        if pattern_table is None:
            raise ValueError(f"designer '{self.name}' needs a pattern table")
        self._table = pattern_table

    def params(self) -> Dict[str, Any]:
        return {}

    def _linear_rows(self, available_ids: Sequence[int]) -> np.ndarray:
        """Per-sector linear-power patterns, raveled over the grid."""
        return np.asarray(
            [
                to_linear_power(self._table.pattern(sector_id).ravel())
                for sector_id in available_ids
            ]
        )

    def design(
        self, n_probes: int, available_ids: Sequence[int], rng: np.random.Generator
    ) -> List[int]:
        return list(self._subset(n_probes, available_ids, 1))

    def design_positions(
        self,
        n_probes: int,
        n_rows: int,
        available_ids: Sequence[int],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``n_rows`` copies of the design as pool positions, looked up
        (and its diagnostics recorded ``n_rows`` times) once."""
        if not n_rows:
            return np.empty((0, n_probes), dtype=np.intp)
        subset = self._subset(n_probes, available_ids, n_rows)
        position_of = {int(s): index for index, s in enumerate(available_ids)}
        row = np.array([position_of[s] for s in subset], dtype=np.intp)
        return np.tile(row, (n_rows, 1))

    def _subset(
        self, n_probes: int, available_ids: Sequence[int], uses: int
    ) -> Tuple[int, ...]:
        """The memoized design; its diagnostics count ``uses`` designs."""
        _validate(n_probes, available_ids)
        key = design_cache_key(
            self._table, self.name, self.params(), n_probes, available_ids
        )
        subset = _DESIGN_CACHE.get(key)
        if subset is None:
            subset = tuple(
                int(s) for s in self._design(int(n_probes), list(available_ids))
            )
            _DESIGN_CACHE[key] = subset
        if _quality.quality_context() is not None:
            diagnostics = _DIAGNOSTICS_CACHE.get(key)
            if diagnostics is None:
                diagnostics = _quality.subset_diagnostics(
                    normalize_rows(self._linear_rows(subset))
                )
                _DIAGNOSTICS_CACHE[key] = diagnostics
            for _ in range(uses):
                _quality.record_design_diagnostics(self.name, diagnostics, n_probes)
        return subset

    def _design(self, n_probes: int, pool: List[int]) -> List[int]:
        raise NotImplementedError


class CoherenceMinDesigner(_DeterministicDesigner):
    """Greedy column-coherence minimization (arXiv:2205.11154 idea).

    The normalized measured-pattern matrix has one unit-norm column per
    sector (its linear-power pattern over the grid); the mutual
    coherence of the row-subsampled sensing matrix is the largest
    absolute inner product between two selected columns.  Greedy
    selection: seed with the least-coherent column pair, then
    repeatedly add the column whose worst-case coherence against the
    selected set is smallest.  Ties break on the lowest column index,
    so the design is fully deterministic.
    """

    name = "coherence-min"

    def _design(self, n_probes: int, pool: List[int]) -> List[int]:
        matrix = normalize_rows(self._linear_rows(pool))
        coherence = np.abs(matrix @ matrix.T)
        if n_probes == 1:
            # Degenerate budget: the column least correlated with the
            # rest of the dictionary on average.
            off_diagonal = coherence - np.diag(np.diag(coherence))
            selected = [int(np.argmin(off_diagonal.sum(axis=1)))]
        else:
            masked = coherence.copy()
            np.fill_diagonal(masked, np.inf)
            flat = int(np.argmin(masked))
            first, second = divmod(flat, masked.shape[1])
            selected = sorted((int(first), int(second)))
            while len(selected) < n_probes:
                candidates = [
                    index for index in range(len(pool)) if index not in selected
                ]
                worst = np.array(
                    [coherence[candidate, selected].max() for candidate in candidates]
                )
                selected.append(candidates[int(np.argmin(worst))])
        return sorted(pool[index] for index in selected)


class InSectorDesigner(_DeterministicDesigner):
    """Structured in-sector selection (arXiv:2308.13268 idea).

    Concentrates the probing budget on sectors whose main lobes cover
    an angular sector-of-interest: sectors whose peak-gain direction
    falls inside the azimuth window rank first (by their peak in-window
    gain), the remainder rank by the fraction of their radiated energy
    that lands in the window.  With the default ±60° window this matches
    the evaluation arcs of the figure experiments.
    """

    name = "in-sector"

    def __init__(
        self,
        pattern_table: PatternTable,
        sector_center_deg: float = 0.0,
        sector_width_deg: float = 120.0,
    ):
        super().__init__(pattern_table)
        if not sector_width_deg > 0.0:
            raise ValueError("sector_width_deg must be positive")
        self._center = float(sector_center_deg)
        self._width = float(sector_width_deg)

    def params(self) -> Dict[str, Any]:
        return {
            "sector_center_deg": self._center,
            "sector_width_deg": self._width,
        }

    def _design(self, n_probes: int, pool: List[int]) -> List[int]:
        from ..geometry.angles import azimuth_difference

        azimuths, _elevations = self._table.grid.flat_angles()
        offsets = np.array(
            [azimuth_difference(azimuth, self._center) for azimuth in azimuths]
        )
        in_window = np.abs(offsets) <= self._width / 2.0
        rows = self._linear_rows(pool)
        scores = []
        for index in range(len(pool)):
            pattern = rows[index]
            peak = int(np.argmax(pattern))
            window_energy = float(pattern[in_window].sum()) if in_window.any() else 0.0
            energy_fraction = window_energy / float(pattern.sum())
            if in_window[peak]:
                # Main lobe inside the sector-of-interest: rank ahead of
                # every outsider, strongest in-window peak first.
                rank = (0, -float(pattern[in_window].max()))
            else:
                rank = (1, -energy_fraction)
            scores.append((rank, pool[index]))
        scores.sort()
        return sorted(sector_id for _rank, sector_id in scores[:n_probes])


class GreedySubmodularDesigner(_DeterministicDesigner):
    """Grid-coverage gain maximization (facility-location objective).

    Coverage of a subset ``S`` is ``sum over grid points of the best
    linear gain any selected sector offers there`` — monotone
    submodular, so the greedy sweep that repeatedly adds the sector
    with the largest marginal coverage gain carries the classic
    (1 - 1/e) guarantee.  Ties break on the lowest pool index.
    """

    name = "greedy-submodular"

    def _design(self, n_probes: int, pool: List[int]) -> List[int]:
        rows = self._linear_rows(pool)
        covered = np.zeros(rows.shape[1])
        remaining = list(range(len(pool)))
        selected: List[int] = []
        for _ in range(n_probes):
            gains = (np.maximum(rows[remaining], covered) - covered).sum(axis=1)
            best = remaining[int(np.argmax(gains))]
            selected.append(best)
            covered = np.maximum(covered, rows[best])
            remaining.remove(best)
        return sorted(pool[index] for index in selected)


class GainDiverseDesigner(_DeterministicDesigner):
    """§7's idea: prefer probing sectors with *dissimilar* patterns.

    Greedy max-min selection on the measured patterns: start from the
    sector with the largest normalized total gain, then repeatedly add
    the sector whose pattern has the lowest maximum cosine similarity
    with everything already selected (ties on the lowest pool index).
    A diverse probe set keeps the Eq. 2 correlation discriminative with
    fewer probes than a random draw.  The subset keeps the greedy order
    rather than being sorted, so a smaller budget's design is a prefix
    of a larger one's.
    """

    name = "gain-diverse"

    def _design(self, n_probes: int, pool: List[int]) -> List[int]:
        matrix = normalize_rows(self._linear_rows(pool))
        similarity = matrix @ matrix.T
        selected = [int(np.argmax(matrix.sum(axis=1)))]
        # Each candidate's worst-case similarity to the selected set;
        # selected sectors are masked out with +inf.
        worst = similarity[:, selected[0]].copy()
        worst[selected[0]] = np.inf
        while len(selected) < n_probes:
            chosen = int(np.argmin(worst))
            selected.append(chosen)
            worst = np.maximum(worst, similarity[:, chosen])
            worst[chosen] = np.inf
        return [pool[index] for index in selected]


def register_builtin_designers() -> None:
    """Register the built-in designers with the runtime registry.

    Called from :mod:`repro.core.policy` (itself imported by
    ``registry.load_builtin``), *not* at import time here: ``repro.core``
    imports this module eagerly, and a module-level registry import
    would cycle through the partially-initialized runtime package.
    """
    from ..runtime.registry import register_probe_designer

    for factory in (
        RandomProbeDesigner,
        CoherenceMinDesigner,
        InSectorDesigner,
        GreedySubmodularDesigner,
        GainDiverseDesigner,
    ):
        register_probe_designer(factory.name)(factory)
