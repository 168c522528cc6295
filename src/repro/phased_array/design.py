"""Codebook design: synthesize sector sets for arbitrary arrays.

The Talon ships a fixed vendor codebook; anyone building on a
different array needs to *design* one.  This module provides a greedy
coverage-driven designer: candidate steered beams tile the service
region, and sectors are picked one by one to maximize the composite
coverage (the direction-wise best-sector gain), under the hardware's
phase-quantization constraints.  The §7 discussion — how many sectors
a region "needs" — becomes a measurable curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..geometry.grid import AngularGrid
from .array import PhasedArray
from .codebook import Codebook, RX_SECTOR_ID, Sector
from .steering import steering_vector
from .weights import WeightVector

__all__ = ["DesignReport", "design_codebook", "coverage_curve"]


@dataclass(frozen=True)
class DesignReport:
    """What the designer achieved.

    Attributes:
        codebook: the designed sector set (RX quasi-omni included).
        coverage_db: composite gain (best sector per grid point).
        mean_coverage_db: its mean over the service region.
        worst_coverage_db: its minimum (the deepest hole).
    """

    codebook: Codebook
    coverage_db: np.ndarray
    mean_coverage_db: float
    worst_coverage_db: float


def _candidate_directions(grid: AngularGrid, spacing_deg: float) -> List[Tuple[float, float]]:
    azimuths = np.arange(
        grid.azimuths_deg[0], grid.azimuths_deg[-1] + 1e-9, spacing_deg
    )
    elevations = np.arange(
        grid.elevations_deg[0], grid.elevations_deg[-1] + 1e-9, spacing_deg
    )
    return [(float(az), float(el)) for el in elevations for az in azimuths]


def _quasi_omni(layout) -> WeightVector:
    distances = np.linalg.norm(layout.positions_m, axis=1)
    active = np.zeros(layout.n_elements, dtype=bool)
    active[int(np.argmin(distances))] = True
    return WeightVector.uniform(layout.n_elements).with_element_mask(active).normalized()


def design_codebook(
    antenna: PhasedArray,
    n_sectors: int,
    service_region: Optional[AngularGrid] = None,
    candidate_spacing_deg: float = 7.5,
    phase_bits: int = 2,
) -> DesignReport:
    """Greedily pick steered sectors that maximize composite coverage.

    Args:
        antenna: the target array (its impairments are part of the
            optimization — the designer sees the real hardware).
        n_sectors: TX sectors to produce (1..63, the SSW field limit).
        service_region: grid of directions to cover; defaults to the
            frontal range azimuth ±80°, elevation 0–30°.
        candidate_spacing_deg: spacing of the candidate steering grid.
        phase_bits: phase-shifter resolution of the hardware.

    Returns:
        A :class:`DesignReport` with the codebook and coverage stats.
    """
    if not 1 <= n_sectors <= 63:
        raise ValueError("the SSW sector field allows 1..63 TX sectors")
    if service_region is None:
        service_region = AngularGrid.from_spacing((-80.0, 80.0), 5.0, (0.0, 30.0), 7.5)

    azimuths, elevations = service_region.flat_angles()
    candidates = _candidate_directions(service_region, candidate_spacing_deg)
    if len(candidates) < n_sectors:
        raise ValueError("candidate grid is coarser than the requested codebook")

    # Precompute each candidate's gain over the service region.
    region_terms = antenna.direction_terms(azimuths, elevations)
    candidate_weights: List[WeightVector] = []
    candidate_gains: List[np.ndarray] = []
    for azimuth, elevation in candidates:
        weights = (
            WeightVector.conjugate_steering(
                steering_vector(antenna.layout, azimuth, elevation)
            )
            .quantized(phase_bits=phase_bits)
            .normalized()
        )
        candidate_weights.append(weights)
        candidate_gains.append(antenna.gain_db_at(weights, region_terms))

    gains_matrix = np.stack(candidate_gains)  # (n_candidates, n_points)
    chosen: List[int] = []
    composite = np.full(service_region.n_points, -np.inf)
    for _ in range(n_sectors):
        # Pick the candidate that lifts the worst-covered points most.
        best_index = -1
        best_score = -np.inf
        for index in range(gains_matrix.shape[0]):
            if index in chosen:
                continue
            improved = np.maximum(composite, gains_matrix[index])
            score = float(improved.mean() + 0.25 * improved.min())
            if score > best_score:
                best_score = score
                best_index = index
        chosen.append(best_index)
        composite = np.maximum(composite, gains_matrix[best_index])

    sectors = [Sector(RX_SECTOR_ID, _quasi_omni(antenna.layout), kind="quasi-omni")]
    for slot, candidate_index in enumerate(chosen, start=1):
        sectors.append(Sector(slot, candidate_weights[candidate_index], kind="designed"))
    codebook = Codebook(sectors, rx_sector_id=RX_SECTOR_ID)
    return DesignReport(
        codebook=codebook,
        coverage_db=composite,
        mean_coverage_db=float(composite.mean()),
        worst_coverage_db=float(composite.min()),
    )


def coverage_curve(
    antenna: PhasedArray,
    sector_counts: List[int],
    service_region: Optional[AngularGrid] = None,
    candidate_spacing_deg: float = 10.0,
) -> List[Tuple[int, float, float]]:
    """Composite coverage vs. codebook size (§7's scaling question).

    Returns ``(n_sectors, mean_coverage_db, worst_coverage_db)`` per
    requested size.  Coverage saturates once beams tile the region —
    the point where extra sectors only add precision, which is exactly
    where compressive selection (fixed probes, growing N) pays off.
    """
    results = []
    for n_sectors in sector_counts:
        report = design_codebook(
            antenna,
            n_sectors,
            service_region=service_region,
            candidate_spacing_deg=candidate_spacing_deg,
        )
        results.append((n_sectors, report.mean_coverage_db, report.worst_coverage_db))
    return results
