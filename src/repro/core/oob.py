"""Out-of-band direction priors for compressive estimation.

Nitsche et al. ("Steering with eyes closed", paper §8) steer mm-wave
beams from 2.4/5 GHz direction estimates; Ali et al. combine such
out-of-band side information with compressed sensing.  This module
brings that idea to the compressive estimator: a coarse legacy-band
angle-of-arrival estimate becomes a Gaussian weight on the Eq. 3/5
correlation map, which pays off exactly where plain CSS is weakest —
very small probe budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..geometry.angles import azimuth_difference
from ..geometry.grid import AngularGrid
from .estimator import AngleEstimate, AngleEstimator, _finite_argmax
from .measurements import ProbeMeasurement

__all__ = ["OutOfBandPrior", "PriorAidedEstimator"]


@dataclass(frozen=True)
class OutOfBandPrior:
    """A coarse direction estimate from a legacy band.

    Attributes:
        azimuth_deg: the out-of-band azimuth estimate.
        sigma_deg: its 1-sigma uncertainty (2.4 GHz AoA estimates are
            coarse — tens of degrees).
        elevation_deg / elevation_sigma_deg: optional elevation prior;
            omitted (None) when the legacy array is linear and cannot
            resolve elevation.
    """

    azimuth_deg: float
    sigma_deg: float = 20.0
    elevation_deg: Optional[float] = None
    elevation_sigma_deg: float = 20.0

    def __post_init__(self) -> None:
        if self.sigma_deg <= 0 or self.elevation_sigma_deg <= 0:
            raise ValueError("prior uncertainties must be positive")

    def weights_on(self, grid: AngularGrid) -> np.ndarray:
        """Gaussian weight per (flattened) grid point."""
        azimuths, elevations = grid.flat_angles()
        delta_az = azimuth_difference(azimuths, self.azimuth_deg)
        weights = np.exp(-(delta_az**2) / (2.0 * self.sigma_deg**2))
        if self.elevation_deg is not None:
            delta_el = elevations - self.elevation_deg
            weights = weights * np.exp(
                -(delta_el**2) / (2.0 * self.elevation_sigma_deg**2)
            )
        return weights


class PriorAidedEstimator:
    """An :class:`AngleEstimator` whose map is weighted by a prior."""

    def __init__(self, estimator: AngleEstimator):
        self.estimator = estimator

    @property
    def search_grid(self) -> AngularGrid:
        return self.estimator.search_grid

    def estimate(
        self,
        measurements: Sequence[ProbeMeasurement],
        prior: Optional[OutOfBandPrior] = None,
    ) -> AngleEstimate:
        """Eq. 3/5 argmax over the prior-weighted correlation map.

        Validation and the argmax are the plain estimator's: non-finite
        probes are dropped (and not counted in ``n_probes_used``), and
        a NaN grid point never wins.
        """
        surface, n_probes = self.estimator._row_surface(measurements)
        if prior is not None:
            surface = surface * prior.weights_on(self.search_grid)
        best_index = _finite_argmax(surface)
        return self.estimator._estimate_at(
            best_index, float(surface[best_index]), n_probes
        )
