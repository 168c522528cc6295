"""The phased array itself: weights × geometry × imperfections → gain.

:class:`PhasedArray` evaluates the far-field power gain of a weight
vector in arbitrary directions, including the per-element directivity,
the device-specific element errors and the chassis blockage.  This is
the ground-truth radiation model that both the simulated firmware and
the simulated measurement campaign observe through noisy channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .elements import ElementLayout, talon_layout
from .impairments import HardwareImpairments
from .steering import steering_matrix
from .weights import WeightVector

ArrayLike = Union[float, np.ndarray]

__all__ = ["DirectionTerms", "PhasedArray"]

#: Residual power that leaks behind the array plane, relative to an
#: isotropic element (linear).  Keeps rear-hemisphere gains finite.
_BACK_LEAKAGE_LINEAR = 10.0 ** (-18.0 / 10.0)


@dataclass(frozen=True)
class DirectionTerms:
    """Everything :meth:`PhasedArray.gain_db` needs that no weight touches.

    Attributes:
        shape: broadcast shape of the requested directions.
        steering: steering matrix, ``(k, n_elements)`` over the
            flattened directions.
        element_power: per-element power pattern, ``(k,)`` linear.
        attenuation_db: chassis attenuation, ``(k,)``.
    """

    shape: tuple
    steering: np.ndarray
    element_power: np.ndarray
    attenuation_db: np.ndarray


def _gain_db(array_factor: np.ndarray, terms: DirectionTerms) -> np.ndarray:
    """Realized gain (dBi) from array factors over ``terms``' directions
    (the last axis)."""
    array_power = np.abs(array_factor) ** 2
    power = np.maximum(array_power * terms.element_power, 1e-12)
    return 10.0 * np.log10(power) - terms.attenuation_db


@dataclass(frozen=True)
class PhasedArray:
    """A planar phased array with low-cost-hardware imperfections.

    Attributes:
        layout: element geometry.
        impairments: static per-element and chassis imperfections.
        element_exponent: exponent ``q`` of the ``cos(ψ)**q`` element
            power pattern (ψ = angle off boresight).
        element_peak_gain_db: boresight gain of a single element.
    """

    layout: ElementLayout
    impairments: HardwareImpairments
    element_exponent: float = 1.5
    element_peak_gain_db: float = 3.0

    def __post_init__(self) -> None:
        if self.impairments.n_elements != self.layout.n_elements:
            raise ValueError(
                "impairments cover "
                f"{self.impairments.n_elements} elements but the layout has "
                f"{self.layout.n_elements}"
            )
        if self.element_exponent < 0:
            raise ValueError("element exponent must be non-negative")

    @classmethod
    def talon(
        cls,
        rng: np.random.Generator = None,
        ideal: bool = False,
    ) -> "PhasedArray":
        """A Talon-AD7200-like 32-element array.

        Args:
            rng: generator for the device-specific imperfections; a
                fixed default seed is used when omitted so that "the
                device on the rotation head" is reproducible.
            ideal: build a perfect front-end instead (for ablations).
        """
        layout = talon_layout()
        if ideal:
            impairments = HardwareImpairments.ideal(layout.n_elements)
        else:
            if rng is None:
                rng = np.random.default_rng(0xAD7200)
            impairments = HardwareImpairments.sample(layout.n_elements, rng)
        return cls(layout=layout, impairments=impairments)

    @property
    def n_elements(self) -> int:
        return self.layout.n_elements

    def element_power_pattern(
        self, azimuth_deg: ArrayLike, elevation_deg: ArrayLike
    ) -> np.ndarray:
        """Per-element power pattern (linear, relative to isotropic)."""
        azimuth = np.deg2rad(np.asarray(azimuth_deg, dtype=float))
        elevation = np.deg2rad(np.asarray(elevation_deg, dtype=float))
        azimuth, elevation = np.broadcast_arrays(azimuth, elevation)
        # cos of the angle between direction and boresight (+x).
        cos_psi = np.cos(elevation) * np.cos(azimuth)
        peak = 10.0 ** (self.element_peak_gain_db / 10.0)
        front = peak * np.clip(cos_psi, 0.0, 1.0) ** self.element_exponent
        return np.maximum(front, peak * _BACK_LEAKAGE_LINEAR)

    def direction_terms(
        self, azimuth_deg: ArrayLike, elevation_deg: ArrayLike
    ) -> DirectionTerms:
        """The weight-independent half of :meth:`gain_db`.

        Compute once per set of directions, then evaluate any number of
        weight vectors with :meth:`gain_db_at`.
        """
        azimuths = np.asarray(azimuth_deg, dtype=float)
        elevations = np.asarray(elevation_deg, dtype=float)
        azimuths_b, elevations_b = np.broadcast_arrays(azimuths, elevations)
        flat_azimuths = azimuths_b.ravel()
        flat_elevations = elevations_b.ravel()
        return DirectionTerms(
            shape=azimuths_b.shape,
            steering=steering_matrix(self.layout, flat_azimuths, flat_elevations),
            element_power=self.element_power_pattern(azimuths_b, elevations_b).ravel(),
            attenuation_db=self.impairments.blockage.attenuation_db(
                flat_azimuths, flat_elevations
            ),
        )

    def gain_db_at(self, weights: WeightVector, terms: DirectionTerms) -> ArrayLike:
        """The per-weight-vector half of :meth:`gain_db`.

        ``terms`` must come from this array's :meth:`direction_terms`:
        the element pattern and chassis attenuation are per device.
        """
        if weights.n_elements != self.n_elements:
            raise ValueError("weight vector length must match the array")
        effective = weights.weights * self.impairments.element_response()
        array_factor = terms.steering @ effective  # (k,)
        gain = _gain_db(array_factor, terms).reshape(terms.shape)
        if gain.ndim == 0:
            return float(gain)
        return gain

    def gains_db_at(
        self, weights: Sequence[WeightVector], terms: DirectionTerms
    ) -> np.ndarray:
        """:meth:`gain_db_at` for several weight vectors, stacked.

        Shape ``(len(weights), *terms.shape)``.  Each array factor is
        its own ``steering @ effective`` product; the rest is
        elementwise and runs once on the stacked block, so row ``i``
        equals ``gain_db_at(weights[i], terms)`` bit for bit.
        """
        response = self.impairments.element_response()
        array_factor = np.empty((len(weights), terms.steering.shape[0]), dtype=complex)
        for row, vector in enumerate(weights):
            if vector.n_elements != self.n_elements:
                raise ValueError("weight vector length must match the array")
            array_factor[row] = terms.steering @ (vector.weights * response)
        return _gain_db(array_factor, terms).reshape((len(weights),) + tuple(terms.shape))

    def gain_db(
        self,
        weights: WeightVector,
        azimuth_deg: ArrayLike,
        elevation_deg: ArrayLike,
    ) -> ArrayLike:
        """Realized power gain (dBi) of a weight vector.

        Broadcasts over directions; scalar inputs return a float.
        """
        return self.gain_db_at(weights, self.direction_terms(azimuth_deg, elevation_deg))

    def peak_gain_db(self, weights: WeightVector, grid_step_deg: float = 2.0) -> float:
        """Maximum gain over a coarse hemisphere scan (diagnostic)."""
        azimuths = np.arange(-90.0, 90.0 + grid_step_deg, grid_step_deg)
        elevations = np.arange(-60.0, 60.0 + grid_step_deg, grid_step_deg)
        az_mesh, el_mesh = np.meshgrid(azimuths, elevations)
        return float(np.max(self.gain_db(weights, az_mesh, el_mesh)))
