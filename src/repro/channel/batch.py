"""Vectorized ground-truth SNR computation over many orientations.

Pattern measurement campaigns and the evaluation experiments need the
true SNR of every sector for hundreds of rotation-head poses.  Walking
the frame-level protocol for each pose would repeat identical gain
computations; this module batches them: the weight-independent
direction terms are built once for all (pose, ray) pairs, each sector
costs one array-factor product over all of them, and the rest of the
link budget runs once on the stacked (sectors, poses, rays) block.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..geometry.rotation import Orientation
from ..geometry.spherical import direction_vector, vector_to_angles
from ..phased_array.array import PhasedArray
from ..phased_array.codebook import Codebook
from ..phased_array.weights import WeightVector
from .environment import Environment
from .link import LinkBudget
from .pathloss import path_loss_db
from ..phased_array.elements import wavelength_m

__all__ = ["sweep_snr_matrix"]


def sweep_snr_matrix(
    environment: Environment,
    tx_antenna: PhasedArray,
    codebook: Codebook,
    sector_ids: Sequence[int],
    tx_orientations: Sequence[Orientation],
    rx_antenna: PhasedArray,
    rx_weights: WeightVector,
    rx_orientation: Optional[Orientation] = None,
    budget: Optional[LinkBudget] = None,
    shadowing_db: Optional[np.ndarray] = None,
) -> np.ndarray:
    """True sweep SNR for every (orientation, sector) pair.

    The transmitter sits at the environment's TX endpoint (the rotation
    head) and takes each pose in ``tx_orientations``; the receiver is
    fixed at the RX endpoint listening with ``rx_weights``.

    Args:
        shadowing_db: optional per-ray shadowing, shape
            ``(n_orientations, n_rays)`` — one slow-fading draw per pose.

    Returns:
        Array of shape ``(n_orientations, n_sectors)`` in dB.
    """
    if budget is None:
        budget = LinkBudget()
    if rx_orientation is None:
        rx_orientation = Orientation(yaw_deg=180.0)
    rays = environment.rays()
    n_orientations = len(tx_orientations)
    n_rays = len(rays)
    if shadowing_db is None:
        shadowing_db = np.zeros((n_orientations, n_rays))
    shadowing_db = np.asarray(shadowing_db, dtype=float)
    if shadowing_db.shape != (n_orientations, n_rays):
        raise ValueError("shadowing must have shape (n_orientations, n_rays)")

    # Departure directions in the TX device frame: (n_orientations, n_rays).
    departure_world = np.stack(
        [direction_vector(*ray.departure_direction()) for ray in rays]
    )  # (n_rays, 3)
    tx_az = np.empty((n_orientations, n_rays))
    tx_el = np.empty((n_orientations, n_rays))
    for row, orientation in enumerate(tx_orientations):
        device_vectors = orientation.world_to_device(departure_world)
        azimuths, elevations = vector_to_angles(device_vectors)
        tx_az[row] = azimuths
        tx_el[row] = elevations

    # Receive gain and propagation constants are fixed per ray.
    wavelength = wavelength_m(budget.carrier_hz)
    rx_gain_db = np.empty(n_rays)
    fixed_db = np.empty(n_rays)
    phases = np.empty(n_rays)
    for index, ray in enumerate(rays):
        rx_az, rx_el = rx_orientation.world_direction_in_device_frame(
            *ray.arrival_direction()
        )
        rx_gain_db[index] = rx_antenna.gain_db(rx_weights, rx_az, rx_el)
        fixed_db[index] = (
            budget.tx_power_dbm
            + rx_gain_db[index]
            - path_loss_db(ray.path_length_m, budget.carrier_hz)
            - ray.extra_loss_db
        )
        phases[index] = -2.0 * np.pi * ray.path_length_m / wavelength

    tx_terms = tx_antenna.direction_terms(tx_az, tx_el)
    # (n_sectors, n_orientations, n_rays), one array factor per sector.
    tx_gain_db = tx_antenna.gains_db_at(
        [codebook[sector_id].weights for sector_id in sector_ids], tx_terms
    )
    amplitude_db = tx_gain_db + fixed_db - shadowing_db
    field = 10.0 ** (amplitude_db / 20.0) * np.exp(1j * phases)
    power = np.maximum(np.abs(field.sum(axis=2)) ** 2, 1e-30)
    snr = 10.0 * np.log10(power) - budget.noise_floor_dbm
    return np.ascontiguousarray(snr.T)
