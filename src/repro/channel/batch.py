"""Vectorized ground-truth SNR computation over many orientations.

Pattern measurement campaigns and the evaluation experiments need the
true SNR of every sector for hundreds of rotation-head poses.  Walking
the frame-level protocol for each pose would repeat identical gain
computations; this module batches them: the pose-independent ray terms
(departure directions, receive gain, path loss, phase) are traced once
per geometry and memoized, every pose is rotated in one stacked pass,
the weight-independent direction terms are built once for all (pose,
ray) pairs, each sector costs one array-factor product over all of
them, and the rest of the link budget runs once on the stacked
(sectors, poses, rays) block.
"""

from __future__ import annotations

import copyreg
import functools
import io
import pickle
from typing import NamedTuple, Optional, Sequence

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

#: Geometries whose ray terms stay memoized.  Sweeps cycle through a
#: handful of rooms; blockage experiments build many more, which only
#: evict each other.
FIXED_TERMS_MEMO_SIZE = 32


class _FixedTerms(NamedTuple):
    """Per-ray terms no TX pose changes (read-only arrays)."""

    departure_world: np.ndarray  # (n_rays, 3) world-frame unit vectors
    fixed_db: np.ndarray  # (n_rays,) power + RX gain - path loss - extra loss
    phases: np.ndarray  # (n_rays,) propagation phase


def _array_of(data: bytes, dtype: str, shape) -> np.ndarray:
    """The array :func:`_reduce_array` pickled (writable, C order)."""
    return np.frombuffer(data, dtype=dtype).reshape(shape).copy()


def _reduce_array(array: np.ndarray):
    """An ndarray as ``(bytes, dtype, shape)``: its value and nothing else."""
    if array.dtype.hasobject:
        return array.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    return _array_of, (array.tobytes(), array.dtype.str, array.shape)


#: The memo key's pickling: numpy's own array reduce pickles the dtype
#: object and a buffer wrapper per array, which made up most of a key's
#: cost (~16 arrays per geometry).
_KEY_DISPATCH = copyreg.dispatch_table.copy()
_KEY_DISPATCH[np.ndarray] = _reduce_array


def _memo_key(inputs) -> bytes:
    """The pickled value of ``inputs``, every array by its bytes, dtype and shape."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = _KEY_DISPATCH
    pickler.dump(inputs)
    return buffer.getvalue()


@functools.lru_cache(maxsize=FIXED_TERMS_MEMO_SIZE)
def _fixed_terms_of(key: bytes) -> _FixedTerms:
    """The ray terms of a pickled (environment, RX device, budget) key.

    The key is the value of every input, so equal geometries share one
    entry whatever objects carry them, and the terms are traced from
    the unpickled copy, which equals the caller's inputs value for
    value.
    """
    environment, rx_antenna, rx_weights, rx_orientation, budget = pickle.loads(key)
    rays = environment.rays()
    departure_world = np.stack(
        [direction_vector(*ray.departure_direction()) for ray in rays]
    )
    wavelength = wavelength_m(budget.carrier_hz)
    fixed_db = np.empty(len(rays))
    phases = np.empty(len(rays))
    for index, ray in enumerate(rays):
        rx_az, rx_el = rx_orientation.world_direction_in_device_frame(
            *ray.arrival_direction()
        )
        fixed_db[index] = (
            budget.tx_power_dbm
            + rx_antenna.gain_db(rx_weights, rx_az, rx_el)
            - path_loss_db(ray.path_length_m, budget.carrier_hz)
            - ray.extra_loss_db
        )
        phases[index] = -2.0 * np.pi * ray.path_length_m / wavelength
    for array in (departure_world, fixed_db, phases):
        array.flags.writeable = False
    return _FixedTerms(departure_world, fixed_db, phases)


def _pose_matrices(orientations: Sequence[Orientation]) -> np.ndarray:
    """``Orientation.matrix`` of every pose, stacked: ``(n, 3, 3)``.

    The same ``cos``/``sin`` of the same radians and the same
    ``Rz @ Ry`` product as the per-pose property, one batch for all.
    """
    count = len(orientations)
    yaw = np.deg2rad(np.array([pose.yaw_deg for pose in orientations], dtype=float))
    pitch = np.deg2rad(np.array([pose.pitch_deg for pose in orientations], dtype=float))
    cos_yaw, sin_yaw = np.cos(yaw), np.sin(yaw)
    cos_pitch, sin_pitch = np.cos(pitch), np.sin(pitch)
    about_z = np.zeros((count, 3, 3))
    about_z[:, 0, 0] = cos_yaw
    about_z[:, 0, 1] = -sin_yaw
    about_z[:, 1, 0] = sin_yaw
    about_z[:, 1, 1] = cos_yaw
    about_z[:, 2, 2] = 1.0
    about_y = np.zeros((count, 3, 3))
    about_y[:, 0, 0] = cos_pitch
    about_y[:, 0, 2] = -sin_pitch
    about_y[:, 1, 1] = 1.0
    about_y[:, 2, 0] = sin_pitch
    about_y[:, 2, 2] = cos_pitch
    return about_z @ about_y


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
    terms = _fixed_terms_of(
        _memo_key((environment, rx_antenna, rx_weights, rx_orientation, budget))
    )
    n_orientations = len(tx_orientations)
    n_rays = len(terms.phases)
    if shadowing_db is None:
        shadowing_db = np.zeros((n_orientations, n_rays))
    shadowing_db = np.asarray(shadowing_db, dtype=float)
    if shadowing_db.shape != (n_orientations, n_rays):
        raise ValueError("shadowing must have shape (n_orientations, n_rays)")

    # Departure directions in the TX device frame: (n_orientations, n_rays).
    tx_az, tx_el = vector_to_angles(
        terms.departure_world @ _pose_matrices(tx_orientations)
    )

    tx_terms = tx_antenna.direction_terms(tx_az, tx_el)
    # (n_sectors, n_orientations, n_rays), one array factor per sector.
    tx_gain_db = tx_antenna.gains_db_at(
        [codebook[sector_id].weights for sector_id in sector_ids], tx_terms
    )
    amplitude_db = tx_gain_db + terms.fixed_db - shadowing_db
    field = 10.0 ** (amplitude_db / 20.0) * np.exp(1j * terms.phases)
    power = np.maximum(np.abs(field.sum(axis=2)) ** 2, 1e-30)
    snr = 10.0 * np.log10(power) - budget.noise_floor_dbm
    return np.ascontiguousarray(snr.T)
