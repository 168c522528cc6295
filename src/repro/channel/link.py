"""Link simulation: antennas + rays → received power and SNR.

The simulator combines the ground-truth sector patterns with the
environment's rays coherently (complex sum with per-ray carrier phase),
which reproduces the constructive/destructive multipath behaviour that
makes conference-room measurements noisier than chamber ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..geometry.rotation import Orientation
from ..phased_array.array import PhasedArray
from ..phased_array.elements import DEFAULT_CARRIER_HZ, wavelength_m
from ..phased_array.weights import WeightVector
from .environment import Environment
from .pathloss import path_loss_db
from .rays import Ray

__all__ = ["LinkBudget", "LinkSimulator"]


@dataclass(frozen=True)
class LinkBudget:
    """Radio constants of the 802.11ad link.

    Defaults are calibrated so that sector-sweep SNR readings land in
    the QCA9500's −7 … 12 dB reporting window for the paper's setups:
    with the best TX sector and the quasi-omni RX sector, the chamber
    link at 3 m peaks right at the clip and the 6 m conference-room
    link around 9 dB, while the beamformed data phase (both ends
    directive) gains roughly 15 dB on top.
    """

    tx_power_dbm: float = 7.0
    noise_figure_db: float = 10.0
    bandwidth_hz: float = 1.76e9
    carrier_hz: float = DEFAULT_CARRIER_HZ

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0 or self.carrier_hz <= 0:
            raise ValueError("bandwidth and carrier must be positive")

    @property
    def noise_floor_dbm(self) -> float:
        """Thermal noise power plus noise figure."""
        return -174.0 + 10.0 * np.log10(self.bandwidth_hz) + self.noise_figure_db


class LinkSimulator:
    """Computes received power between two sectored stations."""

    def __init__(
        self,
        environment: Environment,
        tx_antenna: PhasedArray,
        rx_antenna: PhasedArray,
        budget: Optional[LinkBudget] = None,
        tx_position_m: Optional[np.ndarray] = None,
        rx_position_m: Optional[np.ndarray] = None,
    ):
        """Build a simulator for one link direction.

        ``tx_position_m`` / ``rx_position_m`` override the environment's
        default endpoints — pass them swapped for the reverse direction
        or set one to a monitor position.
        """
        self.environment = environment
        self.tx_antenna = tx_antenna
        self.rx_antenna = rx_antenna
        self.budget = budget if budget is not None else LinkBudget()
        tx_position = (
            environment.tx_position_m if tx_position_m is None else np.asarray(tx_position_m)
        )
        rx_position = (
            environment.rx_position_m if rx_position_m is None else np.asarray(rx_position_m)
        )
        self._rays = environment.rays_between(tx_position, rx_position)
        self._wavelength_m = wavelength_m(self.budget.carrier_hz)
        self._pose_memo: Optional[Tuple[Tuple[Orientation, Orientation], list]] = None

    @property
    def rays(self) -> List[Ray]:
        """The propagation rays of the environment (LOS first)."""
        return list(self._rays)

    def sample_shadowing_db(self, rng: Optional[np.random.Generator]) -> np.ndarray:
        """Slow per-ray shadowing for one channel coherence period.

        Sector sweeps complete in ~1 ms, far inside the coherence time
        of an indoor channel, so one draw is shared by every sector
        probed within a sweep.
        """
        if rng is None or self.environment.shadowing_std_db == 0.0:
            return np.zeros(len(self._rays))
        return rng.normal(0.0, self.environment.shadowing_std_db, size=len(self._rays))

    def received_power_dbm(
        self,
        tx_weights: WeightVector,
        rx_weights: WeightVector,
        tx_orientation: Orientation = Orientation(),
        rx_orientation: Optional[Orientation] = None,
        shadowing_db: Optional[np.ndarray] = None,
    ) -> float:
        """Coherent received power over all rays (dBm).

        Args:
            tx_weights / rx_weights: active sector weight vectors.
            tx_orientation: pose of the transmitter (rotation head).
            rx_orientation: pose of the receiver; by default it faces
                the transmitter straight on (yaw 180° in world frame).
            shadowing_db: per-ray shadowing from
                :meth:`sample_shadowing_db`; zeros when omitted.
        """
        if rx_orientation is None:
            rx_orientation = Orientation(yaw_deg=180.0)
        if shadowing_db is None:
            shadowing_db = np.zeros(len(self._rays))
        shadowing_db = np.asarray(shadowing_db, dtype=float)
        if shadowing_db.shape != (len(self._rays),):
            raise ValueError("shadowing vector must have one entry per ray")

        field_sum = 0.0 + 0.0j
        ray_terms = self._pose_terms(tx_orientation, rx_orientation)
        for (tx_terms, rx_terms, loss_db, extra_loss_db, phasor), shadow_db in zip(
            ray_terms, shadowing_db
        ):
            gain_tx_db = self.tx_antenna.gain_db_at(tx_weights, tx_terms)
            gain_rx_db = self.rx_antenna.gain_db_at(rx_weights, rx_terms)
            amplitude_db = (
                self.budget.tx_power_dbm
                + gain_tx_db
                + gain_rx_db
                - loss_db
                - extra_loss_db
                - shadow_db
            )
            field_sum += 10.0 ** (amplitude_db / 20.0) * phasor

        power_linear = max(abs(field_sum) ** 2, 1e-30)
        return float(10.0 * np.log10(power_linear))

    def _pose_terms(self, tx_orientation: Orientation, rx_orientation: Orientation) -> list:
        """Per-ray terms that depend on the pose pair but on no weight.

        One entry per ray: both antennas' direction terms, path loss,
        extra loss and carrier phasor.  Only the most recent pose pair
        is kept — a sector sweep holds the pose fixed for every sector —
        so the memo never grows.
        """
        key = (tx_orientation, rx_orientation)
        memo = self._pose_memo  # one read: safe if threads share a simulator
        if memo is not None and memo[0] == key:
            return memo[1]
        ray_terms = []
        for ray in self._rays:
            tx_az, tx_el = tx_orientation.world_direction_in_device_frame(
                *ray.departure_direction()
            )
            rx_az, rx_el = rx_orientation.world_direction_in_device_frame(
                *ray.arrival_direction()
            )
            phase = -2.0 * np.pi * ray.path_length_m / self._wavelength_m
            ray_terms.append(
                (
                    self.tx_antenna.direction_terms(tx_az, tx_el),
                    self.rx_antenna.direction_terms(rx_az, rx_el),
                    path_loss_db(ray.path_length_m, self.budget.carrier_hz),
                    ray.extra_loss_db,
                    np.exp(1j * phase),
                )
            )
        self._pose_memo = (key, ray_terms)
        return ray_terms

    def true_snr_db(
        self,
        tx_weights: WeightVector,
        rx_weights: WeightVector,
        tx_orientation: Orientation = Orientation(),
        rx_orientation: Optional[Orientation] = None,
        shadowing_db: Optional[np.ndarray] = None,
    ) -> float:
        """Ground-truth SNR before any firmware measurement effects."""
        power = self.received_power_dbm(
            tx_weights, rx_weights, tx_orientation, rx_orientation, shadowing_db
        )
        return power - self.budget.noise_floor_dbm
