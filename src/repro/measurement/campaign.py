"""Anechoic-chamber pattern measurement campaign (§4.2–§4.5).

Reproduces the paper's campaign: the device under test (DUT) sits on
the rotation head three meters from a fixed reference device.  For the
transmit patterns the DUT sweeps all TX sectors while the reference
listens quasi-omni; for the receive pattern the roles switch and the
reference transmits on its strongly directive sector 63.  Raw samples
go through outlier rejection, averaging and gap interpolation before
becoming a :class:`~repro.measurement.patterns.PatternTable`.

Grid semantics: samples are filed under the *commanded* head position
(device-frame azimuth/elevation the head was supposed to reach), while
the simulated physics uses the *actual* — error-afflicted — pose.  The
manual tilt error therefore leaks into the elevation patterns exactly
as it did in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..channel.batch import sweep_snr_matrix
from ..channel.environment import Environment, anechoic_chamber
from ..channel.link import LinkBudget
from ..channel.observation import MeasurementModel
from ..geometry.grid import AngularGrid
from ..phased_array.array import PhasedArray
from ..phased_array.codebook import Codebook
from .patterns import PatternTable
from .processing import interpolate_gaps, robust_average_rows
from .rotation_head import RotationHead

__all__ = [
    "CampaignConfig",
    "PatternMeasurementCampaign",
    "measure_azimuth_patterns",
    "measure_3d_patterns",
]

#: Reference sector the fixed device transmits with while the DUT's
#: receive pattern is measured (§4.3: "only frames transmitted on
#: sector 63, as it has a strong unidirectional gain").
_REFERENCE_TX_SECTOR = 63


@dataclass(frozen=True)
class CampaignConfig:
    """Sweep-and-rotate schedule of one campaign.

    Attributes:
        azimuths_deg: device-frame azimuth grid (strictly increasing).
        elevations_deg: head tilt grid (strictly increasing).
        n_sweeps: repeated sweeps per position (averaged afterwards).
    """

    azimuths_deg: Sequence[float]
    elevations_deg: Sequence[float] = (0.0,)
    n_sweeps: int = 3

    def __post_init__(self) -> None:
        if self.n_sweeps < 1:
            raise ValueError("need at least one sweep per position")
        if len(self.azimuths_deg) == 0 or len(self.elevations_deg) == 0:
            raise ValueError("campaign grids must be non-empty")

    @property
    def grid(self) -> AngularGrid:
        return AngularGrid(
            np.asarray(self.azimuths_deg, dtype=float),
            np.asarray(self.elevations_deg, dtype=float),
        )


class PatternMeasurementCampaign:
    """Measures every codebook pattern of a DUT in a chamber."""

    def __init__(
        self,
        dut_antenna: PhasedArray,
        dut_codebook: Codebook,
        reference_antenna: Optional[PhasedArray] = None,
        reference_codebook: Optional[Codebook] = None,
        environment: Optional[Environment] = None,
        budget: Optional[LinkBudget] = None,
        measurement_model: Optional[MeasurementModel] = None,
        rotation_head: Optional[RotationHead] = None,
        chamber_attenuation_db: float = 13.0,
    ):
        """
        Args:
            chamber_attenuation_db: calibrated attenuation inserted in
                the chamber link so the strongest sectors stay inside
                the firmware's −7 … 12 dB reporting window — clipped
                peaks would destroy the gain *ranking* that the Eq. 4
                selection step depends on.  The constant offset is
                irrelevant to the (scale-invariant) Eq. 2 correlation.
        """
        from dataclasses import replace

        from ..phased_array.talon import talon_codebook  # local: avoids cycle at import

        if chamber_attenuation_db < 0:
            raise ValueError("attenuation cannot be negative")
        self.dut_antenna = dut_antenna
        self.dut_codebook = dut_codebook
        self.reference_antenna = (
            reference_antenna if reference_antenna is not None else PhasedArray.talon()
        )
        self.reference_codebook = (
            reference_codebook
            if reference_codebook is not None
            else talon_codebook(self.reference_antenna)
        )
        self.environment = environment if environment is not None else anechoic_chamber()
        base_budget = budget if budget is not None else LinkBudget()
        self.budget = replace(
            base_budget, tx_power_dbm=base_budget.tx_power_dbm - chamber_attenuation_db
        )
        self.measurement_model = (
            measurement_model if measurement_model is not None else MeasurementModel()
        )
        # When no head is supplied, each run builds one seeded from the
        # run's RNG so that identical seeds reproduce identical tables.
        self.rotation_head = rotation_head

    def _observe_matrix(
        self,
        true_snr: np.ndarray,
        n_sweeps: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Reported SNR samples, (positions × sectors × sweeps), NaN = none.

        A sweep reports every (position, sector) frame in row-major
        order; all the sweeps are one frame-major block.
        """
        frames = np.ascontiguousarray(true_snr, dtype=float).reshape(1, -1)
        reports = self.measurement_model.observe_sweeps(
            np.repeat(frames, n_sweeps, axis=0), self.budget.noise_floor_dbm, rng
        )
        return reports.snr_db.T.reshape(true_snr.shape + (n_sweeps,))

    def _averaged(
        self, true_snr: np.ndarray, n_sweeps: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Outlier-rejected mean of each (position, sector)'s samples."""
        samples = self._observe_matrix(true_snr, n_sweeps, rng)
        return robust_average_rows(samples.reshape(-1, n_sweeps)).reshape(true_snr.shape)

    def run(self, config: CampaignConfig, rng: np.random.Generator) -> PatternTable:
        """Execute the campaign and return the processed table.

        The returned table contains every codebook sector, including
        the quasi-omni RX pattern under its own sector ID.
        """
        grid = config.grid
        head = (
            self.rotation_head
            if self.rotation_head is not None
            else RotationHead(np.random.default_rng(rng.integers(2**31)))
        )
        tx_ids = self.dut_codebook.tx_sector_ids
        rx_id = self.dut_codebook.rx_sector_id

        raw: Dict[int, np.ndarray] = {
            sector_id: np.full(grid.shape, np.nan) for sector_id in [rx_id] + tx_ids
        }

        for el_index, elevation in enumerate(grid.elevations_deg):
            head.set_tilt(float(elevation))
            orientations = []
            for azimuth in grid.azimuths_deg:
                # Device-frame azimuth `a` needs a head yaw of −a.
                head.set_azimuth(-float(azimuth))
                orientations.append(head.orientation())

            # TX patterns: DUT transmits, reference listens quasi-omni.
            true_tx = sweep_snr_matrix(
                self.environment,
                self.dut_antenna,
                self.dut_codebook,
                tx_ids,
                orientations,
                self.reference_antenna,
                self.reference_codebook.rx_sector.weights,
                budget=self.budget,
            )
            tx_means = self._averaged(true_tx, config.n_sweeps, rng)
            for column, sector_id in enumerate(tx_ids):
                raw[sector_id][el_index] = tx_means[:, column]

            # RX pattern: reference transmits sector 63; by reciprocity
            # this equals the DUT "transmitting" its RX weights toward a
            # reference that "receives" with its sector-63 weights.
            true_rx = sweep_snr_matrix(
                self.environment,
                self.dut_antenna,
                self.dut_codebook,
                [rx_id],
                orientations,
                self.reference_antenna,
                self.reference_codebook[_REFERENCE_TX_SECTOR].weights,
                budget=self.budget,
            )
            raw[rx_id][el_index] = self._averaged(true_rx, config.n_sweeps, rng)[:, 0]

        processed = {
            sector_id: interpolate_gaps(values) for sector_id, values in raw.items()
        }
        return PatternTable(grid, processed)


def measure_azimuth_patterns(
    campaign: PatternMeasurementCampaign,
    rng: np.random.Generator,
    azimuth_step_deg: float = 0.9,
    n_sweeps: int = 3,
) -> PatternTable:
    """The Figure 5 campaign: full azimuth circle at elevation 0.

    The paper rotates from −180° to 180° in 0.9° steps.
    """
    n_steps = int(round(360.0 / azimuth_step_deg))
    azimuths = -180.0 + azimuth_step_deg * np.arange(n_steps + 1)
    config = CampaignConfig(azimuths_deg=azimuths, elevations_deg=(0.0,), n_sweeps=n_sweeps)
    return campaign.run(config, rng)


def measure_3d_patterns(
    campaign: PatternMeasurementCampaign,
    rng: np.random.Generator,
    azimuth_step_deg: float = 1.8,
    elevation_step_deg: float = 3.6,
    max_elevation_deg: float = 32.4,
    n_sweeps: int = 3,
) -> PatternTable:
    """The Figure 6 campaign: ±90° azimuth, 0°–32.4° manual tilts."""
    n_az = int(round(180.0 / azimuth_step_deg))
    azimuths = -90.0 + azimuth_step_deg * np.arange(n_az + 1)
    n_el = int(round(max_elevation_deg / elevation_step_deg))
    elevations = elevation_step_deg * np.arange(n_el + 1)
    config = CampaignConfig(azimuths_deg=azimuths, elevations_deg=elevations, n_sweeps=n_sweeps)
    return campaign.run(config, rng)
