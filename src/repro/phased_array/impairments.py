"""Hardware imperfection models for low-cost phased arrays.

The paper stresses that off-the-shelf hardware departs from theory:
per-element phase and gain errors, occasional dead elements, and a
device chassis that blocks and distorts radiation behind the antenna
(the measured patterns degrade beyond roughly ±120° azimuth).  These
static, device-specific imperfections are sampled once per device from
a seeded RNG so that a given device is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ChassisBlockage", "HardwareImpairments"]


@dataclass(frozen=True)
class ChassisBlockage:
    """Directional attenuation from the device chassis.

    Radiation toward the back of the device (azimuth beyond
    ``onset_deg``) is attenuated up to ``max_attenuation_db`` with an
    added pseudo-random ripple that models scattering off the chip and
    shielding mentioned in the paper (§4.4).
    """

    onset_deg: float = 120.0
    max_attenuation_db: float = 25.0
    ripple_db: float = 4.0
    seed: int = 0
    _ripple_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Deterministic ripple: a fixed random Fourier series in angle,
        # drawn once per instance from ``seed``.
        rng = np.random.default_rng(self.seed)
        coefficients = rng.normal(size=4)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
        object.__setattr__(self, "_ripple_terms", (coefficients, phases))

    def attenuation_db(self, azimuth_deg: np.ndarray, elevation_deg: np.ndarray) -> np.ndarray:
        """Attenuation (>= 0 dB) for the given directions."""
        azimuth = np.abs(np.asarray(azimuth_deg, dtype=float))
        elevation = np.asarray(elevation_deg, dtype=float)
        azimuth, elevation = np.broadcast_arrays(azimuth, elevation)
        # Smooth ramp from the onset azimuth to the full back direction.
        ramp = np.clip((azimuth - self.onset_deg) / (180.0 - self.onset_deg), 0.0, 1.0)
        attenuation = self.max_attenuation_db * ramp**2
        coefficients, phases = self._ripple_terms
        angle_rad = np.deg2rad(azimuth + 0.3 * elevation)
        ripple = np.zeros_like(attenuation)
        for order, (coefficient, phase) in enumerate(zip(coefficients, phases), start=2):
            ripple = ripple + coefficient * np.sin(order * angle_rad + phase)
        ripple = self.ripple_db * ripple / max(1.0, np.sqrt(len(coefficients)))
        return np.maximum(attenuation + ramp * ripple, 0.0)


@dataclass(frozen=True)
class HardwareImpairments:
    """Static per-element errors of one physical device.

    Attributes:
        phase_error_rad: additive phase error per element.
        gain_error_db: multiplicative gain error per element, in dB.
        element_failed: boolean mask of dead elements.
        blockage: chassis blockage model.
    """

    phase_error_rad: np.ndarray
    gain_error_db: np.ndarray
    element_failed: np.ndarray
    blockage: ChassisBlockage = field(default_factory=ChassisBlockage)
    _response: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        phase = np.asarray(self.phase_error_rad, dtype=float)
        gain = np.asarray(self.gain_error_db, dtype=float)
        failed = np.asarray(self.element_failed, dtype=bool)
        if not (phase.shape == gain.shape == failed.shape) or phase.ndim != 1:
            raise ValueError("impairment arrays must be 1-D and share a shape")
        object.__setattr__(self, "phase_error_rad", phase)
        object.__setattr__(self, "gain_error_db", gain)
        object.__setattr__(self, "element_failed", failed)
        gain_linear = 10.0 ** (gain / 20.0)
        response = np.where(failed, 0.0, gain_linear * np.exp(1j * phase))
        response.setflags(write=False)
        object.__setattr__(self, "_response", response)

    @property
    def n_elements(self) -> int:
        return self.phase_error_rad.size

    @classmethod
    def ideal(cls, n_elements: int) -> "HardwareImpairments":
        """A perfect front-end (for ablations against theory)."""
        return cls(
            phase_error_rad=np.zeros(n_elements),
            gain_error_db=np.zeros(n_elements),
            element_failed=np.zeros(n_elements, dtype=bool),
            blockage=ChassisBlockage(max_attenuation_db=0.0, ripple_db=0.0),
        )

    @classmethod
    def sample(
        cls,
        n_elements: int,
        rng: np.random.Generator,
        phase_error_std_rad: float = 0.20,
        gain_error_std_db: float = 0.8,
        failure_probability: float = 0.02,
    ) -> "HardwareImpairments":
        """Draw the static imperfections of one device."""
        if not 0.0 <= failure_probability < 1.0:
            raise ValueError("failure probability must be in [0, 1)")
        return cls(
            phase_error_rad=rng.normal(0.0, phase_error_std_rad, size=n_elements),
            gain_error_db=rng.normal(0.0, gain_error_std_db, size=n_elements),
            element_failed=rng.random(n_elements) < failure_probability,
            blockage=ChassisBlockage(seed=int(rng.integers(0, 2**31))),
        )

    def element_response(self) -> np.ndarray:
        """Complex per-element multiplier combining all element errors.

        Computed once per device; the returned array is read-only.
        """
        return self._response
