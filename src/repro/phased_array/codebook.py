"""Sector codebooks.

IEEE 802.11ad devices do not steer arbitrary beams at runtime: the
firmware ships a fixed set of precomputed weight vectors, the
*sectors*, indexed by a sector ID carried in sector-sweep frames.
:class:`Codebook` is that indexed set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .array import PhasedArray
from .weights import WeightVector

__all__ = ["Sector", "Codebook", "RX_SECTOR_ID"]

#: Sector ID used for the quasi-omnidirectional receive sector.  The
#: Talon's transmit sweep uses IDs 1–31 and 61–63 (Table 1), leaving 0
#: free for the unnumbered receive pattern.
RX_SECTOR_ID = 0


@dataclass(frozen=True)
class Sector:
    """One codebook entry.

    Attributes:
        sector_id: the ID carried in SSW frames (6-bit field).
        weights: the weight vector the front-end applies.
        kind: free-form descriptor ("directive", "multi-lobe", ...).
    """

    sector_id: int
    weights: WeightVector
    kind: str = "directive"

    def __post_init__(self) -> None:
        if not 0 <= self.sector_id <= 63:
            raise ValueError("sector IDs are a 6-bit field (0..63)")


class Codebook:
    """An ordered, ID-indexed set of sectors for one antenna."""

    def __init__(self, sectors: List[Sector], rx_sector_id: int = RX_SECTOR_ID):
        if not sectors:
            raise ValueError("a codebook needs at least one sector")
        self._sectors: Dict[int, Sector] = {}
        for sector in sectors:
            if sector.sector_id in self._sectors:
                raise ValueError(f"duplicate sector ID {sector.sector_id}")
            self._sectors[sector.sector_id] = sector
        if rx_sector_id not in self._sectors:
            raise ValueError(f"receive sector {rx_sector_id} missing from codebook")
        self._rx_sector_id = rx_sector_id

    def __len__(self) -> int:
        return len(self._sectors)

    def __iter__(self) -> Iterator[Sector]:
        return iter(self._sectors.values())

    def __contains__(self, sector_id: int) -> bool:
        return sector_id in self._sectors

    def __getitem__(self, sector_id: int) -> Sector:
        try:
            return self._sectors[sector_id]
        except KeyError:
            raise KeyError(f"unknown sector ID {sector_id}") from None

    @property
    def sector_ids(self) -> List[int]:
        """All sector IDs, in insertion order."""
        return list(self._sectors)

    @property
    def rx_sector_id(self) -> int:
        """ID of the quasi-omni receive sector."""
        return self._rx_sector_id

    @property
    def rx_sector(self) -> Sector:
        return self._sectors[self._rx_sector_id]

    @property
    def tx_sector_ids(self) -> List[int]:
        """IDs usable for transmit sweeps (everything but the RX sector)."""
        return [sector_id for sector_id in self._sectors if sector_id != self._rx_sector_id]

    @property
    def n_tx_sectors(self) -> int:
        return len(self.tx_sector_ids)

    def gains_db(
        self,
        antenna: PhasedArray,
        azimuth_deg: np.ndarray,
        elevation_deg: np.ndarray,
        sector_ids: Optional[List[int]] = None,
    ) -> Dict[int, np.ndarray]:
        """Ground-truth gain of each sector in the given directions."""
        if sector_ids is None:
            sector_ids = self.sector_ids
        terms = antenna.direction_terms(azimuth_deg, elevation_deg)
        return {
            sector_id: antenna.gain_db_at(self[sector_id].weights, terms)
            for sector_id in sector_ids
        }
