"""Shared infrastructure for the evaluation experiments (§6).

The paper's methodology: record *full* sweeps (all 34 TX sectors) at
every rotation-head position, then evaluate the compressive algorithm
offline by considering only a random subset of each sweep's
measurements.  :func:`record_directions` produces those recordings;
the per-figure modules consume them.

A :func:`build_testbed` call assembles the simulated hardware —
device-under-test and reference routers, their measured 3D pattern
table from a chamber campaign — and is memoized because every
experiment shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..channel.batch import sweep_snr_matrix
from ..channel.environment import Environment
from ..channel.link import LinkBudget
from ..channel.observation import MeasurementModel
from ..core.measurements import ProbeMeasurement
from ..geometry.angles import azimuth_difference, wrap_azimuth
from ..measurement.campaign import CampaignConfig, PatternMeasurementCampaign
from ..measurement.patterns import PatternTable
from ..measurement.rotation_head import RotationHead
from ..phased_array.array import PhasedArray
from ..phased_array.codebook import Codebook
from ..phased_array.talon import talon_codebook

__all__ = [
    "Testbed",
    "build_testbed",
    "testbed_table_cache_info",
    "RecordedDirection",
    "RecordingSet",
    "record_directions",
    "stack_sweeps",
    "random_subsweep",
    "random_probe_columns",
    "pack_probe_trials",
    "BoxStats",
    "estimate_errors",
    "snr_losses",
    "selected_snr_db",
    "modal_counts",
]


@dataclass(frozen=True)
class Testbed:
    """The simulated hardware every experiment shares."""

    dut_antenna: PhasedArray
    dut_codebook: Codebook
    ref_antenna: PhasedArray
    ref_codebook: Codebook
    pattern_table: PatternTable
    budget: LinkBudget
    measurement_model: MeasurementModel

    @property
    def tx_sector_ids(self) -> List[int]:
        return self.dut_codebook.tx_sector_ids


def _testbed_memo_params(
    seed: int,
    azimuth_step_deg: float,
    elevation_step_deg: float,
    max_elevation_deg: float,
    campaign_sweeps: int,
) -> Dict:
    """The disk-memo key of a ``build_testbed`` campaign table."""
    return {
        "pipeline": "build_testbed-campaign",
        "seed": seed,
        "azimuth_step_deg": azimuth_step_deg,
        "elevation_step_deg": elevation_step_deg,
        "max_elevation_deg": max_elevation_deg,
        "campaign_sweeps": campaign_sweeps,
    }


def testbed_table_cache_info(
    seed: int = 2017,
    azimuth_step_deg: float = 2.0,
    elevation_step_deg: float = 4.0,
    max_elevation_deg: float = 32.0,
    campaign_sweeps: int = 3,
) -> Dict:
    """Status of the on-disk campaign-table memo for these parameters."""
    from ..measurement import artifacts

    path = artifacts.memoized_table_path(
        _testbed_memo_params(
            seed, azimuth_step_deg, elevation_step_deg, max_elevation_deg, campaign_sweeps
        )
    )
    return {
        "path": str(path),
        "present": path.is_file(),
        "enabled": artifacts._memo_enabled(),
    }


@lru_cache(maxsize=4)
def build_testbed(
    seed: int = 2017,
    azimuth_step_deg: float = 2.0,
    elevation_step_deg: float = 4.0,
    max_elevation_deg: float = 32.0,
    campaign_sweeps: int = 3,
) -> Testbed:
    """Create devices and run the chamber campaign once (memoized).

    The pattern table covers azimuth ±90° and elevation 0° up to
    ``max_elevation_deg`` — the same envelope as Figure 6.
    """
    rng = np.random.default_rng(seed)
    dut_antenna = PhasedArray.talon(np.random.default_rng(seed + 1))
    dut_codebook = talon_codebook(dut_antenna)
    ref_antenna = PhasedArray.talon(np.random.default_rng(seed + 2))
    ref_codebook = talon_codebook(ref_antenna)
    budget = LinkBudget()
    measurement_model = MeasurementModel()

    campaign = PatternMeasurementCampaign(
        dut_antenna,
        dut_codebook,
        reference_antenna=ref_antenna,
        reference_codebook=ref_codebook,
        budget=budget,
        measurement_model=measurement_model,
    )
    n_az = int(round(180.0 / azimuth_step_deg))
    azimuths = -90.0 + azimuth_step_deg * np.arange(n_az + 1)
    n_el = int(round(max_elevation_deg / elevation_step_deg))
    elevations = elevation_step_deg * np.arange(n_el + 1)
    config = CampaignConfig(
        azimuths_deg=azimuths, elevations_deg=elevations, n_sweeps=campaign_sweeps
    )
    # Disk-memoize the campaign output: the table is a pure function of
    # these parameters (the generator is seeded from `seed` and the
    # campaign is its only consumer), and `.npz` round-trips float64
    # exactly, so loading the cached table is indistinguishable from
    # rebuilding it.  Corruption or a version bump degrades to a
    # rebuild inside `load_or_build_table`.
    from ..measurement import artifacts

    memo_params = _testbed_memo_params(
        seed, azimuth_step_deg, elevation_step_deg, max_elevation_deg, campaign_sweeps
    )
    expected_sectors = set(dut_codebook.sector_ids)
    table = artifacts.load_or_build_table(
        memo_params,
        build=lambda: campaign.run(config, rng),
        validate=lambda t: set(t.sector_ids) == expected_sectors
        and t.grid.n_points == len(azimuths) * len(elevations),
    )
    return Testbed(
        dut_antenna=dut_antenna,
        dut_codebook=dut_codebook,
        ref_antenna=ref_antenna,
        ref_codebook=ref_codebook,
        pattern_table=table,
        budget=budget,
        measurement_model=measurement_model,
    )


@dataclass
class RecordedDirection:
    """All sweep recordings for one physical path direction.

    The firmware reports are held as (n_sweeps × n_tx) arrays: row
    ``i`` is sweep ``i``, column ``j`` sector ``tx_sector_ids[j]``, and
    an unreported slot holds False / NaN.  Recordings are immutable once
    recorded (the arrays are read-only).

    Attributes:
        azimuth_deg / elevation_deg: nominal device-frame direction of
            the link (the ground truth for estimation errors).
        true_snr_db: ground-truth sweep SNR per TX sector.
        tx_sector_ids: the swept sectors, one column each.
        present / snr_db / rssi_dbm: the reports.
    """

    azimuth_deg: float
    elevation_deg: float
    true_snr_db: np.ndarray
    tx_sector_ids: Tuple[int, ...]
    present: np.ndarray
    snr_db: np.ndarray
    rssi_dbm: np.ndarray

    def optimal_snr_db(self) -> float:
        return float(self.true_snr_db.max())

    @property
    def n_sweeps(self) -> int:
        return self.present.shape[0]

    @cached_property
    def sweeps(self) -> List[Dict[int, ProbeMeasurement]]:
        """One dict per sweep, mapping sector ID to its report.

        Missing IDs were not reported.  Built on first use from the
        arrays, for the consumers that walk reports one by one.
        """
        sweeps: List[Dict[int, ProbeMeasurement]] = []
        for present, snr, rssi in zip(
            self.present.tolist(), self.snr_db.tolist(), self.rssi_dbm.tolist()
        ):
            sweeps.append(
                {
                    sector_id: ProbeMeasurement(sector_id, snr[column], rssi[column])
                    for column, sector_id in enumerate(self.tx_sector_ids)
                    if present[column]
                }
            )
        return sweeps

    def packed_sweeps(
        self, tx_sector_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The reports by column of ``tx_sector_ids``, for the batched kernel.

        Returns ``(present, snr_db, rssi_dbm)``, each of shape
        ``(n_sweeps, len(tx_sector_ids))``: the recorded arrays
        themselves for the recording's own id list, a column gather for
        any other (a sector the recording never swept stays False / NaN).
        """
        ids = tuple(tx_sector_ids)
        if ids == self.tx_sector_ids:
            return self.present, self.snr_db, self.rssi_dbm
        column_of = {
            sector_id: column for column, sector_id in enumerate(self.tx_sector_ids)
        }
        known = np.array([sector_id in column_of for sector_id in ids], dtype=bool)
        columns = [column_of[sector_id] for sector_id in ids if sector_id in column_of]
        shape = (self.n_sweeps, len(ids))
        present = np.zeros(shape, dtype=bool)
        snr = np.full(shape, np.nan)
        rssi = np.full(shape, np.nan)
        present[:, known] = self.present[:, columns]
        snr[:, known] = self.snr_db[:, columns]
        rssi[:, known] = self.rssi_dbm[:, columns]
        return present, snr, rssi


class RecordingSet(tuple):
    """The recordings of one :func:`record_directions` call, with their
    reports kept in one packed array per channel.

    A tuple of :class:`RecordedDirection` s whose arrays are views of
    ``present`` / ``snr_db`` / ``rssi_dbm``, each of shape
    ``(n_recordings * n_sweeps, n_tx)``: row ``r * n_sweeps + s`` is
    recording ``r``'s sweep ``s``.  The set is immutable, so the packed
    arrays always describe its members; a slice or a hand-built list
    of recordings is a plain sequence again.
    """

    tx_sector_ids: Tuple[int, ...]
    present: np.ndarray
    snr_db: np.ndarray
    rssi_dbm: np.ndarray

    @classmethod
    def pack(
        cls,
        recordings: Sequence[RecordedDirection],
        tx_sector_ids: Tuple[int, ...],
        present: np.ndarray,
        snr_db: np.ndarray,
        rssi_dbm: np.ndarray,
    ) -> "RecordingSet":
        members = tuple.__new__(cls, recordings)
        members.tx_sector_ids = tx_sector_ids
        members.present = present
        members.snr_db = snr_db
        members.rssi_dbm = rssi_dbm
        return members


def stack_sweeps(
    recordings: Sequence[RecordedDirection], tx_sector_ids: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every recording's sweeps, stacked in recording order, by column of
    ``tx_sector_ids``.

    Returns ``(n_sweeps, present, snr_db, rssi_dbm)``: each recording's
    sweep count, then the reports with one row per sweep.  A
    :class:`RecordingSet` swept in this id order hands over its packed
    arrays as they stand; any other sequence, or id order, gathers each
    recording's :meth:`~RecordedDirection.packed_sweeps`.
    """
    if (
        isinstance(recordings, RecordingSet)
        and recordings
        and tuple(tx_sector_ids) == recordings.tx_sector_ids
    ):
        n_sweeps = np.full(
            len(recordings), recordings.present.shape[0] // len(recordings), dtype=np.intp
        )
        return n_sweeps, recordings.present, recordings.snr_db, recordings.rssi_dbm
    n_sweeps = np.array([recording.n_sweeps for recording in recordings], dtype=np.intp)
    if not recordings:
        width = len(tx_sector_ids)
        empty = np.zeros((0, width))
        return n_sweeps, np.zeros((0, width), dtype=bool), empty, empty.copy()
    packed = [recording.packed_sweeps(tx_sector_ids) for recording in recordings]
    present, snr_db, rssi_dbm = (np.concatenate(arrays) for arrays in zip(*packed))
    return n_sweeps, present, snr_db, rssi_dbm


def record_directions(
    testbed: Testbed,
    environment: Environment,
    azimuths_deg: Sequence[float],
    elevations_deg: Sequence[float],
    n_sweeps: int,
    rng: np.random.Generator,
) -> Sequence[RecordedDirection]:
    """Record full 34-sector sweeps over a grid of path directions.

    The DUT rides the rotation head (with its mechanical tilt errors),
    the reference device listens quasi-omni at the environment's far
    endpoint.  Per-sweep slow fading is modelled as a common SNR offset
    drawn from the environment's shadowing spread.  Every recording's
    sweeps are one :meth:`~MeasurementModel.observe_sweeps` call — the
    same draws, in the same order, as one fade draw then one scalar
    ``observe`` per sector for each sweep, which is the random stream
    every committed experiment output is pinned to.  The head draws
    from a generator of its own, so the true SNRs are all computed
    first.  The reports of that one call stay packed in the returned
    :class:`RecordingSet`.
    """
    head = RotationHead(np.random.default_rng(rng.integers(2**31)))
    tx_ids = testbed.tx_sector_ids
    directions: List[Tuple[float, float]] = []
    truths: List[np.ndarray] = []
    for elevation in elevations_deg:
        head.set_tilt(float(elevation))
        orientations = []
        for azimuth in azimuths_deg:
            head.set_azimuth(-float(azimuth))
            orientations.append(head.orientation())
        truths.append(
            sweep_snr_matrix(
                environment,
                testbed.dut_antenna,
                testbed.dut_codebook,
                tx_ids,
                orientations,
                testbed.ref_antenna,
                testbed.ref_codebook.rx_sector.weights,
                budget=testbed.budget,
            )
        )
        directions += [(wrap_azimuth(float(az)), float(elevation)) for az in azimuths_deg]
    if not directions:
        return []

    true_snr = np.concatenate(truths)
    reports = testbed.measurement_model.observe_sweeps(
        np.repeat(true_snr, n_sweeps, axis=0),
        testbed.budget.noise_floor_dbm,
        rng,
        fade_std_db=environment.shadowing_std_db,
    )
    packed = (reports.reported, reports.snr_db, reports.rssi_dbm)
    for array in packed:
        array.flags.writeable = False
    arrays = [
        array.reshape(len(directions), n_sweeps, len(tx_ids)) for array in packed
    ]
    recorded_ids = tuple(tx_ids)
    return RecordingSet.pack(
        [
            RecordedDirection(
                azimuth_deg=azimuth,
                elevation_deg=elevation,
                true_snr_db=true_snr[index].copy(),
                tx_sector_ids=recorded_ids,
                present=arrays[0][index],
                snr_db=arrays[1][index],
                rssi_dbm=arrays[2][index],
            )
            for index, (azimuth, elevation) in enumerate(directions)
        ],
        recorded_ids,
        *packed,
    )


def observe_probes(
    model: MeasurementModel,
    truth: np.ndarray,
    sector_ids: Sequence[int],
    noise_floor_dbm: float,
    rng: np.random.Generator,
) -> List[ProbeMeasurement]:
    """The reported probes of one sweep over ``sector_ids`` (true SNRs ``truth``).

    One ``observe_frames`` block: the same draws, in the same order, as
    one scalar ``observe`` per probe.
    """
    reports = model.observe_frames(truth, noise_floor_dbm, rng)
    return [
        ProbeMeasurement(sector_id, snr_db, rssi_dbm)
        for sector_id, reported, snr_db, rssi_dbm in zip(
            sector_ids,
            reports.reported.tolist(),
            reports.snr_db.tolist(),
            reports.rssi_dbm.tolist(),
        )
        if reported
    ]


def random_subsweep(
    sweep: Dict[int, ProbeMeasurement],
    all_sector_ids: Sequence[int],
    n_probes: int,
    rng: np.random.Generator,
) -> List[ProbeMeasurement]:
    """The paper's offline compressive emulation.

    Draw ``n_probes`` random sectors from the full training set, then
    keep the measurements that actually exist for them in the recorded
    sweep — probed-but-unreported sectors stay missing, as they would
    in a live reduced sweep.
    """
    chosen = random_probe_columns(len(all_sector_ids), n_probes, rng)
    probe_ids = [all_sector_ids[index] for index in chosen]
    return [sweep[sector_id] for sector_id in probe_ids if sector_id in sweep]


def random_probe_columns(
    n_sectors: int, n_probes: int, rng: np.random.Generator
) -> np.ndarray:
    """The probe draw of :func:`random_subsweep` as column indices.

    Exactly one ``rng.choice`` call with the same arguments, so the
    batched experiment loops consume the stream identically to the
    scalar ones and pick the same probes for the same seed.
    """
    if n_probes > n_sectors:
        raise ValueError("cannot probe more sectors than exist")
    return rng.choice(n_sectors, size=n_probes, replace=False)


def pack_probe_trials(
    trials: Sequence[Sequence[ProbeMeasurement]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pad a list of scalar probe trials into batch-API arrays.

    Returns ``(sector_ids, snr_db, rssi_dbm, mask)``, each of shape
    ``(n_trials, max_len)``, with each trial's measurements in their
    original order and padded slots masked out (ids 0, values NaN) —
    the argument layout of ``AngleEstimator.estimate_batch`` and
    ``CompressiveSectorSelector.select_batch``.
    """
    n_trials = len(trials)
    width = max((len(trial) for trial in trials), default=0)
    sector_ids = np.zeros((n_trials, width), dtype=np.intp)
    snr = np.full((n_trials, width), np.nan)
    rssi = np.full((n_trials, width), np.nan)
    mask = np.zeros((n_trials, width), dtype=bool)
    for row, trial in enumerate(trials):
        for column, measurement in enumerate(trial):
            sector_ids[row, column] = measurement.sector_id
            snr[row, column] = measurement.snr_db
            rssi[row, column] = measurement.rssi_dbm
            mask[row, column] = True
    return sector_ids, snr, rssi, mask


#: Figure 7's box and whisker percentiles as quantiles, converted the
#: way ``np.percentile`` converts them.
_BOX_QUANTILES = np.true_divide((25, 75, 0.5, 99.5), 100).tolist()


@dataclass(frozen=True)
class BoxStats:
    """Median / 50 % box / 99 % whiskers, as drawn in Figure 7."""

    median: float
    box_low: float
    box_high: float
    whisker_low: float
    whisker_high: float
    n_samples: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "BoxStats":
        """All five statistics from one sort of ``samples``.

        Bit-identical to ``np.median`` and to ``np.percentile(values,
        (25, 75, 0.5, 99.5))`` (numpy's default linear method): each
        quantile takes numpy's steps — virtual index ``(n - 1) q``, its
        floor and the next index (both the last one at or past the
        end), then numpy's two-sided interpolation — in the same IEEE
        operations, on the sorted values instead of a partition.  The
        median is numpy's mean of the middle one or two.  Any NaN makes
        every statistic NaN, as it does in numpy.
        """
        if not isinstance(samples, np.ndarray):
            samples = list(samples)
        values = np.sort(np.asarray(samples, dtype=float))
        n = values.size
        if n == 0:
            raise ValueError("cannot summarize an empty sample set")
        if np.isnan(values[-1]):
            return cls(np.nan, np.nan, np.nan, np.nan, np.nan, n)
        quantiles = []
        for quantile in _BOX_QUANTILES:
            virtual = (n - 1) * quantile
            below = -1 if virtual >= n - 1 else math.floor(virtual)
            low = float(values[below])
            high = float(values[below + 1 if below >= 0 else -1])
            gamma = virtual - below
            step = high - low
            quantiles.append(
                high - step * (1 - gamma) if gamma >= 0.5 else low + step * gamma
            )
        middle = n // 2
        if n % 2:
            median = float(values[middle])
        else:
            median = (float(values[middle - 1]) + float(values[middle])) / 2
        box_low, box_high, whisker_low, whisker_high = quantiles
        return cls(
            median=median,
            box_low=box_low,
            box_high=box_high,
            whisker_low=whisker_low,
            whisker_high=whisker_high,
            n_samples=int(n),
        )


# ----------------------------------------------------------------------
# Columnar summaries of a call's TrialRecords.
#
# Each applies, per row, the IEEE operations the per-record loops it
# replaced applied, in the same row order — so summaries are
# bit-identical — but over whole columns.
# ----------------------------------------------------------------------


def estimate_errors(records, recordings) -> Tuple[np.ndarray, np.ndarray]:
    """Absolute azimuth and elevation errors of the rows that estimated.

    Rows that fell back carry no estimate and are skipped.
    """
    estimated = records.estimated
    owner = records.recording[estimated]
    truth_az = np.array([recording.azimuth_deg for recording in recordings], dtype=float)
    truth_el = np.array([recording.elevation_deg for recording in recordings], dtype=float)
    azimuth = np.abs(azimuth_difference(records.azimuth[estimated], truth_az[owner]))
    elevation = np.abs(records.elevation[estimated] - truth_el[owner])
    return azimuth, elevation


def selected_snr_db(records, recordings, tx_ids: Sequence[int]) -> np.ndarray:
    """Each row's true SNR at the sector it selected (``tx_ids`` columns)."""
    tx = np.asarray(tx_ids, dtype=np.intp)
    sector = records.sector
    lookup = np.full(max(int(tx.max(initial=0)), int(sector.max(initial=0))) + 1, -1)
    lookup[tx] = np.arange(tx.size)
    column = lookup[np.clip(sector, 0, None)]
    unknown = (sector < 0) | (column < 0)
    if unknown.any():
        raise KeyError(int(sector[unknown][0]))
    if not len(records):
        return np.empty(0)
    true_snr = np.stack([recording.true_snr_db for recording in recordings])
    return true_snr[records.recording, column]


def snr_losses(records, recordings, tx_ids: Sequence[int]) -> np.ndarray:
    """Per row: the recording's optimal SNR minus the selected sector's."""
    optimal = np.array([recording.optimal_snr_db() for recording in recordings])
    return optimal[records.recording] - selected_snr_db(records, recordings, tx_ids)


def modal_counts(records, n_recordings: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per recording: the trials that picked its most common sector, and
    all its trials."""
    sizes = np.bincount(records.recording, minlength=n_recordings)
    modal = np.zeros(n_recordings, dtype=np.int64)
    if len(records):
        sector = records.sector - records.sector.min()
        stride = int(sector.max()) + 1
        keys, counts = np.unique(
            records.recording * stride + sector, return_counts=True
        )
        np.maximum.at(modal, keys // stride, counts)
    return modal, sizes
