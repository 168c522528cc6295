"""Trial results as columns, from the kernel to the figure (tier 1).

Every layer that turned per-row objects into arrays must be invisible
in the results, and each is checked against a per-row reference:

* **Build** — the stacked selector's one vectorized build equals the
  naive :class:`tests.reference_kernel.ReferenceSelector` part by part
  (fallbacks with and without usable probes, NaN/±inf and tied SNRs,
  consecutive calls), error message and
  selection state included; ``FullSweepPolicy.select_batch`` equals
  :class:`~repro.core.selector.SectorSweepSelector` row by row.
* **Planner** — one draw and one gather per call equal the former
  per-recording planner (frozen below): the same views, generator
  state, planner telemetry and selections.
* **Summaries** — the columnar figure summaries equal frozen copies of
  the per-record loops they replaced, over random records.
* **Journal v4** — raw selection rows round-trip; a v3 journal or a
  payload of the wrong row count is recomputed, and a payload never
  runs code.
"""

import base64
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.compressive import CompressiveSectorSelector
from repro.core.estimator import AngleEstimate
from repro.core.measurements import ProbeMeasurement
from repro.core.policy import CompressivePolicy, FullSweepPolicy
from repro.core.probes import clear_design_cache
from repro.core.selector import (
    SELECTION_DTYPE,
    SectorSweepSelector,
    SelectionResult,
    Selections,
)
from repro.channel.environment import conference_room
from repro.experiments.common import (
    RecordedDirection,
    RecordingSet,
    estimate_errors,
    record_directions,
    snr_losses,
    stack_sweeps,
)
from repro.experiments.fig8 import stability, stability_of_selections
from repro.experiments.fig11 import goodputs
from repro.geometry.angles import azimuth_difference
from repro.link.throughput import ThroughputModel
from repro.obs import quality as quality_mod
from repro.obs.quality import QualityContext
from repro.runtime import CheckpointStore, PolicySpec, ScenarioRunner, ScenarioSpec
from repro.runtime.journal import Journal
from repro.runtime.policy import PolicyContext
from repro.runtime.registry import available_probe_designers
from repro.runtime.trials import TrialBlock, TrialPlan, TrialRecords

from tests.reference_kernel import ReferenceSelector, small_table

TABLE = small_table()

# ----------------------------------------------------------------------
# Build: the stacked selector's vectorized build against the reference.
# ----------------------------------------------------------------------

#: SNR readings that tie, are non-finite, or are ordinary.
_READING = st.one_of(
    st.sampled_from([1.0, 2.0, 2.0, -3.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(min_value=-30.0, max_value=30.0),
)
#: Known sectors 0–5 (mostly), unknown ids sometimes: a row can be left
#: with no usable probe, with one, or with enough to estimate.
_SECTOR = st.one_of(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([6, 40]),
)
_SLOT = st.tuples(_SECTOR, _READING, _READING, st.booleans())


@st.composite
def _parts(draw, max_parts=4):
    """Equal-width parts of 0–5 rows each."""
    width = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(_SLOT, min_size=width, max_size=width)
    return [
        draw(st.lists(row, min_size=0, max_size=5))
        for _ in range(draw(st.integers(min_value=1, max_value=max_parts)))
    ]


def _arrays(rows, width):
    ids = np.array([[slot[0] for slot in row] for row in rows], dtype=np.intp)
    snr = np.array([[slot[1] for slot in row] for row in rows], dtype=float)
    rssi = np.array([[slot[2] for slot in row] for row in rows], dtype=float) - 60.0
    mask = np.array([[slot[3] for slot in row] for row in rows], dtype=bool)
    shape = (len(rows), width)
    return ids.reshape(shape), snr.reshape(shape), rssi.reshape(shape), mask.reshape(shape)


def _slots(row):
    return [(sector, snr, rssi - 60.0) for sector, snr, rssi, valid in row if valid]


def _reference_part(reference, rows):
    """The reference's selections for one part, or the error message of
    its first row that raised (state left as it stood)."""
    results = []
    for index, row in enumerate(rows):
        slots = _slots(row)
        try:
            results.append(reference.select(slots))
        except ValueError:
            usable = [s for s in slots if s[0] in reference.estimator.pattern_of]
            finite = reference.estimator.finite(usable)
            return (
                f"trial {index}: need at least two finite probe measurements "
                f"to correlate ({len(usable) - len(finite)} of {len(usable)} "
                f"were non-finite)"
            )
    return results


class TestVectorizedBuild:
    @settings(max_examples=120, deadline=None)
    @given(parts=_parts())
    def test_stacked_build_equals_reference_per_part(self, parts):
        width = max((len(row) for part in parts for row in part), default=1)
        arrays = [_arrays(part, width) for part in parts]
        selector = CompressiveSectorSelector(TABLE)
        expected = []
        error = None
        reference = ReferenceSelector(TABLE)
        for part in parts:
            reference.last_selection = 1
            got = _reference_part(reference, part)
            if isinstance(got, str):
                error = got
                break
            expected.extend(got)
        if error is None:
            selections = selector.select_fused_stacked(arrays)
            assert isinstance(selections, Selections)
            assert list(selections) == expected
            assert selector.last_selection == reference.last_selection
        else:
            with pytest.raises(ValueError) as raised:
                selector.select_fused_stacked(arrays)
            assert str(raised.value) == error
            assert selector.last_selection == reference.last_selection

    @settings(max_examples=120, deadline=None)
    @given(parts=_parts(max_parts=2))
    def test_consecutive_batches_thread_the_state(self, parts):
        """A second ``select_batch`` starts from the first one's state."""
        width = max((len(row) for part in parts for row in part), default=1)
        selector = CompressiveSectorSelector(TABLE)
        reference = ReferenceSelector(TABLE)
        for part in parts:
            expected = _reference_part(reference, part)
            if isinstance(expected, str):
                with pytest.raises(ValueError) as raised:
                    selector.select_batch(*_arrays(part, width))
                assert str(raised.value) == expected
                assert selector.last_selection == reference.last_selection
                return
            assert list(selector.select_batch(*_arrays(part, width))) == expected
            assert selector.last_selection == reference.last_selection

    def test_fallback_rows_at_part_starts_and_mid_part(self):
        """Rows without a usable probe keep their own part's selection."""
        nan = float("nan")
        ids = np.array([[2, 1], [3, 4], [1, 2], [5, 6]])
        snr = np.array([[5.0, 1.0], [nan, 2.0], [nan, nan], [1.0, 1.0]])
        mask = np.array([[True, False], [False, False], [False, False], [True, False]])
        parts = [
            (ids[:2], snr[:2], snr[:2] - 60.0, mask[:2]),
            (ids[2:], snr[2:], snr[2:] - 60.0, mask[2:]),
        ]
        selections = CompressiveSectorSelector(TABLE).select_fused_stacked(parts)
        # Part 0: sector 2 by fallback, then kept; part 1 starts from the
        # initial sector 1 again, then falls back to sector 5.
        assert selections.rows["sector"].tolist() == [2, 2, 1, 5]
        assert selections.rows["fallback"].all()


_KNOWN_SLOT = st.tuples(st.integers(min_value=0, max_value=63), _READING, st.booleans())


@st.composite
def _sweep_batches(draw):
    width = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(_KNOWN_SLOT, min_size=width, max_size=width)
    return width, draw(st.lists(row, min_size=0, max_size=6))


class TestFullSweepBatch:
    @settings(max_examples=150, deadline=None)
    @given(batches=st.lists(_sweep_batches(), min_size=1, max_size=2))
    def test_select_batch_equals_select_per_row(self, batches):
        batched = FullSweepPolicy(PolicyContext(testbed=None))
        scalar = SectorSweepSelector()
        for width, rows in batches:
            shape = (len(rows), width)
            ids = np.array([[s[0] for s in row] for row in rows], dtype=np.intp)
            snr = np.array([[s[1] for s in row] for row in rows], dtype=float)
            mask = np.array([[s[2] for s in row] for row in rows], dtype=bool)
            got = batched.select_batch(
                ids.reshape(shape), snr.reshape(shape), mask=mask.reshape(shape)
            )
            expected = [
                scalar.select(
                    [ProbeMeasurement(s[0], s[1], s[1] - 60.0) for s in row if s[2]]
                )
                for row in rows
            ]
            assert isinstance(got, Selections)
            assert list(got) == expected
            assert batched._last_selection == scalar.last_selection

    def test_ties_keep_the_first_and_nan_never_wins(self):
        nan, inf = float("nan"), float("inf")
        policy = FullSweepPolicy(PolicyContext(testbed=None))
        ids = np.array([[10, 11, 12], [10, 11, 12], [10, 11, 12], [10, 11, 12]])
        snr = np.array([[2.0, 2.0, 1.0], [nan, 5.0, 9.0], [1.0, nan, inf], [-inf, -inf, nan]])
        got = policy.select_batch(ids, snr)
        assert got.rows["sector"].tolist() == [10, 10, 12, 10]


# ----------------------------------------------------------------------
# Planner: the call-wide plan against the per-recording planner.
# ----------------------------------------------------------------------


def _gather_block(index, columns, requested, subsamples, id_row, present, snr, rssi):
    """One recording's block, as the per-recording planner gathered it."""
    n_trials = columns.shape[0]
    sweeps = np.arange(n_trials, dtype=np.intp) // subsamples
    rows = sweeps[:, np.newaxis]
    return (
        index, id_row[columns], snr[rows, columns], rssi[rows, columns],
        present[rows, columns], sweeps,
        np.arange(n_trials, dtype=np.intp) % subsamples, requested,
    )


def _per_recording_plan(policy, recordings, tx_ids, rng, subsamples):
    """The planner before one draw per call: one draw and gather per recording."""
    id_row = np.asarray(tx_ids, dtype=np.intp)
    pool = list(tx_ids)
    blocks = []
    with obs.span("plan.trials", policy=policy.name, recordings=len(recordings)):
        for index, recording in enumerate(recordings):
            present, snr, rssi = recording.packed_sweeps(tx_ids)
            n_trials = recording.n_sweeps * subsamples
            columns = policy.probe_positions(n_trials, pool, rng)
            requested = np.full(n_trials, columns.shape[1], dtype=np.intp)
            if obs.enabled():
                for count in requested.tolist():
                    obs.observe("planner_probes_requested", count)
            obs.inc("planner_trials_total", n_trials)
            blocks.append(
                _gather_block(
                    index, columns, requested, subsamples, id_row, present, snr, rssi
                )
            )
    return blocks


class _Looped:
    """Draws each trial's subset with its own ``rng.choice`` call (no
    designer), full-sweep selection over whatever it probed."""

    name = "p"

    def __init__(self):
        self._select = FullSweepPolicy(PolicyContext(testbed=None))

    def probe_positions(self, n_trials, pool, rng):
        rows = [rng.choice(len(pool), size=7, replace=False) for _ in range(n_trials)]
        return np.array(rows, dtype=np.intp).reshape(n_trials, 7)

    def reset(self):
        self._select.reset()

    def select_batch(self, sector_ids, snr_db, rssi_dbm=None, mask=None):
        return self._select.select_batch(sector_ids, snr_db, rssi_dbm, mask)


def _recordings(tx_ids, n_sweeps, seed):
    rng = np.random.default_rng(seed)
    recordings = []
    for count in n_sweeps:
        shape = (count, len(tx_ids))
        recordings.append(
            RecordedDirection(
                azimuth_deg=float(rng.uniform(-60.0, 60.0)),
                elevation_deg=0.0,
                true_snr_db=rng.uniform(0.0, 20.0, len(tx_ids)),
                tx_sector_ids=tuple(tx_ids),
                present=rng.random(shape) > 0.2,
                snr_db=rng.uniform(-5.0, 25.0, shape),
                rssi_dbm=rng.uniform(-80.0, -50.0, shape),
            )
        )
    return recordings


def _telemetry(body):
    session = obs.ObsSession(quality=True)
    previous = obs.activate(session)
    token = quality_mod.activate_quality(QualityContext(policy="p", environment="?"))
    try:
        value = body()
    finally:
        quality_mod.deactivate_quality(token)
        obs.deactivate(previous)
    snapshot = session.metrics.snapshot()
    return value, snapshot["counters"], snapshot["histograms"]


class TestCallWidePlan:
    @pytest.fixture(autouse=True)
    def _fresh_design_cache(self):
        clear_design_cache()
        yield
        clear_design_cache()

    @pytest.fixture(scope="class")
    def context(self, testbed):
        return PolicyContext(testbed=testbed, cache={})

    @pytest.mark.parametrize("name", sorted(available_probe_designers()) + ["looped"])
    @pytest.mark.parametrize("subsamples", [1, 2])
    def test_plan_equals_the_per_recording_planner(self, name, subsamples, context, testbed):
        tx_ids = list(testbed.tx_sector_ids)
        recordings = _recordings(tx_ids, n_sweeps=(3, 0, 2, 4), seed=21)

        def policy():
            if name == "looped":
                return _Looped()
            policy = CompressivePolicy(context, n_probes=9, probe_design=name)
            policy.name = "p"
            return policy

        def plan():
            rng = np.random.default_rng(8)
            runner = ScenarioRunner()
            return runner.plan_trials(policy(), recordings, tx_ids, rng, subsamples), rng

        def reference():
            rng = np.random.default_rng(8)
            return _per_recording_plan(policy(), recordings, tx_ids, rng, subsamples), rng

        (ours, ours_rng), counters, histograms = _telemetry(plan)
        clear_design_cache()
        (theirs, theirs_rng), ref_counters, ref_histograms = _telemetry(reference)
        assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state
        assert counters == ref_counters
        assert histograms == ref_histograms
        assert len(ours) == len(theirs) == len(recordings)
        assert ours.sector_ids.shape[1] == max(block[1].shape[1] for block in theirs)
        for block, (index, *arrays) in zip(ours, theirs):
            assert block.recording_index == index
            mine = (
                block.sector_ids, block.snr_db, block.rssi_dbm, block.mask,
                block.sweep_indices, block.subsample_indices, block.probes_requested,
            )
            for got, expected in zip(mine, arrays):
                assert got.dtype == expected.dtype
                assert got.shape == expected.shape
                assert np.array_equal(got, expected, equal_nan=True)

        # Evaluated, the padded plan selects what the blocks selected.
        evaluator = policy()
        with ScenarioRunner() as runner:
            records = runner.execute(evaluator, ours)
        expected = []
        for _, ids, snr, rssi, mask, *_ in theirs:
            evaluator.reset()
            expected.extend(evaluator.select_batch(ids, snr, rssi, mask))
        assert list(records.selections) == expected


#: Finite readings, ties included: a CSS row then raises only when it
#: has too few usable probes, and falls back instead.
_FINITE_SLOT = st.tuples(
    _SECTOR, st.sampled_from([1.0, 2.0, 2.0, -3.0]) | st.floats(-30.0, 30.0),
    st.floats(-30.0, 30.0), st.booleans() | st.just(False),
)


@st.composite
def _plans(draw):
    """A plan of 2–4 equal-width blocks of 0–5 rows, each row's mask
    random (all-False rows fall back)."""
    width = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(_FINITE_SLOT, min_size=width, max_size=width)
    blocks = []
    for index in range(draw(st.integers(min_value=2, max_value=4))):
        rows = draw(st.lists(row, min_size=0, max_size=5))
        ids, snr, rssi, mask = _arrays(rows, width)
        n_rows = len(rows)
        blocks.append(
            TrialBlock(
                recording_index=index, sector_ids=ids, snr_db=snr, rssi_dbm=rssi,
                mask=mask, sweep_indices=np.arange(n_rows, dtype=np.intp),
                subsample_indices=np.zeros(n_rows, dtype=np.intp),
                probes_requested=np.full(n_rows, width, dtype=np.intp),
            )
        )
    return TrialPlan.from_blocks(blocks)


def _threaded_reference(policy, plan):
    """The former plan mode: one reset, then ``select_batch`` per block
    in order, the state threading across block boundaries."""
    policy.reset()
    rows = [
        policy.select_batch(block.sector_ids, block.snr_db, block.rssi_dbm, block.mask).rows
        for block in plan
    ]
    return np.concatenate(rows)


class TestOneBlockPlan:
    """A loop whose state threads through every trial is a plan of one
    block: it selects what the former plan mode selected, bit for bit."""

    @pytest.mark.parametrize("name", ["css", "full-sweep"])
    @settings(max_examples=80, deadline=None)
    @given(plan=_plans())
    def test_one_block_equals_the_threaded_reference(self, name, plan):
        def policy():
            context = PolicyContext(testbed=None)
            if name == "css":
                return CompressivePolicy(context, pattern_table=TABLE)
            return FullSweepPolicy(context)

        one_block = plan.as_one_block()
        assert len(one_block) == 1
        for field in ("sector_ids", "snr_db", "rssi_dbm", "mask", "recording_indices"):
            assert getattr(one_block, field) is getattr(plan, field)
        expected = _threaded_reference(policy(), plan)
        with ScenarioRunner() as runner:
            records = runner.execute(policy(), one_block)
        assert records.selections.rows.tobytes() == expected.tobytes()
        assert np.array_equal(records.recording, plan.recording_indices)

    def test_full_sweep_plans_the_whole_pool_and_draws_nothing(self):
        tx_ids = [5, 9, 2, 7, 11]
        recordings = _recordings(tx_ids, n_sweeps=(3, 0, 2), seed=2)
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        policy = FullSweepPolicy(PolicyContext(testbed=None))
        plan = ScenarioRunner().plan_trials(policy, recordings, tx_ids, rng, 2)
        assert rng.bit_generator.state == state
        assert plan.n_rows == 10
        assert np.array_equal(plan.sector_ids, np.tile(tx_ids, (10, 1)))
        assert np.array_equal(plan.probes_requested, np.full(10, len(tx_ids)))


_PLAN_FIELDS = (
    "sector_ids", "snr_db", "rssi_dbm", "mask", "recording_indices",
    "sweep_indices", "subsample_indices", "probes_requested", "bounds",
    "block_recordings",
)


def _id_order(tx_ids, order):
    """``tx_ids`` in the recordings' order or another one."""
    ids = list(tx_ids)
    if order == "permuted":
        return list(np.random.default_rng(4).permutation(ids))
    if order == "subset":
        return ids[::3][::-1]
    if order == "unknown":
        return ids[:5] + [999, -1] + ids[5:9]
    return ids


class TestPackedRecordingSet:
    """``record_directions`` keeps its reports packed, and the planner's
    gather of that packed storage equals the per-recording gather."""

    @pytest.fixture(scope="class")
    def recorded(self, testbed):
        return record_directions(
            testbed, conference_room(6.0), [-40.0, -10.0, 15.0, 50.0], [0.0, 6.0], 3,
            np.random.default_rng(5),
        )

    def test_members_are_views_of_the_packed_arrays(self, recorded):
        assert isinstance(recorded, RecordingSet) and len(recorded) == 8
        packed = (recorded.present, recorded.snr_db, recorded.rssi_dbm)
        for index, recording in enumerate(recorded):
            rows = slice(3 * index, 3 * index + 3)
            own = (recording.present, recording.snr_db, recording.rssi_dbm)
            for mine, whole in zip(own, packed):
                assert np.shares_memory(mine, whole)
                assert np.array_equal(mine, whole[rows], equal_nan=True)
        for whole in packed:
            with pytest.raises(ValueError):
                whole[0, 0] = 0
        # A slice is a plain sequence: its gather is per recording.
        assert type(recorded[1:3]) is tuple

    @pytest.mark.parametrize("order", ["own", "permuted", "subset", "unknown"])
    def test_packed_gather_equals_the_per_recording_gather(self, recorded, testbed, order):
        ids = _id_order(recorded.tx_sector_ids, order)
        ours = stack_sweeps(recorded, ids)
        theirs = stack_sweeps(list(recorded), ids)
        reference = [recording.packed_sweeps(ids) for recording in recorded]
        assert np.array_equal(ours[0], [3] * len(recorded))
        for field, (got, expected) in enumerate(zip(ours, theirs)):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected, equal_nan=True)
            if field:
                stacked = np.concatenate([arrays[field - 1] for arrays in reference])
                assert np.array_equal(got, stacked, equal_nan=True)
        if order == "own":
            assert ours[1] is recorded.present  # handed over as it stands

        context = PolicyContext(testbed=testbed, cache={})
        plans = []
        for recordings in (recorded, list(recorded)):
            rng = np.random.default_rng(9)
            policy = CompressivePolicy(context, n_probes=min(9, len(ids)))
            with ScenarioRunner() as runner:
                plans.append(runner.plan_trials(policy, recordings, ids, rng, 2))
        for name in _PLAN_FIELDS:
            got, expected = (getattr(plan, name) for plan in plans)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected, equal_nan=True), name


# ----------------------------------------------------------------------
# Summaries: columns against the per-record loops they replaced.
# ----------------------------------------------------------------------

TX_IDS = [1, 2, 3, 5, 8, 13, 21]


@st.composite
def _records(draw):
    """Random records over a few recordings, rows in random order."""
    n_recordings = draw(st.integers(min_value=1, max_value=4))
    recordings = []
    for index in range(n_recordings):
        recordings.append(
            RecordedDirection(
                azimuth_deg=draw(st.floats(min_value=-180.0, max_value=180.0)),
                elevation_deg=draw(st.floats(min_value=-10.0, max_value=40.0)),
                true_snr_db=np.array(
                    draw(
                        st.lists(
                            st.floats(min_value=-20.0, max_value=40.0),
                            min_size=len(TX_IDS),
                            max_size=len(TX_IDS),
                        )
                    )
                ),
                tx_sector_ids=tuple(TX_IDS),
                present=np.zeros((0, len(TX_IDS)), dtype=bool),
                snr_db=np.zeros((0, len(TX_IDS))),
                rssi_dbm=np.zeros((0, len(TX_IDS))),
            )
        )
    # Every recording has at least one trial (the figures require it).
    owners = list(range(n_recordings)) + draw(
        st.lists(st.integers(min_value=0, max_value=n_recordings - 1), max_size=12)
    )
    owners = draw(st.permutations(owners))
    n_rows = len(owners)
    estimated = np.array(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    angle = st.floats(min_value=-400.0, max_value=400.0)
    selections = Selections.from_columns(
        np.array(
            draw(st.lists(st.sampled_from(TX_IDS), min_size=n_rows, max_size=n_rows))
        ),
        ~estimated,
        estimated,
        np.where(estimated, draw(st.lists(angle, min_size=n_rows, max_size=n_rows)), np.nan),
        np.where(estimated, draw(st.lists(angle, min_size=n_rows, max_size=n_rows)), np.nan),
    )
    records = TrialRecords(
        recording=np.array(owners, dtype=np.intp),
        sweep=np.zeros(n_rows, dtype=np.intp),
        subsample=np.zeros(n_rows, dtype=np.intp),
        probes_requested=np.full(n_rows, 14, dtype=np.intp),
        selections=selections,
    )
    return records, recordings


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestColumnarSummaries:
    @settings(max_examples=60, deadline=None)
    @given(case=_records())
    def test_fig7_errors_equal_the_record_loop(self, case):
        records, recordings = case
        azimuth_errors, elevation_errors = [], []
        for record in records:
            estimate = record.result.estimate
            if estimate is None:
                continue
            recording = recordings[record.recording_index]
            azimuth_errors.append(
                abs(azimuth_difference(estimate.azimuth_deg, recording.azimuth_deg))
            )
            elevation_errors.append(abs(estimate.elevation_deg - recording.elevation_deg))
        azimuth, elevation = estimate_errors(records, recordings)
        assert _bits(azimuth) == _bits(azimuth_errors)
        assert _bits(elevation) == _bits(elevation_errors)

    @settings(max_examples=60, deadline=None)
    @given(case=_records())
    def test_fig8_stability_equals_the_record_loop(self, case):
        records, recordings = case
        groups = [[] for _ in recordings]
        for record in records:
            groups[record.recording_index].append(record.result.sector_id)
        expected = float(np.mean([stability_of_selections(g) for g in groups]))
        assert _bits(stability(records, len(recordings))) == _bits(expected)

    @settings(max_examples=60, deadline=None)
    @given(case=_records())
    def test_fig9_losses_equal_the_record_loop(self, case):
        records, recordings = case
        column_of = {sector_id: column for column, sector_id in enumerate(TX_IDS)}
        expected = [
            recordings[record.recording_index].optimal_snr_db()
            - float(
                recordings[record.recording_index].true_snr_db[
                    column_of[record.result.sector_id]
                ]
            )
            for record in records
        ]
        losses = snr_losses(records, recordings, TX_IDS)
        assert _bits(losses) == _bits(expected)
        assert _bits(np.mean(losses)) == _bits(np.mean(expected))

    @settings(max_examples=60, deadline=None)
    @given(case=_records(), n_probes=st.sampled_from([4, 14, 34]))
    def test_fig11_goodputs_equal_the_record_loop(self, case, n_probes):
        records, recordings = case
        model = ThroughputModel()
        expected = []
        for index, recording in enumerate(recordings):
            selections = [
                record.result.sector_id
                for record in records
                if record.recording_index == index
            ]
            series = [
                recording.true_snr_db[TX_IDS.index(sector_id)] for sector_id in selections
            ]
            expected.append(model.expected_goodput_gbps(series, n_probes, selections))
        got = goodputs(model, records, recordings, TX_IDS, n_probes)
        assert _bits(got) == _bits(expected)

    def test_an_unknown_sector_raises(self):
        records = TrialRecords(
            recording=np.zeros(1, dtype=np.intp),
            sweep=np.zeros(1, dtype=np.intp),
            subsample=np.zeros(1, dtype=np.intp),
            probes_requested=np.zeros(1, dtype=np.intp),
            selections=Selections.from_columns(np.array([4]), np.array([True])),
        )
        recording = _recordings(TX_IDS, n_sweeps=(1,), seed=1)[0]
        with pytest.raises(KeyError):
            snr_losses(records, [recording], TX_IDS)

    def test_fig8_needs_a_selection_per_recording(self):
        records = TrialRecords(
            recording=np.zeros(1, dtype=np.intp),
            sweep=np.zeros(1, dtype=np.intp),
            subsample=np.zeros(1, dtype=np.intp),
            probes_requested=np.zeros(1, dtype=np.intp),
            selections=Selections.from_columns(np.array([1]), np.array([True])),
        )
        with pytest.raises(ValueError, match="at least one selection"):
            stability(records, 2)


# ----------------------------------------------------------------------
# Selections and journal v4.
# ----------------------------------------------------------------------

_RESULTS = st.lists(
    st.builds(
        SelectionResult,
        sector_id=st.integers(min_value=0, max_value=63),
        fallback=st.booleans(),
        estimate=st.one_of(
            st.none(),
            st.builds(
                AngleEstimate,
                st.floats(min_value=-180.0, max_value=180.0),
                st.floats(min_value=-90.0, max_value=90.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.integers(min_value=2, max_value=34),
                st.one_of(st.none(), st.integers(min_value=0, max_value=5000)),
            ),
        ),
    ),
    max_size=6,
)


class TestSelectionsAndJournal:
    def test_the_row_layout_is_fixed_little_endian_50_bytes(self):
        assert SELECTION_DTYPE.itemsize == 50
        assert not SELECTION_DTYPE.isalignedstruct
        for name in SELECTION_DTYPE.names:
            assert SELECTION_DTYPE.fields[name][0].str[0] in ("<", "|")

    @settings(max_examples=60, deadline=None)
    @given(results=_RESULTS)
    def test_results_round_trip_through_rows_pickle_and_journal(self, results, tmp_path_factory):
        selections = Selections.from_results(results)
        assert list(selections) == results
        assert list(pickle.loads(pickle.dumps(selections))) == results
        assert [selections[i] for i in range(-len(results), 0)] == results
        assert not selections.rows.flags.writeable
        path = tmp_path_factory.mktemp("journal") / "ck.jsonl"
        store = CheckpointStore(path, "digest", 7)
        store.put("policy", 0, 0, results)
        store.close()
        resumed = CheckpointStore(path, "digest", 7, resume=True)
        assert list(resumed.get("policy", 0, 0)) == results
        resumed.close()

    def test_a_one_row_block_is_one_short_line(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.jsonl", "digest", 7)
        store.put("policy", 0, 0, [SelectionResult(sector_id=5)])
        store.close()
        entry = (tmp_path / "ck.jsonl").read_text().splitlines()[1]
        payload = json.loads(entry)["event"]["payload"]
        assert len(base64.b64decode(payload)) == 50
        assert len(payload) == 4 * math.ceil(50 / 3)

    def test_a_payload_never_runs_code(self, tmp_path):
        ran = []

        class Exploit:
            def __reduce__(self):
                return ran.append, ("pwned",)

        path = tmp_path / "ck.jsonl"
        header = {"format": "repro-checkpoint", "version": 4, "spec_digest": "d", "seed": 1}
        journal = Journal(path, header)
        for block, padding in enumerate((b"", b"x" * 7)):
            journal.append(
                [
                    {
                        "key": CheckpointStore.entry_key("policy", 0, block),
                        "payload": base64.b64encode(
                            pickle.dumps(Exploit()) + padding
                        ).decode(),
                    }
                ]
            )
        journal.close()
        store = CheckpointStore(path, "d", 1, resume=True)
        assert store.restored == 2
        for block in range(2):
            served = store.get("policy", 0, block)
            assert served is None or isinstance(served, Selections)
        store.close()
        assert ran == []


def _journal_spec() -> ScenarioSpec:
    return ScenarioSpec(
        scenario="policy-eval",
        seed=2017,
        policies=(PolicySpec("css", {"n_probes": 14}), PolicySpec("full-sweep", {})),
        params={"azimuth_step_deg": 30.0, "distance_m": 6.0, "n_sweeps": 3},
    )


class TestJournalRecompute:
    @pytest.fixture(scope="class")
    def clean(self, testbed):
        with ScenarioRunner() as runner:
            return runner.run(_journal_spec())

    def test_a_v3_journal_is_stale_and_recomputed(self, clean, tmp_path):
        spec = _journal_spec()
        path = tmp_path / "ck.jsonl"
        header = {
            "format": "repro-checkpoint", "version": 3,
            "spec_digest": spec.digest(), "seed": spec.seed,
        }
        journal = Journal(path, header)
        journal.append(
            [
                {
                    "key": CheckpointStore.entry_key(spec.policies[0].key(), 0, 0),
                    "payload": base64.b64encode(pickle.dumps([1, 2, 3])).decode(),
                }
            ]
        )
        journal.close()
        with ScenarioRunner(checkpoint=path, resume=True) as runner:
            outcome = runner.run(spec)
        assert outcome.manifest.result_sha256 == clean.manifest.result_sha256
        assert outcome.manifest.health["checkpoint_hits"] == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_wrong_row_count_is_a_miss(self, clean, tmp_path, jobs):
        spec = _journal_spec()
        path = tmp_path / "ck.jsonl"
        with ScenarioRunner(checkpoint=path) as runner:
            first = runner.run(spec)
        assert first.manifest.result_sha256 == clean.manifest.result_sha256
        blocks = first.manifest.health["blocks"]
        # Rewrite block 0 of the first call with one row too many.
        store = CheckpointStore(path, spec.digest(), spec.seed, resume=True)
        key = CheckpointStore.entry_key(spec.policies[0].key(), 0, 0)
        rows = store.get(spec.policies[0].key(), 0, 0)
        entries = {
            body["key"]: body for body in store._journal.replayed
        }
        store.close()
        entries[key] = {
            "key": key,
            "payload": base64.b64encode(rows.rows.tobytes() * 2).decode(),
        }
        rewritten = Journal(
            path,
            {"format": "repro-checkpoint", "version": 4,
             "spec_digest": spec.digest(), "seed": spec.seed},
        )
        rewritten.rewrite(entries.values())
        rewritten.close()
        with ScenarioRunner(jobs=jobs, checkpoint=path, resume=True) as runner:
            outcome = runner.run(spec)
        assert outcome.manifest.result_sha256 == clean.manifest.result_sha256
        assert outcome.manifest.health["checkpoint_hits"] == blocks - 1
