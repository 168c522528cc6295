"""Trial rows as arrays, from the probe draw to the argmax (tier 1).

Three layers keep a recording's trials as arrays, and each must be
invisible in the results:

* **Planner** — a designer's ``design_positions`` draws a recording's
  ``n`` rows at once: the same subsets, the same generator state and
  the same telemetry as ``n`` sequential ``design`` calls, and a plan
  drawn that way equals one drawn a trial at a time.
  The ``random`` designer's rows come from one ``rng.integers`` call
  and equal ``n`` sequential ``rng.choice`` calls, the numpy draw it
  replays.
* **Kernel** — rows of equal usable-probe count run in stacks of
  ``_STACK_ROWS``; the result equals the naive reference of
  :mod:`tests.reference_kernel` with ``==`` across stack boundaries,
  mixed counts, NaN-winner rows, all-NaN rows and one-row batches.
  A stack's ``(R, M, K)`` arrays live in per-thread scratch buffers:
  a warm call allocates less than one stack, threads sharing an
  estimator get the serial results, and a buffer grown for one probe
  count serves a smaller one.
* **Pool workers** — :func:`repro.runtime.shm.borrow` builds a view
  only for the entries its body reads.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import estimator as estimator_module
from repro.core.estimator import AngleEstimator
from repro.core.policy import CompressivePolicy
from repro.core.probes import RandomProbeDesigner, clear_design_cache
from repro.experiments.common import RecordedDirection
from repro.geometry import AngularGrid
from repro.measurement import PatternTable
from repro.obs import quality as quality_mod
from repro.obs.quality import QualityContext
from repro.runtime import shm
from repro.runtime.policy import PolicyContext
from repro.runtime.registry import available_probe_designers, build_probe_designer
from repro.runtime.runner import ScenarioRunner

from tests.reference_kernel import ReferenceEstimator, probe_value

DESIGNERS = sorted(available_probe_designers())


@pytest.fixture(autouse=True)
def _fresh_design_cache():
    clear_design_cache()
    yield
    clear_design_cache()


def _telemetry(body):
    """``body()`` under a quality-telemetry session; its value and histograms."""
    session = obs.ObsSession(quality=True)
    previous = obs.activate(session)
    token = quality_mod.activate_quality(QualityContext(policy="css", environment="lab"))
    try:
        value = body()
    finally:
        quality_mod.deactivate_quality(token)
        obs.deactivate(previous)
    return value, session.metrics.snapshot()["histograms"]


# ----------------------------------------------------------------------
# Planner: a recording's draws at once.
# ----------------------------------------------------------------------


class TestDesignPositions:
    @pytest.mark.parametrize("name", DESIGNERS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_rows_at_once_equal_sequential_designs(self, name, data, pattern_table, testbed):
        all_ids = list(testbed.tx_sector_ids)
        pool_size = data.draw(st.integers(min_value=2, max_value=len(all_ids)))
        pool = all_ids[:pool_size]
        n_probes = data.draw(st.integers(min_value=1, max_value=pool_size))
        n_rows = data.draw(st.integers(min_value=0, max_value=12))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))

        def draw(at_once):
            designer = build_probe_designer(name, pattern_table)
            rng = np.random.default_rng(seed)

            def body():
                if at_once:
                    positions = designer.design_positions(n_probes, n_rows, pool, rng)
                    assert positions.shape == (n_rows, n_probes)
                    return [[pool[p] for p in row] for row in positions.tolist()]
                return [designer.design(n_probes, pool, rng) for _ in range(n_rows)]

            rows, histograms = _telemetry(body)
            return rows, rng.bit_generator.state, histograms

        assert draw(at_once=True) == draw(at_once=False)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_rows_equal_sequential_choice_calls(self, data):
        pool_size = data.draw(st.integers(min_value=1, max_value=128))
        n_probes = data.draw(
            st.sampled_from([1, pool_size]) | st.integers(min_value=1, max_value=pool_size)
        )
        n_rows = data.draw(st.integers(min_value=0, max_value=300))
        seed = data.draw(st.integers(min_value=0, max_value=2**63))
        pool = list(range(100, 100 + pool_size))
        batched, sequential = np.random.default_rng(seed), np.random.default_rng(seed)
        positions = RandomProbeDesigner().design_positions(n_probes, n_rows, pool, batched)
        expected = np.array(
            [sequential.choice(pool_size, n_probes, replace=False) for _ in range(n_rows)]
        ).reshape(n_rows, n_probes)
        assert positions.dtype == np.intp
        assert np.array_equal(positions, expected)
        assert batched.bit_generator.state == sequential.bit_generator.state
        assert batched.random() == sequential.random()

    def test_random_rows_beyond_floyd_range_raise(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="Floyd"):
            RandomProbeDesigner().design_positions(2, 3, list(range(10_001)), rng)


class _OneTrialAtATime:
    """A policy's round-0 draw without its per-recording entry."""

    def __init__(self, policy):
        self._policy = policy
        self.name = policy.name

    def probes_for_round(self, round_index, pool, rng):
        return self._policy.probes_for_round(round_index, pool, rng)


def _recordings(tx_ids, n_recordings, n_sweeps, seed):
    rng = np.random.default_rng(seed)
    shape = (n_sweeps, len(tx_ids))
    return [
        RecordedDirection(
            azimuth_deg=0.0,
            elevation_deg=0.0,
            true_snr_db=rng.uniform(0.0, 20.0, len(tx_ids)),
            tx_sector_ids=tuple(tx_ids),
            present=rng.random(shape) > 0.2,
            snr_db=rng.uniform(-5.0, 25.0, shape),
            rssi_dbm=rng.uniform(-80.0, -50.0, shape),
        )
        for _ in range(n_recordings)
    ]


class TestPlanner:
    @pytest.fixture(scope="class")
    def context(self, testbed):
        return PolicyContext(testbed=testbed, cache={})

    @pytest.mark.parametrize("name", DESIGNERS)
    @pytest.mark.parametrize("subsamples", [1, 3])
    def test_plan_at_once_equals_plan_per_trial(self, name, subsamples, context, testbed):
        tx_ids = list(testbed.tx_sector_ids)
        recordings = _recordings(tx_ids, n_recordings=3, n_sweeps=4, seed=11)
        policy = CompressivePolicy(context, n_probes=9, probe_design=name)

        def plan(policy_like):
            rng = np.random.default_rng(5)
            session = obs.ObsSession(quality=True)
            previous = obs.activate(session)
            try:
                blocks = ScenarioRunner().plan_trials(
                    policy_like, recordings, tx_ids, rng, subsamples
                )
            finally:
                obs.deactivate(previous)
            metrics = session.metrics.snapshot()
            return blocks, rng.bit_generator.state, metrics

        at_once, state, metrics = plan(policy)
        per_trial, state_per_trial, metrics_per_trial = plan(_OneTrialAtATime(policy))
        assert state == state_per_trial
        assert metrics["histograms"] == metrics_per_trial["histograms"]
        assert metrics["counters"] == metrics_per_trial["counters"]
        assert any(key.startswith("planner_probes_requested") for key in metrics["histograms"])
        assert len(at_once) == len(per_trial) == len(recordings)
        for got, expected in zip(at_once, per_trial):
            assert got.recording_index == expected.recording_index
            for field in (
                "sector_ids",
                "snr_db",
                "rssi_dbm",
                "mask",
                "sweep_indices",
                "subsample_indices",
                "probes_requested",
            ):
                mine, theirs = getattr(got, field), getattr(expected, field)
                assert mine.dtype == theirs.dtype, field
                assert np.array_equal(mine, theirs, equal_nan=True), field


# ----------------------------------------------------------------------
# Kernel: stacked equal-count passes against the reference.
# ----------------------------------------------------------------------

N_SECTORS = 7


def _nan_table() -> PatternTable:
    """Seven sectors on a 5 × 2 grid: sector 5 is NaN at a few grid
    points (rows probing it can have a NaN argmax winner, so the finite
    retake runs) and sector 6 is NaN everywhere (an all-NaN surface)."""
    grid = AngularGrid(np.linspace(-20.0, 20.0, 5), np.array([0.0, 10.0]))
    rng = np.random.default_rng(3)
    patterns = {s: rng.uniform(-10.0, 12.0, grid.shape) for s in range(N_SECTORS)}
    patterns[5][0, 0] = patterns[5][1, 2] = np.nan
    patterns[6][:] = np.nan
    return PatternTable(grid, patterns)


NAN_TABLE = _nan_table()
FUSIONS = ("product", "snr", "rssi")
DOMAINS = ("linear", "db")
KERNELS = {
    (fusion, domain): (
        AngleEstimator(NAN_TABLE, fusion=fusion, domain=domain),
        ReferenceEstimator(NAN_TABLE, fusion=fusion, domain=domain),
    )
    for fusion in FUSIONS
    for domain in DOMAINS
}


@st.composite
def stacked_batches(draw):
    """Up to 3 stacks' worth of rows, widths 2–6, mostly-usable slots.

    Rows differ in usable count (masked and NaN slots), so groups of
    equal count interleave; some batches repeat one row's sectors (a
    fixed design, which shares one unit matrix per stack).
    """
    n_rows = draw(st.integers(min_value=1, max_value=3 * estimator_module._STACK_ROWS + 2))
    width = draw(st.integers(min_value=2, max_value=6))
    fixed = draw(st.booleans())
    sector_rows = st.lists(
        st.integers(min_value=0, max_value=N_SECTORS - 1),
        min_size=width,
        max_size=width,
        unique=True,
    )
    first = draw(sector_rows)
    ids = [first if fixed else draw(sector_rows) for _ in range(n_rows)]
    cells = st.lists(probe_value, min_size=width, max_size=width)
    snr = [draw(cells) for _ in range(n_rows)]
    rssi = [draw(cells) for _ in range(n_rows)]
    mask = [draw(st.lists(st.booleans(), min_size=width, max_size=width)) for _ in range(n_rows)]
    return np.array(ids), np.array(snr), np.array(rssi) - 60.0, np.array(mask)


def _same(got, expected) -> bool:
    """Estimate lists equal field by field, a NaN correlation equal to NaN."""
    def key(estimate):
        if estimate is None:
            return None
        return (
            estimate.azimuth_deg,
            estimate.elevation_deg,
            estimate.n_probes_used,
            estimate.grid_index,
            np.float64(estimate.correlation).tobytes(),
        )

    return [key(e) for e in got] == [key(e) for e in expected]


class TestStackedKernel:
    @pytest.mark.parametrize("fusion", FUSIONS)
    @pytest.mark.parametrize("domain", DOMAINS)
    @settings(max_examples=60, deadline=None)
    @given(batch=stacked_batches())
    def test_stacked_rows_equal_reference(self, fusion, domain, batch):
        estimator, reference = KERNELS[(fusion, domain)]
        ids, snr, rssi, mask = batch
        slots = [
            [
                (int(ids[t, j]), float(snr[t, j]), float(rssi[t, j]))
                for j in range(ids.shape[1])
                if mask[t, j]
            ]
            for t in range(ids.shape[0])
        ]
        assert _same(
            estimator.estimate_batch(ids, snr_db=snr, rssi_dbm=rssi, mask=mask),
            reference.estimate_rows(slots),
        )

    def test_nan_winner_and_all_nan_rows_take_the_finite_retake(self):
        """Hand-built rows that hit both NaN paths inside one stack."""
        estimator, reference = KERNELS[("snr", "linear")]
        ids = np.array([[5, 0, 1], [6, 2, 3], [0, 1, 2], [6, 5, 4], [5, 1, 3]])
        snr = np.tile([3.0, 9.0, 1.0], (5, 1))
        estimates = estimator.estimate_batch(ids, snr_db=snr)
        slots = [[(int(s), float(v), 0.0) for s, v in zip(row, values)]
                 for row, values in zip(ids, snr)]
        assert _same(estimates, reference.estimate_rows(slots))
        # Row 1 probes the all-NaN sector: index 0, like np.argmax.
        assert estimates[1].grid_index == 0
        assert np.isnan(estimates[1].correlation)
        # Row 0's surface is NaN at grid point 0 only: the retake
        # lands on a finite point.
        assert np.isfinite(estimates[0].correlation)

    def test_quality_histograms_match_one_row_calls(self):
        """Peak ratios are recorded per row, in trial order per count."""
        estimator, _ = KERNELS[("product", "linear")]
        rng = np.random.default_rng(8)
        n_rows = 3 * estimator_module._STACK_ROWS + 1
        ids = np.array([rng.choice(5, 4, replace=False) for _ in range(n_rows)])
        snr = rng.uniform(-5.0, 25.0, ids.shape)
        rssi = rng.uniform(-80.0, -50.0, ids.shape)
        mask = rng.random(ids.shape) > 0.25

        def stacked():
            return estimator.estimate_fused_arrays(ids, snr, rssi, mask)

        def row_by_row():
            return [
                estimator.estimate_fused_arrays(
                    ids[t : t + 1], snr[t : t + 1], rssi[t : t + 1], mask[t : t + 1]
                )
                for t in range(n_rows)
            ]

        batch, batch_histograms = _telemetry(stacked)
        rows, row_histograms = _telemetry(row_by_row)
        for field, values in zip(batch, zip(*rows)):
            assert np.array_equal(field, np.concatenate(values), equal_nan=True)
        assert batch_histograms == row_histograms
        assert any(key.startswith("quality_peak_ratio") for key in batch_histograms)


def _full_batch(table, n_rows, width, seed):
    """``n_rows`` rows of ``width`` distinct random sectors, all usable."""
    rng = np.random.default_rng(seed)
    ids = np.array([rng.choice(table.sector_ids, width, replace=False) for _ in range(n_rows)])
    return ids, rng.uniform(-5.0, 25.0, ids.shape), rng.uniform(-80.0, -50.0, ids.shape)


class TestScratchBuffers:
    def test_a_warm_stacked_call_allocates_less_than_one_stack(self, pattern_table):
        estimator = AngleEstimator(pattern_table)
        batch = _full_batch(pattern_table, 64, 34, seed=1)
        estimator.estimate_fused_arrays(*batch)  # grows this thread's scratch
        tracemalloc.start()
        try:
            estimator.estimate_fused_arrays(*batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stack_bytes = estimator_module._STACK_ROWS * 34 * estimator.search_grid.n_points * 8
        assert peak < stack_bytes

    def test_threads_sharing_an_estimator_get_the_serial_results(self, pattern_table):
        estimator = AngleEstimator(pattern_table)
        batches = [
            _full_batch(pattern_table, 24, width, seed)
            for seed, width in enumerate((34, 6, 20, 12))
        ]
        serial = [estimator.estimate_fused_arrays(*batch) for batch in batches]
        orders = [np.roll(np.arange(len(batches)), shift).tolist() for shift in range(4)]
        barrier = threading.Barrier(len(orders), timeout=30)
        results = {}

        def work(order):
            barrier.wait()
            results[tuple(order)] = [
                (index, estimator.estimate_fused_arrays(*batches[index]))
                for _ in range(5)
                for index in order
            ]

        # More threads than cores, switching often: a buffer shared
        # between threads would be overwritten mid-stack.
        threads = [threading.Thread(target=work, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == len(orders)
        for runs in results.values():
            for index, got in runs:
                for mine, theirs in zip(got, serial[index]):
                    assert np.array_equal(mine, theirs, equal_nan=True)

    def test_a_buffer_grown_for_34_probes_serves_6(self, pattern_table):
        estimator = AngleEstimator(pattern_table)
        reference = ReferenceEstimator(pattern_table)
        pairs = []
        for width in (34, 6):
            ids, snr, rssi = _full_batch(
                pattern_table, 2 * estimator_module._STACK_ROWS + 1, width, seed=width
            )
            slots = [
                [(int(s), float(a), float(b)) for s, a, b in zip(*row)]
                for row in zip(ids, snr, rssi)
            ]
            assert _same(
                estimator.estimate_batch(ids, snr_db=snr, rssi_dbm=rssi),
                reference.estimate_rows(slots),
            )
            pairs.append(estimator_module._SCRATCH.pair)
        assert pairs[0] is pairs[1]


# ----------------------------------------------------------------------
# Pool workers: only the entries a task reads are mapped.
# ----------------------------------------------------------------------


class TestBorrow:
    def test_borrow_builds_only_the_views_the_body_reads(self, monkeypatch):
        publisher = shm.KernelPublisher()
        arrays = {f"{index}.ids": np.arange(6, dtype=np.intp) + index for index in range(5)}
        built = []
        original = shm._view

        def counting_view(buffer, entry):
            built.append(entry)
            return original(buffer, entry)

        monkeypatch.setattr(shm, "_view", counting_view)
        try:
            manifest = publisher.publish("blocks", arrays)

            def body(views):
                assert set(views) == set(arrays) and len(views) == len(arrays)
                first = views["1.ids"]
                assert views["1.ids"] is first  # built once
                assert not first.flags.writeable
                with pytest.raises(ValueError):
                    first[0] = 0
                return first.copy(), np.array_equal(views["3.ids"], arrays["3.ids"])

            copied, third_equal = shm.borrow(manifest, body)
            assert np.array_equal(copied, arrays["1.ids"]) and third_equal
            assert built == [manifest.entries["1.ids"], manifest.entries["3.ids"]]
            # The mapping is released once the body returns: nothing is
            # cached, and nothing is retired (no view outlived the body).
            assert manifest.segment not in shm._ATTACHED
            assert all(segment.name != manifest.segment for segment in shm._RETIRED)
        finally:
            publisher.close()
