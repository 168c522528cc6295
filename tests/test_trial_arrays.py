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
* **Kernel** — a batch's maps are two GEMMs, and a row keeps the dense
  argmax only when its top-two gap certifies it; the result equals
  the naive reference of :mod:`tests.reference_kernel` with ``==`` on
  batches built to tie exactly (duplicated pattern rows, repeated ids
  in a row, flat grid edges) and on NaN rows.  A row's outputs are
  the same alone, at any position and at any block size, the
  certificate forced off changes no bit, the reported correlation is
  the full map's value at the winner to 1e-13, and threads sharing an
  estimator get the serial results.
"""

import sys
import threading

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
# Kernel: the certified dense pass against the reference.
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


def _tie_table() -> PatternTable:
    """Seven finite sectors on a 6 × 3 grid built to tie exactly.

    Sector 1 duplicates sector 0's pattern, the top elevation row is
    flat in azimuth for every sector (a pole: one direction, many grid
    points), and azimuth columns 1 and 4 are equal.  So rows probing
    sectors 0 and 1 alike, rows whose peak lands on the pole and rows
    whose peak lands on either twin column all have exact ties.
    """
    grid = AngularGrid(np.linspace(-25.0, 25.0, 6), np.array([-10.0, 0.0, 10.0]))
    rng = np.random.default_rng(11)
    patterns = {}
    for sector in range(N_SECTORS):
        values = rng.uniform(-10.0, 12.0, grid.shape)
        values[2, :] = values[2, 0]
        values[:, 4] = values[:, 1]
        patterns[sector] = values
    patterns[1] = patterns[0].copy()
    return PatternTable(grid, patterns)


NAN_TABLE = _nan_table()
TIE_TABLE = _tie_table()
TABLES = {"nan": NAN_TABLE, "ties": TIE_TABLE}
FUSIONS = ("product", "snr", "rssi")
DOMAINS = ("linear", "db")
KERNELS = {
    (table, fusion, domain): (
        AngleEstimator(TABLES[table], fusion=fusion, domain=domain),
        ReferenceEstimator(TABLES[table], fusion=fusion, domain=domain),
    )
    for table in TABLES
    for fusion in FUSIONS
    for domain in DOMAINS
}


@st.composite
def tied_batches(draw):
    """Batches of 1–12 rows, widths 2–12, built to force exact ties.

    Rows may repeat a sector id (two readings of one pattern row), may
    repeat an earlier row outright, and carry NaN readings and masked
    slots; a row probing only sectors 0 and 1 of the tie table has an
    exactly flat map up to rounding.
    """
    n_rows = draw(st.integers(min_value=1, max_value=12))
    width = draw(st.integers(min_value=2, max_value=12))
    sector_rows = st.lists(
        st.integers(min_value=0, max_value=N_SECTORS - 1), min_size=width, max_size=width
    )
    cells = st.lists(probe_value, min_size=width, max_size=width)
    masks = st.lists(
        st.integers(min_value=0, max_value=5).map(bool), min_size=width, max_size=width
    )
    ids, snr, rssi, mask = [], [], [], []
    for _ in range(n_rows):
        if ids and draw(st.integers(min_value=0, max_value=3)) == 0:
            copied = draw(st.integers(min_value=0, max_value=len(ids) - 1))
            row = (ids[copied], snr[copied], rssi[copied], mask[copied])
        else:
            row = (draw(sector_rows), draw(cells), draw(cells), draw(masks))
        for column, value in zip((ids, snr, rssi, mask), row):
            column.append(value)
    return np.array(ids), np.array(snr), np.array(rssi) - 60.0, np.array(mask)


def _slots(batch):
    ids, snr, rssi, mask = batch
    return [
        [
            (int(ids[t, j]), float(snr[t, j]), float(rssi[t, j]))
            for j in range(ids.shape[1])
            if mask[t, j]
        ]
        for t in range(ids.shape[0])
    ]


def _key(estimate):
    if estimate is None:
        return None
    return (
        estimate.azimuth_deg,
        estimate.elevation_deg,
        estimate.n_probes_used,
        estimate.grid_index,
        np.float64(estimate.correlation).tobytes(),
    )


def _same(got, expected) -> bool:
    """Estimate lists equal field by field, a NaN correlation equal to NaN."""
    return [_key(e) for e in got] == [_key(e) for e in expected]


def _arrays_equal(got, expected) -> bool:
    return all(
        np.array_equal(mine, theirs, equal_nan=True) for mine, theirs in zip(got, expected)
    )


KERNEL_CASES = [
    (table, fusion, domain) for table in TABLES for fusion in FUSIONS for domain in DOMAINS
]


class TestStackedKernel:
    @pytest.mark.parametrize("fusion", FUSIONS)
    @pytest.mark.parametrize("domain", DOMAINS)
    @settings(max_examples=60, deadline=None)
    @given(batch=tied_batches(), table=st.sampled_from(sorted(TABLES)))
    def test_stacked_rows_equal_reference(self, fusion, domain, batch, table):
        estimator, reference = KERNELS[(table, fusion, domain)]
        ids, snr, rssi, mask = batch
        assert _same(
            estimator.estimate_batch(ids, snr_db=snr, rssi_dbm=rssi, mask=mask),
            reference.estimate_rows(_slots(batch)),
        )

    def test_nan_winner_and_all_nan_rows_take_the_finite_retake(self):
        """Hand-built rows that hit both NaN paths inside one batch."""
        estimator, reference = KERNELS[("nan", "snr", "linear")]
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
        """Peak ratios are recorded per row, in trial order."""
        estimator, _ = KERNELS[("nan", "product", "linear")]
        rng = np.random.default_rng(8)
        n_rows = 13
        ids = np.array([rng.choice(5, 4, replace=False) for _ in range(n_rows)])
        snr = rng.uniform(-5.0, 25.0, ids.shape)
        rssi = rng.uniform(-80.0, -50.0, ids.shape)
        mask = rng.random(ids.shape) > 0.25

        def batched():
            return estimator.estimate_fused_arrays(ids, snr, rssi, mask)

        def row_by_row():
            return [
                estimator.estimate_fused_arrays(
                    ids[t : t + 1], snr[t : t + 1], rssi[t : t + 1], mask[t : t + 1]
                )
                for t in range(n_rows)
            ]

        batch, batch_histograms = _telemetry(batched)
        rows, row_histograms = _telemetry(row_by_row)
        for field, values in zip(batch, zip(*rows)):
            assert np.array_equal(field, np.concatenate(values), equal_nan=True)
        assert batch_histograms == row_histograms
        assert any(key.startswith("quality_peak_ratio") for key in batch_histograms)


class TestCertifiedKernel:
    @settings(max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(KERNEL_CASES),
        batch=tied_batches(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_a_row_is_the_same_alone_anywhere_and_at_any_batch_size(
        self, case, batch, seed
    ):
        """Outputs are a pure function of the row: alone (padded, or
        without its masked slots), shuffled into another position, or
        split into dense blocks of any size."""
        estimator, _ = KERNELS[case]
        whole = estimator.estimate_fused_arrays(*batch)
        n_rows = batch[0].shape[0]
        for t in range(n_rows):
            row = [field[t : t + 1] for field in whole]
            alone = estimator.estimate_fused_arrays(*(part[t : t + 1] for part in batch))
            assert _arrays_equal(row, alone)
            kept = batch[3][t]
            compact = estimator.estimate_fused_arrays(
                *(part[t : t + 1, kept] for part in batch[:3])
            )
            assert _arrays_equal(row, compact)
        order = np.random.default_rng(seed).permutation(n_rows)
        shuffled = estimator.estimate_fused_arrays(*(part[order] for part in batch))
        assert _arrays_equal([field[order] for field in whole], shuffled)
        for block_rows in (1, 2, 5):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(estimator_module, "_BLOCK_ROWS", block_rows)
                assert _arrays_equal(estimator.estimate_fused_arrays(*batch), whole)

    @settings(max_examples=80, deadline=None)
    @given(case=st.sampled_from(KERNEL_CASES), batch=tied_batches())
    def test_the_certificate_forced_off_changes_nothing(self, case, batch):
        """Every row on the exact path gives the certified run's bits,
        whether no gap is wide enough or no row is short enough."""
        estimator, _ = KERNELS[case]
        certified = estimator.estimate_fused_arrays(*batch)
        for name, value in (("_CERTIFIED_GAP", np.inf), ("_CERTIFIED_MAX_PROBES", 1)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(estimator_module, name, value)
                assert _arrays_equal(estimator.estimate_fused_arrays(*batch), certified)

    @settings(max_examples=80, deadline=None)
    @given(case=st.sampled_from(KERNEL_CASES), batch=tied_batches())
    def test_the_correlation_is_the_full_map_value_at_the_winner(self, case, batch):
        estimator, reference = KERNELS[case]
        n_probes, best_index, best_corr = estimator.estimate_fused_arrays(*batch)
        for t, slots in enumerate(_slots(batch)):
            if best_index[t] < 0:
                continue
            surface, _ = reference.surface(slots)
            assert np.isclose(
                best_corr[t], surface[best_index[t]], rtol=1e-13, atol=0.0, equal_nan=True
            )

    def test_ties_take_the_exact_path_and_the_rest_are_certified(self, monkeypatch):
        estimator, reference = KERNELS[("ties", "product", "linear")]
        exact_rows = []
        original = AngleEstimator._exact_argmax

        def counting(self, rows, *rest):
            exact_rows.append(rows.tolist())
            return original(self, rows, *rest)

        monkeypatch.setattr(AngleEstimator, "_exact_argmax", counting)
        rng = np.random.default_rng(4)
        ids = np.array([rng.choice(np.arange(2, N_SECTORS), 4, replace=False) for _ in range(8)])
        ids[2] = [0, 1, 0, 1]  # one pattern row four times: a flat map
        ids[5] = [3, 3, 3, 3]
        snr = rng.uniform(-5.0, 25.0, ids.shape)
        rssi = rng.uniform(-80.0, -50.0, ids.shape)
        batch = (ids, snr, rssi, np.ones(ids.shape, dtype=bool))
        got = estimator.estimate_batch(ids, snr_db=snr, rssi_dbm=rssi)
        assert _same(got, reference.estimate_rows(_slots(batch)))
        assert [0, 1, 0, 1] in exact_rows and [3, 3, 3, 3] in exact_rows
        assert len(exact_rows) < ids.shape[0]

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

        # More threads than cores, switching often: any state shared
        # between threads would be overwritten mid-call.
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
                assert _arrays_equal(got, serial[index])

    def test_real_table_rows_equal_reference(self, pattern_table):
        """The measured table's 35 sectors on its own grid, M from 6 to 34."""
        estimator = AngleEstimator(pattern_table)
        reference = ReferenceEstimator(pattern_table)
        for width in (6, 20, 34):
            ids, snr, rssi = _full_batch(pattern_table, 9, width, seed=width)
            slots = [
                [(int(s), float(a), float(b)) for s, a, b in zip(*row)]
                for row in zip(ids, snr, rssi)
            ]
            assert _same(
                estimator.estimate_batch(ids, snr_db=snr, rssi_dbm=rssi),
                reference.estimate_rows(slots),
            )


def _full_batch(table, n_rows, width, seed):
    """``n_rows`` rows of ``width`` distinct random sectors, all usable."""
    rng = np.random.default_rng(seed)
    ids = np.array([rng.choice(table.sector_ids, width, replace=False) for _ in range(n_rows)])
    return ids, rng.uniform(-5.0, 25.0, ids.shape), rng.uniform(-80.0, -50.0, ids.shape)
