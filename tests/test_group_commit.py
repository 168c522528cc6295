"""Group commit: the checkpoint journal's one-sync-per-chunk contract.

The runner journals a whole chunk of blocks per ``CheckpointStore.put``
— every entry written, then one flush and (durable) one fsync.  A crash
before that sync may tear anywhere inside the group, so the properties
pinned here are about tears at arbitrary byte offsets of journals
written as several multi-entry commits:

* reopening restores exactly the intact entries before the tear, and
  appends after the reopen stay readable;
* a run that dies between a group's write and its fsync, with the
  unsynced bytes then torn anywhere, resumes to the clean run's digest;
* a durable run syncs once per chunk plus the header, not per block.
"""

import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.runner as runner_module
from repro.core.selector import Selections
from repro.runtime import CheckpointStore, PolicySpec, ScenarioRunner, ScenarioSpec

_REAL_FSYNC = os.fsync

# Lists of groups; each group is the list of its blocks' (tiny) results:
# the selected sector ids of their rows.
_GROUPS = st.lists(
    st.lists(st.lists(st.integers(0, 9), max_size=2), min_size=1, max_size=2),
    min_size=1,
    max_size=3,
)


def _rows(*sectors):
    """A block's selections: one row per sector id, no estimate."""
    return Selections.from_columns(
        np.array(sectors, dtype=np.int64), np.zeros(len(sectors), dtype=bool)
    )


def _write_groups(path: Path, groups) -> int:
    """Journal ``groups`` as one put each; returns the entry count."""
    store = CheckpointStore(path, "digest-a", 7)
    block = 0
    for group in groups:
        indices = list(range(block, block + len(group)))
        store.put("policy", 0, indices, [_rows(*sectors) for sectors in group])
        block += len(group)
    store.close()
    return block


class TestTornGroups:
    @settings(max_examples=5, deadline=None)
    @given(groups=_GROUPS)
    def test_every_tear_restores_the_intact_prefix(self, groups):
        results = [entry for group in groups for entry in group]
        with tempfile.TemporaryDirectory() as scratch:
            source = Path(scratch) / "full.jsonl"
            assert _write_groups(source, groups) == len(results)
            data = source.read_bytes()
            # The end offset (exclusive) of every entry line.
            ends = [
                offset + 1
                for offset, byte in enumerate(data)
                if byte == ord("\n")
            ][1:]
            torn = Path(scratch) / "torn.jsonl"
            for offset in range(len(data) + 1):
                torn.write_bytes(data[:offset])
                intact = sum(1 for end in ends if end <= offset)
                store = CheckpointStore(torn, "digest-a", 7, resume=True)
                assert store.restored == intact, offset
                for block in range(len(results)):
                    expected = _rows(*results[block]) if block < intact else None
                    assert store.get("policy", 0, block) == expected
                # A group appended after the repair reads back whole.
                store.put("policy", 1, [0, 1], [_rows(40), _rows(41)])
                store.close()
                reopened = CheckpointStore(torn, "digest-a", 7, resume=True)
                assert reopened.restored == intact + 2
                assert reopened.get("policy", 1, 1) == _rows(41)
                reopened.close()

    def test_duplicate_blocks_in_a_group_are_written_once(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.jsonl", "digest-a", 7)
        store.put("policy", 0, [0, 1], [_rows(1), _rows(2)])
        store.put("policy", 0, [1, 2, 2], [_rows(20), _rows(3), _rows(30)])
        store.close()
        lines = (tmp_path / "ck.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 3
        resumed = CheckpointStore(tmp_path / "ck.jsonl", "digest-a", 7, resume=True)
        assert [resumed.get("policy", 0, b) for b in range(3)] == [
            _rows(1), _rows(2), _rows(3)
        ]
        resumed.close()


# policy-eval with 5 recordings x 100 sweeps per policy: 500 rows, so
# several chunks per execute call, for both a stacked policy (css) and
# a per-block one (full-sweep).
def _multi_chunk_spec() -> ScenarioSpec:
    return ScenarioSpec(
        scenario="policy-eval",
        seed=31,
        policies=(PolicySpec("css", {"n_probes": 14}), PolicySpec("full-sweep", {})),
        params={"azimuth_step_deg": 30.0, "distance_m": 6.0, "n_sweeps": 100},
    )


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """The clean run's digest and its durable journal's fsync count."""
    synced = []

    def fsync(fd):
        synced.append(fd)
        _REAL_FSYNC(fd)

    journal = tmp_path_factory.mktemp("clean") / "run.jsonl"
    with mock.patch("repro.runtime.checkpoint.os.fsync", fsync):
        with ScenarioRunner(checkpoint=journal, durable=True) as runner:
            digest = runner.run(_multi_chunk_spec()).manifest.result_sha256
    return digest, len(synced)


class _PowerLoss(OSError):
    pass


class TestCrashBeforeSync:
    @settings(max_examples=8, deadline=None)
    @given(draw=st.integers(0, 2**16), keep=st.floats(0.0, 1.0))
    def test_resume_after_a_torn_unsynced_group_matches_clean(
        self, clean_run, draw, keep
    ):
        clean_digest, n_syncs = clean_run
        assert n_syncs > 3  # header plus several groups
        # Any group's sync may be the one the power loss interrupts.
        failing_sync = 2 + draw % (n_syncs - 1)
        synced_sizes = []

        def fsync(fd):
            if len(synced_sizes) + 1 == failing_sync:
                raise _PowerLoss("power lost before the group reached disk")
            _REAL_FSYNC(fd)
            synced_sizes.append(os.fstat(fd).st_size)

        spec = _multi_chunk_spec()
        with tempfile.TemporaryDirectory() as scratch:
            journal = Path(scratch) / "run.jsonl"
            with mock.patch("repro.runtime.checkpoint.os.fsync", fsync):
                with ScenarioRunner(checkpoint=journal, durable=True) as runner:
                    with pytest.raises(_PowerLoss):
                        runner.run(spec)
            # Everything past the last completed sync may be lost or
            # torn anywhere: keep a random prefix of the unsynced group.
            data = journal.read_bytes()
            synced = synced_sizes[-1]
            assert len(data) > synced  # the group was written, not synced
            journal.write_bytes(data[: synced + int(keep * (len(data) - synced))])
            with ScenarioRunner(
                checkpoint=journal, resume=True, durable=True
            ) as runner:
                outcome = runner.run(spec)
        assert outcome.manifest.result_sha256 == clean_digest
        # Every entry synced before the loss was served, not recomputed.
        assert outcome.manifest.health["checkpoint_hits"] >= failing_sync - 2


class TestSyncsPerChunk:
    def test_durable_reduced_fig7_syncs_once_per_chunk(self, tmp_path):
        from repro.experiments.fig7 import Fig7Config, fig7_spec

        spec = fig7_spec(Fig7Config(
            probe_counts=(8, 20),
            lab_azimuth_step_deg=10.0,
            lab_elevation_step_deg=15.0,
            conference_azimuth_step_deg=10.0,
            n_sweeps=1,
            subsamples_per_sweep=1,
        ))
        synced = []

        def fsync(fd):
            synced.append(fd)
            _REAL_FSYNC(fd)

        journal = tmp_path / "fig7.jsonl"
        with mock.patch("repro.runtime.checkpoint.os.fsync", fsync):
            with ScenarioRunner(checkpoint=journal, durable=True) as runner:
                outcome = runner.run(spec)
        entries = [
            json.loads(line)["event"]["key"]
            for line in journal.read_text().splitlines()[1:]
        ]
        per_call = {}
        for key in entries:
            digest, call, _ = key.split(":")
            per_call[(digest, call)] = per_call.get((digest, call), 0) + 1
        # One-row blocks, fewer per call than the row budget: each
        # execute call is exactly one chunk.
        assert max(per_call.values()) <= runner_module.CHUNK_ROWS
        assert len(entries) == outcome.manifest.health["blocks"]
        assert len(synced) == 1 + len(per_call)
        assert len(synced) < len(entries)
