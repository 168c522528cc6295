"""Properties of the hash-verified JSONL journal (``repro.runtime.journal``).

The checkpoint store and the run registry are both thin callers of
:class:`Journal`, so the crash model is pinned here once, on the
primitive alone:

* a journal torn at any byte offset replays exactly the entries whose
  lines survived whole, and the torn tail is physically removed;
* a single flipped bit anywhere drops the entry it lands in and every
  entry after it — never more, and never a changed entry;
* a crash between a group's write and its fsync keeps every synced
  entry;
* reopen/append/rewrite sequences replay what was written;
* a rewrite interrupted before or after ``os.replace`` leaves the old or
  the new journal whole.
"""

import hashlib
import os
import stat
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.journal import Journal, read_header

_REAL_FSYNC = os.fsync
_HEADER = {"format": "test-journal", "version": 1}

# Bodies are JSON objects of short ASCII strings and integers: no value
# with two encodings, so any changed byte changes the parsed entry.
_TEXT = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:-_ ",
    max_size=12,
)
_BODY = st.dictionaries(
    st.sampled_from(["key", "payload", "run", "to", "n"]),
    st.one_of(_TEXT, st.integers(-1000, 10**6)),
    max_size=3,
)
_GROUPS = st.lists(st.lists(_BODY, min_size=1, max_size=3), min_size=1, max_size=3)


def _write(path: Path, groups, durable: bool = False) -> list:
    journal = Journal(path, _HEADER, durable=durable)
    for group in groups:
        journal.append(group)
    journal.close()
    return [body for group in groups for body in group]


def _line_ends(data: bytes) -> list:
    """The end offset (exclusive) of every line, header first."""
    return [offset + 1 for offset, byte in enumerate(data) if byte == ord("\n")]


def _replay(path: Path, durable: bool = False) -> Journal:
    journal = Journal(path, _HEADER, durable=durable)
    journal.close()
    return journal


class TestFraming:
    def test_lines_are_the_registry_format_byte_for_byte(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, [[{"to": "queued", "run": "r1"}]])
        digest = hashlib.sha256(b'{"run":"r1","to":"queued"}').hexdigest()
        assert path.read_bytes() == (
            b'{"format": "test-journal", "version": 1}\n'
            b'{"event": {"run": "r1", "to": "queued"}, "sha256": "'
            + digest.encode()
            + b'"}\n'
        )

    def test_read_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        assert read_header(path) is None
        _write(path, [[{"n": 1}]])
        assert read_header(path) == _HEADER
        path.write_bytes(b"\xff\xfe not json\n")
        assert read_header(path) is None
        path.write_bytes(b"[1, 2]\n")
        assert read_header(path) is None

    def test_another_header_starts_fresh(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, [[{"n": 1}]])
        journal = Journal(path, {"format": "test-journal", "version": 2})
        journal.close()
        assert journal.replayed == [] and not journal.tail_dropped
        assert read_header(path) == {"format": "test-journal", "version": 2}
        assert len(path.read_bytes().splitlines()) == 1


class TestTornTail:
    @settings(max_examples=10, deadline=None)
    @given(groups=_GROUPS)
    def test_truncation_at_every_offset_keeps_the_whole_lines(self, groups):
        with tempfile.TemporaryDirectory() as scratch:
            source = Path(scratch) / "full.jsonl"
            bodies = _write(source, groups)
            data = source.read_bytes()
            ends = _line_ends(data)
            torn = Path(scratch) / "torn.jsonl"
            for offset in range(len(data) + 1):
                torn.write_bytes(data[:offset])
                journal = Journal(torn, _HEADER)
                if offset < ends[0]:  # the header itself is torn
                    assert journal.replayed == []
                    kept = ends[0]
                else:
                    intact = sum(1 for end in ends[1:] if end <= offset)
                    assert journal.replayed == bodies[:intact], offset
                    kept = ends[intact]
                    assert journal.tail_dropped == (offset > kept)
                # The tail is gone before anything is appended after it.
                assert torn.read_bytes() == data[:kept]
                journal.append([{"after": "tear"}])
                journal.close()
                again = _replay(torn)
                assert again.replayed[-1] == {"after": "tear"}
                assert not again.tail_dropped


def _bit_flips(data: bytes):
    for offset in range(len(data)):
        for bit in range(8):
            flipped = bytearray(data)
            flipped[offset] ^= 1 << bit
            yield offset, bytes(flipped)


class TestBitFlips:
    @settings(max_examples=4, deadline=None)
    @given(groups=_GROUPS)
    def test_a_flip_drops_its_entry_and_the_rest(self, groups):
        with tempfile.TemporaryDirectory() as scratch:
            source = Path(scratch) / "full.jsonl"
            bodies = _write(source, groups)
            data = source.read_bytes()
            ends = _line_ends(data)
            target = Path(scratch) / "flipped.jsonl"
            for offset, flipped in _bit_flips(data):
                target.write_bytes(flipped)
                # Index of the line holding the flipped byte: 0 is the
                # header, k the k-th entry.
                line = sum(1 for end in ends if end <= offset)
                journal = _replay(target)
                expected = bodies[: max(0, line - 1)]
                assert journal.replayed == expected, (offset, flipped)

    def test_a_key_digit_flip_is_caught(self, tmp_path):
        path = tmp_path / "j.jsonl"
        bodies = [
            {"key": f"0123456789abcdef:0:{block}", "payload": "cGF5bG9hZA=="}
            for block in range(4)
        ]
        _write(path, [bodies])
        data = bytearray(path.read_bytes())
        flip = data.index(b"abcdef:0:3") + len("abcdef:0:")
        data[flip] ^= 0x01  # "...:0:3" -> "...:0:2"
        path.write_bytes(bytes(data))
        journal = _replay(path)
        assert journal.replayed == bodies[:3]
        assert journal.tail_dropped

    def test_a_high_bit_flip_in_the_last_line_keeps_the_rest(self, tmp_path):
        path = tmp_path / "j.jsonl"
        bodies = [{"run": f"r{index}", "to": "done"} for index in range(5)]
        _write(path, [bodies])
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x80  # not UTF-8 any more
        path.write_bytes(bytes(data))
        journal = _replay(path)
        assert journal.replayed == bodies[:4]
        assert journal.tail_dropped
        assert path.read_bytes() == bytes(data[: _line_ends(bytes(data))[4]])


class _PowerLoss(OSError):
    pass


class TestCrashBeforeSync:
    @settings(max_examples=20, deadline=None)
    @given(groups=_GROUPS, draw=st.integers(0, 2**16), keep=st.floats(0.0, 1.0))
    def test_synced_groups_survive_a_torn_unsynced_one(
        self, tmp_path_factory, groups, draw, keep
    ):
        path = tmp_path_factory.mktemp("crash") / "j.jsonl"
        # fsync 1 is the header's, fsync 1 + g the g-th group's.
        failing = 2 + draw % len(groups)
        synced_sizes = []

        def fsync(fd):
            if len(synced_sizes) + 1 == failing:
                raise _PowerLoss("power lost before the group reached disk")
            _REAL_FSYNC(fd)
            synced_sizes.append(os.fstat(fd).st_size)

        with mock.patch("repro.runtime.journal.os.fsync", fsync):
            journal = Journal(path, _HEADER, durable=True)
            with pytest.raises(_PowerLoss):
                for group in groups:
                    journal.append(group)
            journal.close()
        synced = [body for group in groups[: failing - 2] for body in group]
        data = path.read_bytes()
        cut = synced_sizes[-1] + int(keep * (len(data) - synced_sizes[-1]))
        path.write_bytes(data[:cut])
        replayed = _replay(path, durable=True).replayed
        assert replayed[: len(synced)] == synced
        everything = [body for group in groups for body in group]
        assert replayed == everything[: len(replayed)]

    def test_append_is_one_write_and_one_fsync(self, tmp_path):
        calls = []

        def fsync(fd):
            calls.append(fd)
            _REAL_FSYNC(fd)

        with mock.patch("repro.runtime.journal.os.fsync", fsync):
            journal = Journal(tmp_path / "j.jsonl", _HEADER, durable=True)
            assert len(calls) == 1  # the header
            assert journal.append([{"n": 1}, {"n": 2}, {"n": 3}]) == 3
            assert len(calls) == 2
            assert journal.append([]) == 0  # nothing to sync
            assert len(calls) == 2
            journal.close()
            lax = Journal(tmp_path / "lax.jsonl", _HEADER)
            lax.append([{"n": 1}])
            lax.close()
        assert len(calls) == 2


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.lists(_BODY, max_size=3)),
        st.tuples(st.just("rewrite"), st.lists(_BODY, max_size=3)),
        st.tuples(st.just("reopen"), st.just([])),
    ),
    max_size=8,
)


class TestReopenSequences:
    @settings(max_examples=25, deadline=None)
    @given(ops=_OPS, durable=st.booleans())
    def test_every_reopen_replays_what_was_written(
        self, tmp_path_factory, ops, durable
    ):
        path = tmp_path_factory.mktemp("seq") / "j.jsonl"
        journal = Journal(path, _HEADER, durable=durable)
        model = []
        for op, bodies in ops:
            if op == "append":
                journal.append(bodies)
                model.extend(bodies)
            elif op == "rewrite":
                journal.rewrite(bodies)
                model = list(bodies)
            else:
                journal.close()
                journal = Journal(path, _HEADER, durable=durable)
                assert journal.replayed == model
                assert not journal.tail_dropped
        journal.close()
        assert _replay(path).replayed == model
        assert not path.with_suffix(".tmp").exists()


class TestInterruptedRewrite:
    def _journal(self, path: Path) -> Journal:
        journal = Journal(path, _HEADER, durable=True)
        journal.append([{"n": index} for index in range(5)])
        return journal

    def test_crash_before_replace_keeps_the_old_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = self._journal(path)
        with mock.patch(
            "repro.runtime.journal.os.replace", side_effect=_PowerLoss("crash")
        ):
            with pytest.raises(_PowerLoss):
                journal.rewrite([{"n": 4}])
        # The old journal is whole and still the one being appended to.
        assert _replay(path).replayed == [{"n": index} for index in range(5)]
        journal.append([{"n": 5}])
        journal.close()
        assert _replay(path).replayed == [{"n": index} for index in range(6)]

    def test_crash_after_replace_has_the_new_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = self._journal(path)
        calls = []

        def fsync(fd):
            calls.append(fd)
            if len(calls) == 2:  # the directory's, after os.replace
                raise _PowerLoss("crash")
            _REAL_FSYNC(fd)

        with mock.patch("repro.runtime.journal.os.fsync", fsync):
            with pytest.raises(_PowerLoss):
                journal.rewrite([{"n": 4}])
        journal.close()
        assert _replay(path).replayed == [{"n": 4}]
        assert not path.with_suffix(".tmp").exists()

    def test_durable_rewrite_syncs_the_file_and_the_directory(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = self._journal(path)
        synced = []

        def fsync(fd):
            synced.append(os.fstat(fd).st_mode)
            _REAL_FSYNC(fd)

        with mock.patch("repro.runtime.journal.os.fsync", fsync):
            journal.rewrite([{"n": 0}])
        journal.close()
        assert [stat.S_ISDIR(mode) for mode in synced] == [False, True]
