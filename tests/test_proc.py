"""The supervised child-process primitive (``repro.runtime.proc``).

Run processes and pool children are both :class:`Child` instances, so
the crash model is pinned here once:

* **Message boundaries** — a child killed before it reads a request,
  mid-handler, after it replied but before the parent read, or while
  it writes a reply: every Future resolves, with its reply or with
  :class:`ChildDied`, and none hangs.
* **No shared fds** — a sibling forked later holds no earlier child's
  pipe, so hanging up on a child makes it exit.
* **No orphans** — children die with a SIGKILLed parent, and a killed
  ``repro-bench run --jobs 2`` leaves no descendant and no
  ``/dev/shm`` segment behind.
"""

import glob
import os
import signal
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import shm
from repro.runtime.chaos import _all_children, _pool_children
from repro.runtime.proc import Child, ChildDied
from tests.test_service import _running, _survivors

#: Longest any Future may take to resolve; a hang fails the test.
_RESOLVE_S = 30.0

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _die() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _after_reply_die() -> None:
    """In the child: the next reply is written whole, then the child dies."""
    send = Connection.send

    def send_then_die(self, obj):
        send(self, obj)
        _die()

    Connection.send = send_then_die


def _mid_reply_die() -> None:
    """In the child: the next reply's frame is cut in half by a SIGKILL."""

    def torn(self, buf):
        data = bytes(buf)
        self._send(len(data).to_bytes(4, "big") + data[: len(data) // 2])
        _die()

    Connection._send_bytes = torn


def _script(request):
    """Test handler: ``(action, value)`` requests."""
    action, value = request
    if action == "raise":
        raise ValueError(value)
    if action == "die-mid-handler":
        _die()
    if action == "die-after-reply":
        _after_reply_die()
    if action == "die-mid-reply":
        _mid_reply_die()
        return bytes(1 << 20)
    return value


def _script_child() -> Child:
    return Child(lambda: _script)


def _outcome(future):
    """The reply, or the raised exception, of a resolved Future."""
    error = future.exception(timeout=_RESOLVE_S)
    return ("error", error) if error is not None else ("reply", future.result())


class TestMessageBoundaries:
    @settings(max_examples=20, deadline=None)
    @given(
        actions=st.lists(
            st.sampled_from(
                ["echo", "raise", "die-mid-handler", "die-after-reply", "die-mid-reply"]
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_every_future_resolves_with_its_reply_or_child_died(self, actions):
        child = _script_child()
        try:
            futures = [
                child.submit((action, index)) for index, action in enumerate(actions)
            ]
            dead = False
            for index, (action, future) in enumerate(zip(actions, futures)):
                kind, value = _outcome(future)
                if dead or action in ("die-mid-handler", "die-mid-reply"):
                    assert kind == "error" and isinstance(value, ChildDied), index
                    assert value.exitcode == -signal.SIGKILL
                    dead = True
                elif action == "raise":
                    assert kind == "error" and isinstance(value, ValueError)
                    assert value.args == (index,)
                else:
                    # A reply written before the death is still read.
                    assert (kind, value) == ("reply", index)
                    dead = dead or action == "die-after-reply"
            assert child.close() == (-signal.SIGKILL if dead else 0)
        finally:
            child.close()

    def test_a_request_unread_in_the_pipe_fails_with_child_died(self):
        child = _script_child()
        try:
            assert child.submit(("echo", 1)).result(_RESOLVE_S) == 1
            os.kill(child.pid, signal.SIGSTOP)  # the request stays unread
            future = child.submit(("echo", 2))
            os.kill(child.pid, signal.SIGKILL)
            error = future.exception(timeout=_RESOLVE_S)
            assert isinstance(error, ChildDied)
            assert error.exitcode == -signal.SIGKILL
            assert "SIGKILL" in str(error)
        finally:
            child.close()

    def test_a_request_to_a_dead_child_fails_instead_of_blocking(self):
        child = _script_child()
        try:
            os.kill(child.pid, signal.SIGKILL)
            raced = child.submit(("echo", 1))  # may beat the reaper
            assert isinstance(raced.exception(timeout=_RESOLVE_S), ChildDied)
            assert child.dead
            late = child.submit(("echo", 2))
            assert late.done()
            assert isinstance(late.exception(timeout=0), ChildDied)
            assert child.pending == 0
        finally:
            child.close()

    def test_a_kill_fails_every_unresolved_request(self):
        child = _script_child()
        try:
            gate = child.submit(("echo", 0))
            assert gate.result(_RESOLVE_S) == 0
            os.kill(child.pid, signal.SIGSTOP)
            futures = [child.submit(("echo", index)) for index in range(3)]
            assert child.pending == 3
            child.kill()
            for future in futures:
                assert isinstance(future.exception(timeout=_RESOLVE_S), ChildDied)
            assert child.pending == 0
        finally:
            child.close()


class _Noted:
    """Handler whose request waits for a note sent while it runs."""

    def __init__(self):
        self.notes = []
        self.noted = threading.Event()

    def message(self, message):
        if isinstance(message, str):
            self.notes.append(message)
            self.noted.set()

    def __call__(self, request):
        assert self.noted.wait(_RESOLVE_S)
        return list(self.notes)


class TestChildLifecycle:
    def test_a_note_reaches_the_child_while_a_request_runs(self):
        child = Child(_Noted)
        try:
            future = child.submit(("wait",))
            child.note("go")
            assert future.result(_RESOLVE_S) == ["go"]
        finally:
            assert child.close() == 0

    def test_close_reaps_the_child(self):
        child = _script_child()
        pid = child.pid
        assert child.submit(("echo", "x")).result(_RESOLVE_S) == "x"
        assert child.close() == 0
        assert child.dead
        assert not Path(f"/proc/{pid}").exists()  # no zombie either
        assert child.close() == 0  # idempotent

    def test_sigterm_kills_and_sigint_is_ignored(self):
        child = _script_child()
        try:
            os.kill(child.pid, signal.SIGINT)
            assert child.submit(("echo", 1)).result(_RESOLVE_S) == 1
            os.kill(child.pid, signal.SIGTERM)
            future = child.submit(("echo", 2))
            error = future.exception(timeout=_RESOLVE_S)
            assert isinstance(error, ChildDied)
            assert error.exitcode == -signal.SIGTERM
        finally:
            child.close()

    def test_a_later_sibling_holds_no_earlier_childs_pipe(self):
        first = _script_child()
        second = _script_child()
        try:
            # A reply means the second child is set up.
            assert second.submit(("echo", 0)).result(_RESOLVE_S) == 0
            pipe = os.readlink(f"/proc/self/fd/{first._conn.fileno()}")
            assert pipe.startswith("socket:")
            held = {
                os.readlink(fd) for fd in Path(f"/proc/{second.pid}/fd").iterdir()
            }
            assert pipe not in held
            # Hanging up on the first makes it exit while the second lives.
            assert first.close(timeout_s=_RESOLVE_S) == 0
            assert second.submit(("echo", 3)).result(_RESOLVE_S) == 3
        finally:
            first.close()
            second.close()


_ORPHAN_PROGRAM = """
import os, time
from repro.runtime.proc import Child

def nested():
    inner = Child(lambda: (lambda request: os.getpid()))
    return lambda request: (os.getpid(), inner.submit(None).result())

child = Child(nested)
print(*child.submit(None).result(), flush=True)
time.sleep(120)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (_SRC, env.get("PYTHONPATH")) if part
    )
    return env


class TestNoOrphans:
    def test_children_and_grandchildren_die_with_a_sigkilled_parent(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_PROGRAM],
            env=_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            pids = [int(part) for part in proc.stdout.readline().split()]
            assert len(pids) == 2 and all(_running(pid) for pid in pids)
            proc.kill()
            proc.wait(30)
            assert _survivors(pids) == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_no_pool_child_or_segment_outlives_a_killed_cli_run(self):
        before = set(glob.glob(f"/dev/shm/{shm._SEGMENT_PREFIX}*"))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "run", "policy-eval",
                "--jobs", "2", "--inject", "hang@2", "--hang-s", "60",
                "--timeout", "120",
            ],
            env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while len(_pool_children(proc.pid)) < 2:
                assert proc.poll() is None, "the run ended before its pool started"
                assert time.monotonic() < deadline, "the pool never started"
                time.sleep(0.05)
            descendants = _all_children(proc.pid)
            created = set(glob.glob(f"/dev/shm/{shm._SEGMENT_PREFIX}*")) - before
            assert created, "the run published no segment"
            proc.kill()
            proc.wait(30)
            assert _survivors(descendants) == []
            assert created & set(glob.glob(f"/dev/shm/{shm._SEGMENT_PREFIX}*")) == set()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
