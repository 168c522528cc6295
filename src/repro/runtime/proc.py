"""One supervised child process: the only place the program forks.

A :class:`Child` is a forked process that serves requests over a pipe.
The service's run processes and the runner's pool children are both
children of this one kind (DESIGN.md §9, §11):

* **Fork, and die with the parent.**  The child is forked (so it starts
  with every module the parent loaded, and every
  ``os.register_at_fork`` hook runs in it), sets ``PR_SET_PDEATHSIG``
  and re-checks its parent.  Linux sends that signal when the *thread*
  that forked the child exits, so an owner forks only from a thread
  that lives as long as it does: the service's event-loop thread, the
  thread that calls ``ScenarioRunner.execute``.
* **Hold nothing of anyone else.**  The child closes every socket it
  inherited except its own pipe and fds 0–2: a listening socket, a
  client connection or a sibling's pipe held by the child would outlive
  the parent's hang-up on them.
* **Signals.**  SIGTERM and SIGINT stay blocked across the fork; the
  child clears the inherited wakeup fd (an event loop's self-pipe,
  which would read the child's signals as the parent's), resets
  SIGTERM to its default and ignores SIGINT, then unblocks them.
* **One Future per request.**  :meth:`Child.submit` returns a
  :class:`concurrent.futures.Future`.  A reader thread in the parent
  takes every reply off the pipe as it arrives, so the child never
  blocks on a full pipe, and resolves the request's Future with the
  reply, the handler's exception, or — when the child dies first —
  one :class:`ChildDied` carrying the exit code.
* **Replace on death.**  A dead child stays dead; its owner closes it
  and forks a replacement (from its own thread — a reader thread never
  forks).
"""

from __future__ import annotations

import os
import pickle
import queue
import signal
import socket
import stat
import sys
import threading
import traceback
from collections import deque
from concurrent.futures import Future
from multiprocessing import Pipe
from multiprocessing.connection import wait
from typing import Any, Callable, Deque, Optional

__all__ = ["Child", "ChildDied"]

#: ``prctl`` option: the signal the kernel sends when the parent dies.
_PR_SET_PDEATHSIG = 1

#: Blocked across the fork until the child has reset them.
_RESET_SIGNALS = frozenset({signal.SIGTERM, signal.SIGINT})

#: Message kinds on the pipe, parent to child.
_REQUEST, _NOTE = "request", "note"

#: Queued behind the last request when the parent hangs up.
_HANG_UP = object()


class ChildDied(RuntimeError):
    """The child died before it replied (killed, or exited)."""

    def __init__(self, exitcode: Optional[int]):
        if exitcode is not None and exitcode < 0:
            try:
                how = f"killed by {signal.Signals(-exitcode).name}"
            except ValueError:
                how = f"killed by signal {-exitcode}"
        else:
            how = f"exited with code {exitcode}"
        super().__init__(f"child process {how}")
        self.exitcode = exitcode


def _die_with_parent(parent_pid: int) -> None:
    """Have the kernel SIGKILL this process when its parent dies; exit
    now if the parent died before the request."""
    import ctypes

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent_pid:
        os._exit(1)


def _close_inherited_sockets(keep: int) -> None:
    """Close every inherited socket except ``keep`` and the standard
    streams.  Stdin, stdout and stderr stay: they may be sockets too (a
    service manager's journal stream), and they are the process's."""
    for fd in [int(name) for name in os.listdir("/proc/self/fd")]:
        if fd <= 2 or fd == keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # the listing's own fd, already closed
            pass


def _serve(conn, handler: Callable[[Any], Any]) -> None:
    """The child's side of the pipe: serve requests until the hang-up.

    A reader thread takes every message off the pipe as it arrives, so
    a note reaches the child while a request runs; the main thread
    runs the requests one at a time, in send order, and replies.
    """
    message = getattr(handler, "message", None)
    requests: "queue.SimpleQueue[Any]" = queue.SimpleQueue()

    def read() -> None:
        while True:
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError):
                break
            if message is not None:
                message(payload)
            if kind == _REQUEST:
                requests.put(payload)
        if message is not None:
            message(None)
        requests.put(_HANG_UP)

    threading.Thread(target=read, name="repro-child-pipe", daemon=True).start()
    try:
        while True:
            request = requests.get()
            if request is _HANG_UP:
                return
            try:
                reply = (True, handler(request))
            except Exception as error:
                reply = (False, error)
            try:
                conn.send(reply)
            except OSError:  # the parent is gone
                return
            except Exception as error:  # the reply does not pickle
                conn.send((False, RuntimeError(f"unpicklable reply: {error!r}")))
    finally:
        close = getattr(handler, "close", None)
        if close is not None:
            close()


def _child_main(
    conn, serve: Callable[[], Callable[[Any], Any]], parent_pid: int, mask
) -> None:
    _die_with_parent(parent_pid)
    _close_inherited_sockets(keep=conn.fileno())
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    _serve(conn, serve())


class Child:
    """A forked child serving requests over a pipe, supervised.

    ``serve()`` runs in the child once it is set up and returns the
    handler: ``handler(request)`` computes each reply in the child's
    main thread, one request at a time, in send order.  A handler may
    also define ``message(message)``, which the child's reader thread
    calls for every message as it arrives — each request before its
    turn, each :meth:`note`, and ``None`` when the parent hangs up —
    and ``close()``, which runs before the child exits.

    Every method is for the owner's thread except that the reader
    thread resolves Futures.  Requests and replies are pickled.
    """

    def __init__(self, serve: Callable[[], Callable[[Any], Any]]):
        conn, child_conn = Pipe()
        parent_pid = os.getpid()
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _RESET_SIGNALS)
        try:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _child_main(child_conn, serve, parent_pid, mask)
                    code = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    for stream in (sys.stdout, sys.stderr):
                        try:
                            stream.flush()
                        except (AttributeError, OSError, ValueError):
                            pass
                    os._exit(code)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        child_conn.close()
        self.pid = pid
        #: Readable once the child has exited (a pidfd).
        self.sentinel = os.pidfd_open(pid)
        #: The child's exit code once it has died and been reaped.
        self.exitcode: Optional[int] = None
        self._conn = conn
        self._lock = threading.Lock()
        self._pending: Deque[Future] = deque()
        self._closed = False
        self._reader = threading.Thread(
            target=self._read, name=f"repro-child-{pid}", daemon=True
        )
        self._reader.start()

    @property
    def dead(self) -> bool:
        """Whether the child has died (and every request has resolved)."""
        return self.exitcode is not None

    @property
    def pending(self) -> int:
        """Requests sent and not yet resolved."""
        return len(self._pending)

    def submit(self, request: Any) -> Future:
        """Send ``request``; its Future resolves with the reply, the
        handler's exception, or :class:`ChildDied`.  A request sent to a
        dead child fails at once."""
        future: Future = Future()
        future.set_running_or_notify_cancel()
        with self._lock:
            if self.exitcode is None:
                try:
                    self._conn.send((_REQUEST, request))
                except OSError:  # dying: the reader fails the Future
                    pass
                self._pending.append(future)
                return future
        future.set_exception(ChildDied(self.exitcode))
        return future

    def note(self, message: Any) -> None:
        """Send a one-way message to the handler's ``message``; dropped
        when the child is dead."""
        with self._lock:
            if self.exitcode is None:
                try:
                    self._conn.send((_NOTE, message))
                except OSError:
                    pass

    def kill(self) -> None:
        """SIGKILL the child; its unresolved requests fail with
        :class:`ChildDied`."""
        with self._lock:
            if self.exitcode is None:
                try:
                    signal.pidfd_send_signal(self.sentinel, signal.SIGKILL)
                except ProcessLookupError:  # exited, not reaped yet
                    pass

    def close(self, timeout_s: float = 10.0) -> Optional[int]:
        """Hang up and reap the child (idempotent); returns its exit code.

        The child finishes the requests it has, then exits; past
        ``timeout_s`` it is killed.
        """
        if self._closed:
            return self.exitcode
        with self._lock:
            if self.exitcode is None:
                with socket.fromfd(
                    self._conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM
                ) as sock:
                    sock.shutdown(socket.SHUT_WR)
        self._reader.join(timeout_s)
        if self._reader.is_alive():
            self.kill()
            self._reader.join()
        os.close(self.sentinel)
        self._closed = True
        return self.exitcode

    def _read(self) -> None:
        """Reader thread: resolve each request's Future with its reply,
        in order, until the child dies; then reap it and fail the rest."""
        conn = self._conn
        while True:
            wait([conn, self.sentinel])
            try:
                if not conn.poll():  # exited with nothing left to read
                    break
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                ok, value = pickle.loads(data)
            except Exception as error:
                ok, value = False, error
            with self._lock:
                future = self._pending.popleft()
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)
        _, status = os.waitpid(self.pid, 0)
        with self._lock:
            self.exitcode = os.waitstatus_to_exitcode(status)
            lost, self._pending = self._pending, deque()
            conn.close()
        for future in lost:
            future.set_exception(ChildDied(self.exitcode))
