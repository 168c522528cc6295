"""Small synchronous HTTP client for the selection service.

Used by the CLI (``repro-bench load`` result checks), the CI smoke job,
the chaos drill and the tests.  Pure stdlib (:mod:`http.client`): each
thread talks over one HTTP/1.1 keep-alive connection of its own, opened
at its first call and reused by the next ones — the *asynchronous*
many-connection path lives in :mod:`.load`.

Before a connection is reused, a zero-timeout probe checks that the
service has not closed it (it closes idle connections, and a restarted
service closed all of them).  A GET or DELETE that still fails on a
reused connection is resent once on a fresh one; a POST never is, so a
run is never submitted twice.  :meth:`ServiceClient.close` (or leaving
a ``with`` block) closes every thread's connection.

Backpressure handling: the service answers 429 (queue full) and 503
(draining) with a computed ``Retry-After`` header.  Pass ``retries=``
to :meth:`ServiceClient.request` or :meth:`ServiceClient.submit` to
retry those answers with bounded exponential backoff that never sleeps
*less* than the service asked for — :func:`backoff_delay` is pure so
the schedule is unit-testable without a server.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import time
import weakref
from typing import Any, Dict, Optional, Tuple

__all__ = ["ServiceClient", "ServiceError", "backoff_delay"]

#: First backoff step (seconds); doubles each retry.
BACKOFF_BASE_S = 0.1
#: Ceiling on any single backoff sleep (seconds).
BACKOFF_CAP_S = 30.0

#: Statuses worth retrying: queue full and draining are both transient.
_RETRYABLE = (429, 503)

#: States the service will never leave — ``wait`` stops on any of them.
TERMINAL_STATES = ("done", "failed", "cancelled", "deadline")

#: Methods safe to resend after a reused connection turned out stale.
_IDEMPOTENT = ("GET", "DELETE")


def _peer_closed(sock: socket.socket) -> bool:
    """Whether an idle connection's socket is readable, i.e. at EOF.

    The service never sends unprompted, so anything readable on an idle
    connection means the peer closed it (or broke it).
    """
    try:
        readable, _, _ = select.select([sock], [], [], 0)
    except (OSError, ValueError):
        return True
    return bool(readable)


def backoff_delay(
    attempt: int,
    retry_after: Optional[float] = None,
    base: float = BACKOFF_BASE_S,
    cap: float = BACKOFF_CAP_S,
) -> float:
    """Sleep before retry number ``attempt`` (0-based), in seconds.

    Exponential (``base * 2**attempt``) clamped to ``cap``, but never
    below the service's ``Retry-After`` hint — backing off *less* than
    the server asked for just converts one rejection into two.
    """
    delay = min(cap, base * (2.0 ** attempt))
    if retry_after is not None and retry_after > 0:
        delay = max(delay, min(cap, float(retry_after)))
    return delay


class ServiceError(RuntimeError):
    """The service answered with an unexpected status code."""

    def __init__(self, code: int, payload: Any):
        super().__init__(f"service returned {code}: {payload}")
        self.code = code
        self.payload = payload


class ServiceClient:
    """Talk to a running :class:`~repro.service.SelectionService`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8780, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        # Injection seam for the backoff tests; production uses time.sleep.
        self._sleep = time.sleep
        self._local = threading.local()
        # Weak, so a finished thread's connection goes with its
        # thread-local slot instead of staying open here.
        self._connections: "weakref.WeakSet[http.client.HTTPConnection]" = weakref.WeakSet()
        self._lock = threading.Lock()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection; a later call opens a new one."""
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            connection.close()

    # -- raw ------------------------------------------------------------

    def _connection(self) -> Tuple[http.client.HTTPConnection, bool]:
        """This thread's connection, and whether it is a reused one."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            if connection.sock is not None and not _peer_closed(connection.sock):
                return connection, True
            self._discard(connection)
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        self._local.connection = connection
        with self._lock:
            self._connections.add(connection)
        return connection, False

    def _discard(self, connection: http.client.HTTPConnection) -> None:
        connection.close()
        self._local.connection = None
        with self._lock:
            self._connections.discard(connection)

    def _round_trip(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Any, Optional[float]]:
        """One HTTP exchange: (status, parsed payload, Retry-After or None)."""
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        while True:
            connection, reused = self._connection()
            try:
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException):
                # The service may close a reused connection between the
                # probe and the send; only an idempotent call may go
                # again, once, and then on a fresh connection.
                self._discard(connection)
                if not (reused and method in _IDEMPOTENT):
                    raise
            except BaseException:
                self._discard(connection)
                raise
        retry_after: Optional[float] = None
        header = response.getheader("Retry-After")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                retry_after = None
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            return response.status, json.loads(raw.decode() or "null"), retry_after
        return response.status, raw.decode(), retry_after

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        retries: int = 0,
    ) -> Tuple[int, Any]:
        """One logical call; JSON bodies in, parsed JSON (or text) out.

        With ``retries > 0``, a 429/503 answer is retried up to that
        many times with :func:`backoff_delay` sleeps (honouring the
        service's ``Retry-After``).  The *last* answer is returned
        either way — callers still see the rejection if the budget runs
        out, so existing error handling is untouched.
        """
        attempt = 0
        while True:
            status, payload, retry_after = self._round_trip(method, path, body)
            if status not in _RETRYABLE or attempt >= retries:
                return status, payload
            self._sleep(backoff_delay(attempt, retry_after))
            attempt += 1

    # -- typed helpers --------------------------------------------------

    def submit(
        self,
        spec_json: Dict[str, Any],
        deadline_s: Optional[float] = None,
        retries: int = 0,
    ) -> Dict[str, Any]:
        """POST a spec; returns the acceptance payload (raises on != 202).

        ``deadline_s`` bounds the run's *total* wall-clock (queue wait
        included): the service refuses to schedule block attempts past
        it and settles the run in the terminal ``deadline`` state.
        """
        body: Dict[str, Any] = spec_json
        if deadline_s is not None:
            body = {"spec": spec_json, "deadline_s": deadline_s}
        code, payload = self.request("POST", "/runs", body, retries=retries)
        if code != 202:
            raise ServiceError(code, payload)
        return payload

    def status(self, run_id: str) -> Dict[str, Any]:
        code, payload = self.request("GET", f"/runs/{run_id}")
        if code != 200:
            raise ServiceError(code, payload)
        return payload

    def result(self, run_id: str) -> Dict[str, Any]:
        code, payload = self.request("GET", f"/runs/{run_id}/result")
        if code != 200:
            raise ServiceError(code, payload)
        return payload

    def retry(self, run_id: str, keep_faults: bool = False) -> Dict[str, Any]:
        code, payload = self.request(
            "POST", f"/runs/{run_id}/retry", {"keep_faults": keep_faults}
        )
        if code != 202:
            raise ServiceError(code, payload)
        return payload

    def cancel(self, run_id: str) -> Dict[str, Any]:
        """DELETE a run: 200 = cancelled while queued, 202 = cancelling."""
        code, payload = self.request("DELETE", f"/runs/{run_id}")
        if code not in (200, 202):
            raise ServiceError(code, payload)
        return payload

    def metrics(self) -> str:
        code, payload = self.request("GET", "/metrics")
        if code != 200:
            raise ServiceError(code, payload)
        return payload

    def healthz(self) -> Dict[str, Any]:
        code, payload = self.request("GET", "/healthz")
        if code != 200:
            raise ServiceError(code, payload)
        return payload

    def wait(
        self, run_id: str, timeout: float = 120.0, poll_s: float = 0.05
    ) -> Dict[str, Any]:
        """Poll until the run reaches a terminal state.

        Returns the final status payload; raises TimeoutError if the
        run is still in flight when the budget expires.
        """
        deadline = time.monotonic() + timeout
        while True:
            payload = self.status(run_id)
            if payload.get("status") in TERMINAL_STATES:
                return payload
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"run {run_id} still {payload.get('status')} after {timeout}s"
                )
            time.sleep(poll_s)
