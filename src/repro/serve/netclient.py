"""Blocking socket transport into the cluster front-end.

:class:`SocketTransport` satisfies the
:class:`~repro.serve.dispatch.Transport` protocol over a TCP
connection speaking :mod:`repro.serve.wire`, so everything written
against the in-process server — :class:`~repro.serve.client.
AdvisoryClient`, :func:`~repro.serve.loadgen.run_load`, the
differential verify wall — runs unchanged against a remote cluster.

Connections are **per-thread** (a ``threading.local``), with one
outstanding request per connection; responses are matched by ``id``
and stale ids (from an earlier timed-out attempt on the same
connection) are skipped.  A dropped connection — server restart, torn
socket, injected ``cluster.conn`` fault — triggers
reconnect-with-backoff through the shared
:class:`~repro.resilience.execute.RetryPolicy` (deterministic jitter:
same seed, same delays, any machine) and the request is **resent**,
which is sound because advisory queries are idempotent and
side-effect-free.  Only after the whole retry budget is exhausted does
the caller see a :class:`~repro.errors.ClusterError`.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, List, Optional

from repro.errors import ClusterError, ConfigError, DeadlineExceededError
from repro.observability.metrics import metrics as _metrics
from repro.resilience.execute import RetryPolicy
from repro.serve import wire
from repro.serve.protocol import Advisory, ShapeQuery

__all__ = ["SocketTransport"]


class _Conn:
    """One thread's socket + buffered reader + request-id counter."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = sock.makefile("r", encoding="utf-8")
        self.next_id = 0

    def close(self) -> None:
        try:
            self.reader.close()
        except OSError:  # pragma: no cover - already torn
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already torn
            pass


class SocketTransport:
    """Reconnecting JSONL client for one cluster front-end address."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: Optional[RetryPolicy] = None,
        connect_timeout_s: float = 10.0,
    ) -> None:
        if port < 1:
            raise ConfigError(f"port must be >= 1, got {port}")
        self.host = host
        self.port = port
        #: Reconnect budget and backoff curve; delays are deterministic
        #: per (seed, attempt) so retry storms never synchronize by
        #: accident and chaos runs replay identically.
        self.policy = policy or RetryPolicy(retries=5, backoff_s=0.05)
        self.connect_timeout_s = connect_timeout_s
        self._local = threading.local()
        self._lock = threading.Lock()
        self._all_conns: List[_Conn] = []
        self._reconnects = 0

    # -- connection management ----------------------------------------------

    def _conn(self) -> _Conn:
        conn: Optional[_Conn] = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout_s
        )
        conn = _Conn(sock)
        self._local.conn = conn
        with self._lock:
            self._all_conns.append(conn)
        return conn

    def _drop(self) -> None:
        conn: Optional[_Conn] = getattr(self._local, "conn", None)
        if conn is None:
            return
        self._local.conn = None
        with self._lock:
            if conn in self._all_conns:
                self._all_conns.remove(conn)
        conn.close()

    def close(self) -> None:
        """Close every connection this transport ever opened."""
        with self._lock:
            conns = list(self._all_conns)
            self._all_conns.clear()
        for conn in conns:
            conn.close()

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def reconnects(self) -> int:
        """Connections re-established after a drop (all threads)."""
        with self._lock:
            return self._reconnects

    # -- the Transport protocol ---------------------------------------------

    def request(
        self, query: ShapeQuery, timeout_s: Optional[float] = None
    ) -> Advisory:
        """One advisory round-trip, reconnecting through drops.

        Raises :class:`~repro.errors.DeadlineExceededError` when the
        server holds the line past ``timeout_s`` (the time budget is
        spent — retrying would double it) and
        :class:`~repro.errors.ClusterError` once drops exhaust the
        reconnect budget.
        """
        message = wire.query_message(query.to_dict(), 0)
        response = self._rpc("query", message, timeout_s)
        body = response.get("advisory")
        if body is None:
            raise ClusterError(
                f"{self.host}:{self.port} sent an advisory with no body"
            )
        return Advisory.from_dict(body)

    def server_stats(self, timeout_s: Optional[float] = 10.0) -> Dict[str, Any]:
        """The front-end's cluster + aggregated worker counters."""
        return dict(
            self._rpc("stats", wire.encode_message("stats", id=0), timeout_s)
            .get("stats", {})
        )

    def ping(self, timeout_s: Optional[float] = 10.0) -> Dict[str, Any]:
        """Liveness probe; the pong carries the live-worker count."""
        return self._rpc("ping", wire.encode_message("ping", id=0), timeout_s)

    # -- internals ----------------------------------------------------------

    def _rpc(
        self, op: str, template: str, timeout_s: Optional[float]
    ) -> Dict[str, Any]:
        """Send one message, await its id-matched response, with retries."""
        want_op = {"query": "advisory", "ping": "pong", "stats": "stats"}[op]
        attempts = self.policy.retries + 1
        last_exc: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                self._drop()
                time.sleep(
                    self.policy.delay_s(
                        f"reconnect:{self.host}:{self.port}", attempt - 1
                    )
                )
                with self._lock:
                    self._reconnects += 1
                _metrics().counter("cluster.client_reconnects").inc()
            try:
                return self._roundtrip(want_op, template, timeout_s)
            except (OSError, EOFError) as exc:
                last_exc = exc
                continue
        self._drop()
        raise ClusterError(
            f"no {want_op} from {self.host}:{self.port} after "
            f"{attempts} attempt(s): {last_exc}"
        )

    def _roundtrip(
        self, want_op: str, template: str, timeout_s: Optional[float]
    ) -> Dict[str, Any]:
        conn = self._conn()
        request_id = conn.next_id
        conn.next_id += 1
        # Re-stamp the template with this connection's next id.
        message = wire.decode_line(template)
        message["id"] = request_id
        line = wire.encode_message(message.pop("op"), **message)
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        conn.sock.settimeout(timeout_s)
        conn.sock.sendall(line.encode("utf-8"))
        while True:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._drop()
                    raise DeadlineExceededError(
                        f"no response from {self.host}:{self.port} "
                        f"within {timeout_s}s"
                    )
                conn.sock.settimeout(remaining)
            try:
                raw = conn.reader.readline()
            except socket.timeout:
                self._drop()
                raise DeadlineExceededError(
                    f"no response from {self.host}:{self.port} "
                    f"within {timeout_s}s"
                ) from None
            if not raw:
                raise EOFError("server closed the connection")
            try:
                response = wire.decode_line(raw)
            except ConfigError as exc:
                # Garbage on the stream: the framing is gone; treat it
                # as a torn connection and let the retry loop recover.
                raise EOFError(f"protocol desync: {exc}") from exc
            if response["op"] == want_op and response.get("id") == request_id:
                return response
            # Stale response from an earlier timed-out request on this
            # connection, or an unsolicited op: skip and keep reading.
