"""Asyncio socket front-end for the supervised worker fleet.

:class:`ClusterServer` is the network face of the multi-process serve
tier: a stdlib-``asyncio`` TCP server speaking the same newline-JSON
protocol as the worker pipes (:mod:`repro.serve.wire`), fronting a
:class:`~repro.serve.supervisor.Supervisor` that owns the worker
processes.  The supervisor runs on the front-end's own event loop, so
one thread carries a query from the socket read, down a worker pipe
and back, to the socket write, and no lock is taken on the way.  Each
query goes to the supervisor's loop-side ``dispatch`` (which routes,
fails over, sheds, or degrades) with a reply callback and a deadline
of ``request_timeout_s``, at most ``_FRONTEND_POOL_SIZE`` at a time;
the rest wait in arrival order.  The worker's advisory object is
relayed under the client's ``id`` as it came off the pipe, never
rebuilt as an :class:`~repro.serve.protocol.Advisory`.  Each connection
queues its replies and writes all those ready in one loop iteration
with one ``write``, so answers for one client may legally arrive out
of submission order (``id`` correlates them).

Lifecycle: ``serve_forever()`` runs in the calling thread (the CLI
path, with SIGTERM -> drain and SIGHUP -> config hot-reload when
``install_signals``); ``start_background()`` runs the same loop on a
daemon thread and returns once the socket is bound (the test path).
On stop the listener closes first, live connections get ``drain_s``
seconds to finish in-flight requests, and only then does the
supervisor drain its workers — so an accepted request is answered or
typed-failed, never silently dropped.

A request line longer than 64 KiB is skipped through its newline and
answered with a typed, non-retryable ``ConfigError`` advisory; the
connection keeps serving.

Fault site ``cluster.conn`` fires per accepted line; a ``raise`` spec
there tears the connection mid-stream, which is how the chaos wall
exercises client reconnect logic.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import signal
import threading
from typing import Any, Deque, Dict, Optional, Set, Tuple

from repro.errors import ClusterError, ConfigError, ReproError
from repro.observability.metrics import metrics as _metrics
from repro.observability.tracing import event as _event
from repro.resilience import faults
from repro.serve import wire
from repro.serve.config import ServeConfig
from repro.serve.dispatch import error_to_advisory
from repro.serve.protocol import ShapeQuery
from repro.serve.supervisor import Supervisor

__all__ = ["ClusterServer"]

#: Upper bound on queries the front-end holds admitted to the
#: supervisor at once; beyond this, requests wait in arrival order
#: (and the supervisor's shed policy sees the sustained depth).
_FRONTEND_POOL_SIZE = 32

#: How long ``start_background`` waits for the socket to bind.
_BIND_TIMEOUT_S = 60.0

#: Longest request line the front-end reads; a longer one is answered
#: with a typed ``ConfigError`` advisory and skipped.
_LINE_LIMIT = 1 << 16


class _Connection:
    """The reply side of one client socket.

    Lines queued during one loop iteration go out in one ``write``.
    ``pending`` counts the requests accepted on this connection and not
    answered yet.
    """

    __slots__ = ("_writer", "_loop", "_out", "send", "pending", "_idle")

    def __init__(
        self, writer: asyncio.StreamWriter, loop: asyncio.AbstractEventLoop
    ) -> None:
        self._writer = writer
        self._loop = loop
        self._out = wire.LineBatch(loop, self._write)
        #: Queue one line for the client.
        self.send = self._out.send
        self.pending = 0
        self._idle: "Optional[asyncio.Future[None]]" = None

    def answered(self, line: str) -> None:
        """Send the answer to one pending request."""
        self.send(line)
        self.pending -= 1
        if self.pending == 0 and self._idle is not None:
            if not self._idle.done():
                self._idle.set_result(None)

    async def drained(self) -> None:
        """Wait until every accepted request has its answer queued."""
        if self.pending:
            self._idle = self._loop.create_future()
            await self._idle

    def close(self) -> None:
        self._out.flush()
        try:
            self._writer.close()  # the transport writes out its buffer first
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    def _write(self, data: bytes) -> None:
        if not self._writer.is_closing():
            self._writer.write(data)


#: A query the front-end accepted: (client id, query, raw object, connection).
_Request = Tuple[Any, ShapeQuery, Dict[str, Any], _Connection]


class ClusterServer:
    """TCP front-end over a supervised multi-process advisory cluster."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        config_path: Optional[str] = None,
        fault_plan_path: Optional[str] = None,
        request_timeout_s: Optional[float] = 120.0,
        on_bound: Optional[Any] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.host = host
        self.port = port
        #: Where SIGHUP rereads the config from (``None`` = reload
        #: requests are rejected).
        self.config_path = config_path
        self.request_timeout_s = request_timeout_s
        #: Started and closed on the front-end's event loop.
        self.supervisor = Supervisor(self.config, fault_plan_path)
        #: Called with the bound port once listening (CLI announce).
        self._on_bound = on_bound
        #: The bound port (resolves ``port=0`` ephemeral binds); set
        #: once the listener is up.
        self.bound_port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        #: Queries dispatched to the supervisor and not answered yet.
        self._admitted = 0
        #: Accepted queries waiting for one of the admitted to finish.
        self._waiting: Deque[_Request] = collections.deque()
        self._client_tasks: "Set[asyncio.Task[None]]" = set()
        self._stats_tasks: "Set[asyncio.Task[None]]" = set()
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def serve_forever(self, install_signals: bool = False) -> None:
        """Run the cluster in the calling thread until stopped.

        With ``install_signals``, SIGTERM/SIGINT trigger a graceful
        drain and SIGHUP rereads ``config_path`` (an invalid file is
        rejected and the old config stays in force).
        """
        try:
            asyncio.run(self._serve_async(install_signals))
        finally:
            self._ready.set()  # never leave start_background hanging

    def start_background(self) -> "ClusterServer":
        """Serve on a daemon thread; returns once the socket is bound."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-cluster-frontend",
            daemon=True,
        )
        self._thread = thread
        thread.start()
        if not self._ready.wait(_BIND_TIMEOUT_S):
            raise ClusterError(
                f"cluster front-end did not bind within {_BIND_TIMEOUT_S:g}s"
            )
        if self.bound_port is None:
            raise ClusterError("cluster front-end failed to start")
        return self

    def stop(self) -> None:
        """Request a graceful drain-and-stop (thread-safe)."""
        loop = self._loop
        stop = self._stop_async
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        thread = self._thread
        if thread is not None:
            thread.join(timeout=_BIND_TIMEOUT_S)

    def __enter__(self) -> "ClusterServer":
        return self.start_background()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.bound_port if self.bound_port else self.port}"

    # -- event loop ---------------------------------------------------------

    async def _serve_async(self, install_signals: bool) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop_async = asyncio.Event()
        try:
            await self.supervisor.start_async()
            server = await asyncio.start_server(
                self._handle_client, self.host, self.port, limit=_LINE_LIMIT
            )
            self.bound_port = server.sockets[0].getsockname()[1]
            if install_signals:
                loop.add_signal_handler(signal.SIGTERM, self._stop_async.set)
                loop.add_signal_handler(signal.SIGINT, self._stop_async.set)
                loop.add_signal_handler(
                    signal.SIGHUP,
                    lambda: loop.create_task(self._reload_async()),
                )
            _event("cluster.listening", host=self.host, port=self.bound_port)
            if self._on_bound is not None:
                self._on_bound(self.bound_port)
            self._ready.set()
            try:
                async with server:
                    await self._stop_async.wait()
            finally:
                server.close()
                await server.wait_closed()
                await self._drain_clients()
                _event(
                    "cluster.drained", connections=len(self._client_tasks)
                )
        finally:
            await self.supervisor.close_async()

    async def _drain_clients(self) -> None:
        """Give live connections ``drain_s`` to finish, then cut them."""
        tasks = set(self._client_tasks)
        if not tasks:
            return
        _, pending = await asyncio.wait(
            tasks, timeout=self.supervisor.config.drain_s
        )
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        _metrics().counter("cluster.connections").inc()
        conn = _Connection(writer, asyncio.get_running_loop())
        try:
            await self._read_requests(reader, conn)
            # Answer everything already accepted before goodbye; a
            # drain timeout cancels this wait and cuts the connection.
            await conn.drained()
        finally:
            conn.close()
            if task is not None:
                self._client_tasks.discard(task)

    async def _read_requests(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> None:
        try:
            while True:
                line = await _read_line(reader)
                if line is None:
                    conn.send(_advisory_line(None, None, ConfigError(
                        f"request line longer than {_LINE_LIMIT} bytes"
                    )))
                    continue
                if not line:
                    return
                if not line.strip():
                    continue
                try:
                    # A 'raise' fault here simulates a torn socket:
                    # the connection drops and the client reconnects.
                    faults.fault_site("cluster.conn")
                    message = wire.decode_line(line)
                except ConfigError as exc:
                    conn.send(_advisory_line(None, None, exc))
                    continue
                except ReproError:
                    return  # injected torn socket
                op = message["op"]
                if op == "query":
                    self._accept(message, conn)
                elif op == "ping":
                    conn.send(
                        wire.encode_message(
                            "pong", id=message.get("id"),
                            live=self.supervisor.live_workers(),
                        )
                    )
                elif op == "stats":
                    conn.pending += 1
                    stats = asyncio.ensure_future(
                        self._answer_stats(message, conn)
                    )
                    self._stats_tasks.add(stats)
                    stats.add_done_callback(self._stats_tasks.discard)
                elif op == "shutdown":
                    return
                # Response ops from a confused peer are ignored.
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-line; in-flight answers finish

    # -- the query path -----------------------------------------------------

    def _accept(self, message: Dict[str, Any], conn: _Connection) -> None:
        """Validate one query and dispatch it, or queue it behind the 32."""
        raw: Optional[Dict[str, Any]] = None
        try:
            raw = wire.request_payload(message)
            query = ShapeQuery.from_dict(raw)
        except ReproError as exc:
            conn.send(
                _advisory_line(message.get("id"), None, exc, raw_query=raw)
            )
            return
        conn.pending += 1
        request = (message.get("id"), query, raw, conn)
        if self._admitted < _FRONTEND_POOL_SIZE:
            self._dispatch(request)
        else:
            self._waiting.append(request)

    def _dispatch(self, request: _Request) -> None:
        request_id, query, raw, conn = request
        try:
            self.supervisor.dispatch(
                query, functools.partial(self._reply, request),
                self.request_timeout_s,
            )
        except ReproError as exc:  # shed, or the cluster is closing
            conn.answered(_advisory_line(request_id, query, exc, raw))
            return
        self._admitted += 1

    def _reply(
        self,
        request: _Request,
        advisory: Optional[Dict[str, Any]],
        exc: Optional[BaseException],
    ) -> None:
        """Supervisor callback: relay the answer, admit the next query."""
        request_id, query, raw, conn = request
        self._admitted -= 1
        if exc is None:
            conn.answered(
                wire.encode_message("advisory", id=request_id, advisory=advisory)
            )
        else:
            conn.answered(_advisory_line(request_id, query, exc, raw))
        # dispatch never calls back synchronously, so this cannot recurse.
        while self._waiting and self._admitted < _FRONTEND_POOL_SIZE:
            self._dispatch(self._waiting.popleft())

    async def _answer_stats(
        self, message: Dict[str, Any], conn: _Connection
    ) -> None:
        stats = {
            "cluster": self.supervisor.cluster_stats(),
            "workers": await self.supervisor.worker_stats_async(),
        }
        conn.answered(
            wire.encode_message("stats", id=message.get("id"), stats=stats)
        )

    async def _reload_async(self) -> None:
        """SIGHUP: reread ``config_path``; keep the old config on error."""
        if self.config_path is None:
            _event("cluster.reload_rejected", error="no config path")
            return
        loop = asyncio.get_running_loop()
        try:
            text = await loop.run_in_executor(None, self._read_config_file)
        except OSError as exc:
            _event("cluster.reload_rejected", error=str(exc))
            _metrics().counter("cluster.reload_rejected").inc()
            return
        if self.supervisor.reload_from_json(text):
            self.config = self.supervisor.config

    def _read_config_file(self) -> str:
        with open(self.config_path or "", encoding="utf-8") as fh:
            return fh.read()


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line: ``b""`` at EOF, ``None`` if over-long.

    A line past the reader's limit is read and dropped through its
    newline, so the line after it parses on its own.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # EOF: the unterminated last line, or b""
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        await reader.readexactly(consumed)  # already buffered
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


def _advisory_line(
    request_id: Any,
    query: Optional[ShapeQuery],
    exc: BaseException,
    raw_query: Optional[Dict[str, Any]] = None,
) -> str:
    """The wire line of the typed error advisory answering ``request_id``."""
    advisory = error_to_advisory(query, exc, raw_query=raw_query)
    return wire.encode_message(
        "advisory", id=request_id, advisory=advisory.to_dict()
    )
