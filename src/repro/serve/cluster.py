"""Asyncio socket front-end for the supervised worker fleet.

:class:`ClusterServer` is the network face of the multi-process serve
tier: a stdlib-``asyncio`` TCP server speaking the same newline-JSON
protocol as the worker pipes (:mod:`repro.serve.wire`), fronting a
:class:`~repro.serve.supervisor.Supervisor` that owns the worker
processes.  The event loop never blocks on an engine and parks no
thread on a query: each query is admitted with the supervisor's
``submit()`` (which routes, fails over, sheds, or degrades) and its
future is awaited on the loop, at most ``_FRONTEND_POOL_SIZE`` at a
time.  Each connection serializes its replies through a writer task
fed by a queue, which writes every ready reply in one go, so concurrent
answers for one client interleave safely and may legally arrive out of
submission order (``id`` correlates them).

Lifecycle: ``serve_forever()`` runs in the calling thread (the CLI
path, with SIGTERM -> drain and SIGHUP -> config hot-reload when
``install_signals``); ``start_background()`` runs the same loop on a
daemon thread and returns once the socket is bound (the test path).
On stop the listener closes first, live connections get ``drain_s``
seconds to finish in-flight requests, and only then does the
supervisor drain its workers — so an accepted request is answered or
typed-failed, never silently dropped.

Fault site ``cluster.conn`` fires per accepted line; a ``raise`` spec
there tears the connection mid-stream, which is how the chaos wall
exercises client reconnect logic.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from typing import Any, Dict, Optional, Set

from repro.errors import (
    ClusterError,
    ConfigError,
    DeadlineExceededError,
    ReproError,
)
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
#: supervisor at once; beyond this, requests wait on the event loop
#: (and the supervisor's shed policy sees the sustained depth).
_FRONTEND_POOL_SIZE = 32

#: How long ``start_background`` waits for the socket to bind.
_BIND_TIMEOUT_S = 60.0


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
        supervisor: Optional[Supervisor] = None,
        on_bound: Optional[Any] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.host = host
        self.port = port
        #: Where SIGHUP rereads the config from (``None`` = reload
        #: requests are rejected).
        self.config_path = config_path
        self.request_timeout_s = request_timeout_s
        self.supervisor = supervisor or Supervisor(
            self.config, fault_plan_path
        )
        self._own_supervisor = supervisor is None
        #: Called with the bound port once listening (CLI announce).
        self._on_bound = on_bound
        #: The bound port (resolves ``port=0`` ephemeral binds); set
        #: once the listener is up.
        self.bound_port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._admission: Optional[asyncio.Semaphore] = None
        self._client_tasks: "Set[asyncio.Task[None]]" = set()
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def serve_forever(self, install_signals: bool = False) -> None:
        """Run the cluster in the calling thread until stopped.

        With ``install_signals``, SIGTERM/SIGINT trigger a graceful
        drain and SIGHUP rereads ``config_path`` (an invalid file is
        rejected and the old config stays in force).
        """
        self.supervisor.start()
        try:
            asyncio.run(self._serve_async(install_signals))
        finally:
            if self._own_supervisor:
                self.supervisor.close()
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
        # Built on the running loop: before Python 3.10 asyncio
        # primitives bind the loop current at construction.
        self._admission = asyncio.Semaphore(_FRONTEND_POOL_SIZE)
        server = await asyncio.start_server(
            self._handle_client, self.host, self.port
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
            _event("cluster.drained", connections=len(self._client_tasks))

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
        out_q: "asyncio.Queue[Optional[str]]" = asyncio.Queue()
        writer_task = asyncio.ensure_future(self._writer_loop(writer, out_q))
        answer_tasks: "Set[asyncio.Task[None]]" = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    # A 'raise' fault here simulates a torn socket:
                    # the connection drops and the client reconnects.
                    faults.fault_site("cluster.conn")
                    message = wire.decode_line(line)
                except ConfigError as exc:
                    advisory = error_to_advisory(None, exc)
                    out_q.put_nowait(
                        wire.encode_message(
                            "advisory", id=None, advisory=advisory.to_dict()
                        )
                    )
                    continue
                except ReproError:
                    break  # injected torn socket
                op = message["op"]
                if op == "query":
                    answer = asyncio.ensure_future(
                        self._answer(message, out_q)
                    )
                    answer_tasks.add(answer)
                    answer.add_done_callback(answer_tasks.discard)
                elif op == "ping":
                    out_q.put_nowait(
                        wire.encode_message(
                            "pong", id=message.get("id"),
                            live=self.supervisor.live_workers(),
                        )
                    )
                elif op == "stats":
                    answer = asyncio.ensure_future(
                        self._answer_stats(message, out_q)
                    )
                    answer_tasks.add(answer)
                    answer.add_done_callback(answer_tasks.discard)
                elif op == "shutdown":
                    break
                # Response ops from a confused peer are ignored.
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-line; in-flight answers finish below
        finally:
            if answer_tasks:
                # Answer everything already accepted before goodbye.
                await asyncio.gather(*answer_tasks, return_exceptions=True)
            out_q.put_nowait(None)
            await writer_task
            if task is not None:
                self._client_tasks.discard(task)

    async def _answer(
        self, message: Dict[str, Any], out_q: "asyncio.Queue[Optional[str]]"
    ) -> None:
        raw: Optional[Dict[str, Any]] = None
        query: Optional[ShapeQuery] = None
        try:
            raw = wire.request_payload(message)
            query = ShapeQuery.from_dict(raw)
            assert self._admission is not None  # set before listening
            async with self._admission:
                advisory = await asyncio.wait_for(
                    asyncio.wrap_future(self.supervisor.submit(query)),
                    self.request_timeout_s,
                )
        except asyncio.TimeoutError:
            advisory = error_to_advisory(
                query,
                DeadlineExceededError(
                    f"cluster gave no advisory within "
                    f"{self.request_timeout_s}s"
                ),
                raw_query=raw,
            )
        except ReproError as exc:
            advisory = error_to_advisory(query, exc, raw_query=raw)
        out_q.put_nowait(
            wire.encode_message(
                "advisory", id=message.get("id"), advisory=advisory.to_dict()
            )
        )

    async def _answer_stats(
        self, message: Dict[str, Any], out_q: "asyncio.Queue[Optional[str]]"
    ) -> None:
        loop = asyncio.get_running_loop()
        stats = await loop.run_in_executor(None, self._stats_payload)
        out_q.put_nowait(
            wire.encode_message("stats", id=message.get("id"), stats=stats)
        )

    def _stats_payload(self) -> Dict[str, Any]:
        return {
            "cluster": self.supervisor.cluster_stats(),
            "workers": self.supervisor.worker_stats(),
        }

    async def _writer_loop(
        self,
        writer: asyncio.StreamWriter,
        out_q: "asyncio.Queue[Optional[str]]",
    ) -> None:
        try:
            while True:
                line = await out_q.get()
                lines = []
                while line is not None:
                    lines.append(line)
                    if out_q.empty():
                        break
                    line = out_q.get_nowait()
                if lines:
                    writer.write("".join(lines).encode("utf-8"))
                    await writer.drain()
                if line is None:
                    break
        except (ConnectionError, OSError):
            pass  # peer vanished; nothing left to tell it
        finally:
            try:
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

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
