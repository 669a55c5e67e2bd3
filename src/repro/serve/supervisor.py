"""Worker-process supervision: spawn, heartbeat, restart, shed, degrade.

The supervision tree has three layers.  :class:`WorkerHandle` owns one
OS process — spawn with ready-handshake, its two pipes, the table of
id-correlated requests in flight on it, heartbeat bookkeeping, and a
kill switch.  :class:`Supervisor` owns N handles plus the cluster-wide
policies the robustness story is about:

- **health checks** — a monitor task pings every worker each
  ``heartbeat_s``; a worker whose pong is slower than
  ``heartbeat_timeout_s`` for ``heartbeat_misses`` consecutive beats is
  declared hung and killed (then restarted like any crash).
- **crash recovery** — worker death (crash, SIGKILL, torn pipe) closes
  its pipes, reaps the process and hands every query in flight on it
  back to the supervisor, which replays each on the next live sibling
  (queries are idempotent), while a restart task respawns the dead
  worker after :class:`~repro.resilience.execute.RetryPolicy`
  exponential backoff.  A worker that dies ``restart_budget`` times
  within ``restart_window_s`` is a crash loop and stays down.
- **load shedding** — when cluster-wide in-flight depth exceeds
  ``shed_depth`` for ``shed_after`` consecutive admissions (sustained
  backpressure, not a blip), queries with ``priority <=
  shed_priority`` are rejected with
  :class:`~repro.errors.LoadShedError` before touching a worker.
- **degraded mode** — with every worker down and ``degrade_local``
  on, the supervisor answers from a lazily-built in-process
  :class:`~repro.serve.server.AdvisoryServer` and stamps the advisory
  ``source="degraded"`` (payloads stay bit-identical — same engine).

One asyncio event loop owns every pipe and all of that state.  The
loop reads each worker's replies as they arrive (no reader threads),
writes the query lines queued for a worker during one loop iteration
in one ``write``, and keeps the pending tables, the in-flight count,
the shed streak and the restart budget as plain loop state (no locks).
:meth:`Supervisor.dispatch` is the loop-side entry: it admits, routes
and sends a query and later calls ``done(advisory_dict, exc)`` once,
with the worker's advisory object as it came off the pipe.
:meth:`Supervisor.submit` is the thread-safe wrapper — one
``call_soon_threadsafe`` hop into ``dispatch``, returning a
``concurrent.futures.Future[Advisory]`` — and :meth:`Supervisor.request`
blocks on it, which makes the supervisor a
:class:`~repro.serve.dispatch.Transport`.

The loop is the caller's when the supervisor is started from a
coroutine (:meth:`Supervisor.start_async`; the TCP front-end in
:mod:`repro.serve.cluster` does this, so its sockets and the worker
pipes share one loop and one thread), or the supervisor's own daemon
thread when it is started from plain code (:meth:`Supervisor.start`).
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from repro.errors import (
    ClusterError,
    ConfigError,
    DeadlineExceededError,
    LoadShedError,
    ReproError,
    ServerClosedError,
    WorkerDiedError,
)
from repro.gpu.specs import get_gpu
from repro.observability.metrics import metrics as _metrics
from repro.observability.tracing import event as _event
from repro.observability.tracing import span as _span
from repro.resilience.execute import RetryPolicy
from repro.serve import wire
from repro.serve.config import ServeConfig
from repro.serve.protocol import Advisory, ShapeQuery
from repro.serve.server import AdvisoryServer, shard_for

__all__ = ["Done", "Supervisor", "WorkerHandle"]

#: How long a spawned worker may take to emit its ready handshake
#: (covers interpreter start + imports on a cold, loaded machine).
_SPAWN_TIMEOUT_S = 60.0

#: How often a dead worker's process is polled until it is reaped.
_REAP_POLL_S = 0.005

#: How long a foreign thread waits for the loop to run a lifecycle step.
_LOOP_CALL_TIMEOUT_S = 120.0

#: The reply callback of :meth:`Supervisor.dispatch`: called once on the
#: loop with the advisory's wire dict, or with ``None`` and the error.
Done = Callable[[Optional[Dict[str, Any]], Optional[BaseException]], None]


def _worker_env() -> Dict[str, str]:
    """Child environment: inherit everything, guarantee importability.

    The parent may run from a source checkout (``PYTHONPATH=src``); the
    child must find the same ``repro`` package regardless of how the
    parent was launched, so the package root is prepended explicitly.
    Inheriting the rest keeps ``REPRO_ENGINE_CACHE_DIR`` — the PR-6
    mmap warm cache — shared by every worker in the cluster.
    """
    pkg_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if pkg_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            pkg_root + os.pathsep + existing if existing else pkg_root
        )
    return env


def _settle_future(
    future: "Future[Any]",
    result: Any = None,
    exc: Optional[BaseException] = None,
) -> None:
    """Resolve ``future`` unless it is already done (e.g. cancelled)."""
    try:
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass  # the caller gave up on it; its in-flight slot is settled


def _running_loop() -> Optional[asyncio.AbstractEventLoop]:
    """The event loop running in this thread, if any."""
    try:
        return asyncio.get_running_loop()
    except RuntimeError:
        return None


class _Call:
    """One admitted query: its reply callback, routing state, deadline.

    ``done`` is cleared when the call settles, so a reply, a deadline
    or a failover that comes later finds nothing to answer.
    """

    __slots__ = ("query", "wire_query", "done", "candidates", "death", "timer")

    def __init__(
        self, query: ShapeQuery, done: Done, candidates: List["WorkerHandle"]
    ) -> None:
        self.query = query
        #: The query's wire object, built once and reused on failover.
        self.wire_query = query.to_dict()
        self.done: Optional[Done] = done
        #: Live workers not yet tried, in routing order at admission.
        self.candidates = candidates
        #: The death that sent this call to its current candidate.
        self.death: Optional[WorkerDiedError] = None
        self.timer: Optional[asyncio.TimerHandle] = None


class _Pipe(asyncio.Protocol):
    """Loop callbacks of one end of a worker pipe, forwarded to its handle."""

    def __init__(self, handle: "WorkerHandle", name: str) -> None:
        self._handle = handle
        self._name = name

    def data_received(self, data: bytes) -> None:
        self._handle._data(data)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        reason = f"{self._name} closed" if exc is None else f"torn pipe: {exc}"
        self._handle._mark_dead(reason)


class WorkerHandle:
    """One worker process: its pipes, pending requests and heartbeat.

    Built and used only on the owning supervisor's event loop, so no
    state here needs a lock.  Replies resolve the :class:`_Call` that
    the ``id`` names; lines sent during one loop iteration are written
    to the worker's stdin in one ``write``.
    """

    def __init__(self, index: int, supervisor: "Supervisor") -> None:
        self.index = index
        self._supervisor = supervisor
        self._loop = asyncio.get_running_loop()
        self._proc: Optional["subprocess.Popen[bytes]"] = None
        self._writer: Optional[asyncio.WriteTransport] = None
        self._reader: Optional[asyncio.BaseTransport] = None
        #: True between the ready handshake and death.
        self.alive = False
        self.pid: Optional[int] = None
        self._next_id = 0
        self._calls: Dict[int, _Call] = {}
        self._stats: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._out = wire.LineBatch(self._loop, self._write)
        self._partial = b""
        self._await_pong_id: Optional[int] = None
        self._ping_sent_s = 0.0
        self._miss_count = 0
        #: Resolves True on the ready handshake, False on earlier death.
        self._ready: "asyncio.Future[bool]" = self._loop.create_future()
        #: Resolves with the reason once the handle is dead.
        self._dead: "asyncio.Future[str]" = self._loop.create_future()
        #: Resolves once the process is reaped (no zombie left).
        self._reaped: "asyncio.Future[None]" = self._loop.create_future()

    # -- lifecycle ----------------------------------------------------------

    async def spawn(self) -> "WorkerHandle":
        """Start the process and wait for its ready handshake.

        Raises :class:`~repro.errors.ClusterError` when the worker dies
        or stays silent for ``_SPAWN_TIMEOUT_S`` before it is ready.
        """
        sup = self._supervisor
        cmd = [
            sys.executable, "-m", "repro.serve.worker",
            "--index", str(self.index),
            "--config", sup.config.to_json(),
        ]
        if sup.fault_plan_path:
            cmd += ["--fault-plan", sup.fault_plan_path]
        proc = subprocess.Popen(  # noqa: S603 - fixed argv, no shell
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # inherit: worker tracebacks stay visible
            env=_worker_env(),
        )
        self._proc = proc
        try:
            self._writer, _ = await self._loop.connect_write_pipe(
                lambda: _Pipe(self, "stdin"), proc.stdin
            )
            self._reader, _ = await self._loop.connect_read_pipe(
                lambda: _Pipe(self, "stdout"), proc.stdout
            )
            if self._dead.done():  # died while the pipes were connecting
                self._close_pipes()
            ready = await asyncio.wait_for(
                asyncio.shield(self._ready), _SPAWN_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            self.kill()
            raise ClusterError(
                f"worker {self.index} did not complete the ready "
                f"handshake within {_SPAWN_TIMEOUT_S:g}s"
            ) from None
        except BaseException:  # cancelled mid-spawn: leave no orphan
            self.kill()
            raise
        if not ready:
            raise ClusterError(
                f"worker {self.index} died before its ready handshake "
                f"({self._dead.result()})"
            )
        return self

    def kill(self) -> None:
        """SIGKILL the process (hung-worker remediation and tests)."""
        self._mark_dead("killed")

    async def shutdown(self, drain_s: float) -> None:
        """Graceful stop: send ``shutdown``, wait for drain, then kill."""
        if self.alive:
            self._out.send(wire.encode_message("shutdown"))
            try:
                await asyncio.wait_for(asyncio.shield(self._dead), drain_s)
            except asyncio.TimeoutError:
                pass
        self._mark_dead("shutdown")
        await self._reaped

    # -- request path -------------------------------------------------------

    def send_query(self, call: _Call) -> None:
        """Queue ``call``'s query for this worker; its reply settles it."""
        request_id = self._next_id
        self._next_id += 1
        self._calls[request_id] = call
        self._out.send(wire.query_message(call.wire_query, request_id))

    async def stats(self, timeout_s: float = 5.0) -> Dict[str, Any]:
        """The worker's embedded-server counters snapshot."""
        if not self.alive:
            raise WorkerDiedError(f"worker {self.index} is down")
        request_id = self._next_id
        self._next_id += 1
        future: "asyncio.Future[Dict[str, Any]]" = self._loop.create_future()
        self._stats[request_id] = future
        self._out.send(wire.encode_message("stats", id=request_id))
        try:
            return await asyncio.wait_for(future, timeout_s)
        except asyncio.TimeoutError:
            raise WorkerDiedError(
                f"worker {self.index} did not answer stats"
            ) from None
        finally:
            self._stats.pop(request_id, None)

    # -- heartbeat ----------------------------------------------------------

    def ping(self, timeout_s: float) -> int:
        """Heartbeat step; returns the consecutive-miss count.

        A *miss* is the outstanding ping still unanswered after
        ``timeout_s``.  While one ping is outstanding no new one is
        sent and its timestamp is only re-stamped when a miss is
        counted — re-stamping every beat would reset the aging clock
        each ``heartbeat_s`` and a hang could never exceed a timeout
        longer than the beat interval.  Misses reset as soon as any
        pong lands.
        """
        if not self.alive:
            return self._miss_count
        now = time.monotonic()
        if self._await_pong_id is not None:
            if now - self._ping_sent_s > timeout_s:
                self._miss_count += 1
                self._ping_sent_s = now  # age toward the next miss
            return self._miss_count
        ping_id = self._next_id
        self._next_id += 1
        self._await_pong_id = ping_id
        self._ping_sent_s = now
        self._out.send(wire.encode_message("ping", id=ping_id))
        return self._miss_count

    # -- internals ----------------------------------------------------------

    def _write(self, data: bytes) -> None:
        if self._writer is not None and not self._dead.done():
            self._writer.write(data)

    def _data(self, data: bytes) -> None:
        lines = (self._partial + data).split(b"\n")
        self._partial = lines.pop()
        for line in lines:
            if not line.strip():
                continue
            try:
                message = wire.decode_line(line)
            except ConfigError:
                continue  # stray non-protocol output; never fatal
            self._route(message)

    def _route(self, message: Dict[str, Any]) -> None:
        op = message["op"]
        if op == "advisory":
            call = self._calls.pop(message.get("id"), None)  # type: ignore[arg-type]
            if call is None:
                return
            advisory = message.get("advisory")
            if isinstance(advisory, dict):
                self._supervisor._settle(call, advisory)
            else:
                self._supervisor._settle(call, exc=ClusterError(
                    f"worker {self.index} sent a bad advisory: {advisory!r}"
                ))
        elif op == "pong":
            if message.get("id") == self._await_pong_id:
                self._await_pong_id = None
                self._miss_count = 0
        elif op == "stats":
            future = self._stats.pop(message.get("id"), None)  # type: ignore[arg-type]
            if future is not None and not future.done():
                future.set_result(dict(message.get("stats") or {}))
        elif op == "ready":
            self.pid = message.get("pid")
            if not self._dead.done() and not self._ready.done():
                self.alive = True
                self._ready.set_result(True)
        # "bye" needs no action: the pipe EOF that follows it is the death.

    def _mark_dead(self, reason: str) -> None:
        """Close the pipes, kill and reap the process, orphan the calls."""
        if self._dead.done():
            return
        self._dead.set_result(reason)
        self.alive = False
        if not self._ready.done():
            self._ready.set_result(False)
        self._close_pipes()
        proc = self._proc
        if proc is not None and proc.poll() is None:
            proc.kill()  # a worker is only ever dead once it has exited
        self._reap()
        for future in self._stats.values():
            if not future.done():
                future.set_exception(
                    WorkerDiedError(f"worker {self.index} died ({reason})")
                )
        self._stats.clear()
        calls = list(self._calls.values())
        self._calls.clear()
        if calls:
            _metrics().counter("cluster.orphaned_requests").inc(len(calls))
        _event("cluster.worker_down", worker=self.index, reason=reason)
        _metrics().counter("cluster.worker_deaths").inc()
        self._supervisor._worker_died(self, calls, reason)

    def _close_pipes(self) -> None:
        for transport in (self._writer, self._reader):
            if transport is not None:
                transport.close()

    def _reap(self) -> None:
        proc = self._proc
        if proc is not None and proc.poll() is None:
            self._loop.call_later(_REAP_POLL_S, self._reap)
        elif not self._reaped.done():
            self._reaped.set_result(None)


class Supervisor:
    """N supervised worker processes behind one dispatch path.

    :meth:`dispatch` (loop side) and :meth:`submit` (any thread) route
    to the query's GPU shard, fall over to live siblings on worker
    death, shed under sustained backpressure, and degrade to an
    in-process engine when the whole fleet is down; :meth:`request`
    blocks on ``submit``, which satisfies
    :class:`~repro.serve.dispatch.Transport`.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        fault_plan_path: Optional[str] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.fault_plan_path = fault_plan_path
        n = self.config.workers
        self._handles: List[Optional[WorkerHandle]] = [None] * n
        self._down: List[bool] = [False] * n
        self._restarting: List[bool] = [False] * n
        self._restart_log: List[Deque[float]] = [
            collections.deque() for _ in range(n)
        ]
        self._policy = RetryPolicy(
            retries=self.config.restart_budget,
            backoff_s=self.config.restart_backoff_s or 0.001,
        )
        self._closed = False
        self._started = False
        self._inflight = 0
        self._request_total = 0
        self._over_streak = 0
        self._restart_total = 0
        self._shed_total = 0
        self._degraded_total = 0
        self._local: Optional[AdvisoryServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The supervisor's own loop thread, when no caller lent a loop.
        self._thread: Optional[threading.Thread] = None
        #: Guards binding the loop against racing foreign threads.
        self._loop_lock = threading.Lock()
        self._tasks: "Set[asyncio.Task[Any]]" = set()
        #: Dead handles whose process is not reaped yet.
        self._unreaped: Set[WorkerHandle] = set()

    # -- lifecycle (any thread) ---------------------------------------------

    def start(self) -> "Supervisor":
        """Spawn the fleet and the heartbeat monitor (idempotent).

        Runs on the supervisor's own loop thread, started here unless a
        coroutine already bound the supervisor to its loop.
        """
        if self._closed:
            raise ServerClosedError("cannot start a closed supervisor")
        self._run_on_loop(self.start_async())
        return self

    def close(self) -> None:
        """Drain every worker, stop the monitor, shut the fallback."""
        with self._loop_lock:
            loop, thread = self._loop, self._thread
            self._thread = None  # a second close finds nothing to stop
        if thread is not None or (loop is not None and loop.is_running()):
            self._run_on_loop(self.close_async())
        else:
            self._closed = True  # never started, or its loop is gone
            if self._local is not None:
                self._local.close()
        if thread is not None and loop is not None:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=_LOOP_CALL_TIMEOUT_S)

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        with self._loop_lock:
            if self._loop is None:
                self._loop = loop
            elif self._loop is not loop:
                raise ClusterError("supervisor already runs on another event loop")

    def _own_loop(self) -> asyncio.AbstractEventLoop:
        """The bound loop, or a new daemon thread running a fresh one."""
        loop = self._loop
        if loop is not None:
            return loop  # bound once, never rebound: no lock per submit
        with self._loop_lock:
            if self._loop is None:
                loop = asyncio.new_event_loop()
                thread = threading.Thread(
                    target=self._run_loop, args=(loop,),
                    name="repro-cluster-loop", daemon=True,
                )
                self._loop, self._thread = loop, thread
                thread.start()
            return self._loop

    @staticmethod
    def _run_loop(loop: asyncio.AbstractEventLoop) -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
        finally:
            loop.close()

    def _run_on_loop(self, coro: Any) -> Any:
        """Run ``coro`` on the supervisor's loop from a foreign thread."""
        loop = self._own_loop()
        if _running_loop() is loop:
            coro.close()
            raise RuntimeError(
                "blocking Supervisor call on its own loop; await the "
                "*_async form instead"
            )
        return asyncio.run_coroutine_threadsafe(coro, loop).result(
            timeout=_LOOP_CALL_TIMEOUT_S
        )

    # -- lifecycle (on the loop) --------------------------------------------

    async def start_async(self) -> "Supervisor":
        """Spawn the fleet on the running loop and start the monitor."""
        self._bind_loop(asyncio.get_running_loop())
        if self._closed:
            raise ServerClosedError("cannot start a closed supervisor")
        if self._started:
            return self
        self._started = True
        handles = [WorkerHandle(i, self) for i in range(self.config.workers)]
        self._handles[:] = handles
        with _span("cluster.spawn", workers=len(handles)):
            await asyncio.gather(*(h.spawn() for h in handles))
        self._spawn_task(self._monitor())
        _event("cluster.started", workers=self.config.workers)
        return self

    async def close_async(self) -> None:
        """Loop-side :meth:`close`: drain the workers, reap, stop tasks."""
        if self._closed:
            return
        self._closed = True
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        handles = [h for h in self._handles if h is not None]
        with _span("cluster.drain", workers=len(handles)):
            await asyncio.gather(
                *(h.shutdown(self.config.drain_s) for h in handles)
            )
        await asyncio.gather(*(h._reaped for h in list(self._unreaped)))
        if self._local is not None:
            self._local.close()
        _event("cluster.stopped")

    def _spawn_task(self, coro: Any) -> None:
        assert self._loop is not None
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._task_done)

    def _task_done(self, task: "asyncio.Task[Any]") -> None:
        self._tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            _event("cluster.task_failed", error=repr(task.exception()))

    # -- config hot-reload --------------------------------------------------

    def reload(self, new_config: ServeConfig) -> None:
        """Adopt a new config for policies and future restarts.

        The worker *count* is fixed for the supervisor's lifetime (the
        shard function depends on it); every other knob takes effect
        immediately for shedding/heartbeat/restart policy and at the
        next restart for in-worker batching.
        """
        pinned = dataclasses.replace(new_config, workers=self.config.workers)
        self.config = pinned
        _event("cluster.reloaded", config=pinned.describe())
        _metrics().counter("cluster.reloads").inc()

    def reload_from_json(self, text: str) -> bool:
        """SIGHUP path: parse-and-adopt; an invalid config changes nothing."""
        try:
            new_config = ServeConfig.from_json(text)
        except ConfigError as exc:
            _event("cluster.reload_rejected", error=str(exc))
            _metrics().counter("cluster.reload_rejected").inc()
            return False
        self.reload(new_config)
        return True

    # -- death / restart (on the loop) --------------------------------------

    def _worker_died(
        self, handle: WorkerHandle, calls: List[_Call], reason: str
    ) -> None:
        """Replay a dead worker's calls on siblings; schedule its restart."""
        self._unreaped.add(handle)
        handle._reaped.add_done_callback(
            lambda _: self._unreaped.discard(handle)
        )
        death = WorkerDiedError(
            f"worker {handle.index} died mid-request ({reason})"
        )
        for call in calls:
            call.death = death
            self._route(call)
        self._note_death(handle.index)

    def _note_death(self, index: int) -> None:
        """Schedule one restart attempt for worker ``index``."""
        if self._closed or self._down[index] or self._restarting[index]:
            return
        self._restarting[index] = True
        self._spawn_task(self._restart_worker(index))

    async def _restart_worker(self, index: int) -> None:
        now = time.monotonic()
        window = self._restart_log[index]
        while window and now - window[0] > self.config.restart_window_s:
            window.popleft()
        attempt = len(window)
        if attempt >= self.config.restart_budget:
            self._down[index] = True
            self._restarting[index] = False
            _event(
                "cluster.crash_loop", worker=index,
                restarts=attempt, window_s=self.config.restart_window_s,
            )
            _metrics().counter("cluster.crash_loops").inc()
            if self.config.degrade_local and self.live_workers() == 0:
                _event("cluster.degraded", reason="all workers down")
            return
        window.append(now)
        await asyncio.sleep(self._policy.delay_s(f"cluster-worker-{index}", attempt))
        if self._closed:
            self._restarting[index] = False
            return
        handle = WorkerHandle(index, self)
        try:
            await handle.spawn()  # a cancelled spawn kills its process
        except ClusterError:
            self._restarting[index] = False
            self._note_death(index)  # retry; the budget bounds the loop
            return
        # Counted before it is published: a reader that sees the new
        # worker live also sees the restart.
        self._restart_total += 1
        self._handles[index] = handle
        self._restarting[index] = False
        _event("cluster.worker_restarted", worker=index, attempt=attempt)
        _metrics().counter("cluster.restarts").inc()

    async def _monitor(self) -> None:
        while True:
            await asyncio.sleep(self.config.heartbeat_s)
            timeout_s = self.config.heartbeat_timeout_s
            max_misses = self.config.heartbeat_misses
            for index, handle in enumerate(self._handles):
                if handle is None:
                    continue
                if not handle.alive:
                    self._note_death(index)
                    continue
                misses = handle.ping(timeout_s)
                if misses >= max_misses:
                    _event(
                        "cluster.worker_hung", worker=index, misses=misses,
                    )
                    _metrics().counter("cluster.hung_workers").inc()
                    handle.kill()  # _mark_dead schedules the restart

    # -- dispatch -----------------------------------------------------------

    def submit(self, query: ShapeQuery) -> "Future[Advisory]":
        """Answer one query from any thread: a future advisory.

        One ``call_soon_threadsafe`` hop into :meth:`dispatch`, so the
        routing, failover, shedding and degrading are the loop's.
        :class:`~repro.errors.ServerClosedError` raises here; a
        :class:`~repro.errors.LoadShedError` and every later failure
        resolve the future.  The in-flight count is settled once, on
        the loop, when the reply, the failure or the deadline lands.
        """
        return self._submit(query, None)

    def request(
        self, query: ShapeQuery, timeout_s: Optional[float] = None
    ) -> Advisory:
        """Blocking wrapper: :meth:`submit` with a deadline of ``timeout_s``.

        The deadline runs on the loop, so when it expires the in-flight
        count is settled before :class:`~repro.errors.DeadlineExceededError`
        raises here, and a late reply is dropped.
        """
        loop = self._loop
        if loop is not None and _running_loop() is loop:
            raise RuntimeError(
                "Supervisor.request would block its own loop; use dispatch"
            )
        return self._submit(query, timeout_s).result()

    def _submit(
        self, query: ShapeQuery, timeout_s: Optional[float]
    ) -> "Future[Advisory]":
        if self._closed:
            raise ServerClosedError("cluster is closed")
        future: "Future[Advisory]" = Future()
        self._own_loop().call_soon_threadsafe(
            self._dispatch_future, query, future, timeout_s
        )
        return future

    def _dispatch_future(
        self,
        query: ShapeQuery,
        future: "Future[Advisory]",
        timeout_s: Optional[float],
    ) -> None:
        def done(
            advisory: Optional[Dict[str, Any]], exc: Optional[BaseException]
        ) -> None:
            if exc is not None:
                _settle_future(future, exc=exc)
                return
            try:
                _settle_future(future, result=Advisory.from_dict(advisory or {}))
            except ConfigError as bad:
                _settle_future(future, exc=ClusterError(
                    f"a worker sent a bad advisory: {bad}"
                ))

        try:
            self.dispatch(query, done, timeout_s)
        except Exception as exc:  # the caller's future reports it
            _settle_future(future, exc=exc)

    def dispatch(
        self,
        query: ShapeQuery,
        done: Done,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Loop side: admit, route and send one query.

        Must run on the supervisor's loop.  Admission errors
        (:class:`~repro.errors.LoadShedError`,
        :class:`~repro.errors.ServerClosedError`) raise here, before
        any worker is touched.  Otherwise ``done(advisory, exc)`` runs
        exactly once, later, on the loop: with the worker's advisory
        wire dict, or with ``None`` and the failure — the last
        :class:`~repro.errors.WorkerDiedError` when no sibling is left
        to replay on and ``degrade_local`` is off, or
        :class:`~repro.errors.DeadlineExceededError` when no answer
        came within ``timeout_s``.
        """
        self._admit(query)
        call = _Call(query, done, self._candidates(query))
        if timeout_s is not None:
            assert self._loop is not None  # bound before any dispatch
            call.timer = self._loop.call_later(
                timeout_s, self._expire, call, timeout_s
            )
        with _span("cluster.request", kind=query.kind, gpu=query.gpu):
            self._route(call)

    def _admit(self, query: ShapeQuery) -> None:
        if self._closed:
            raise ServerClosedError("cluster is closed")
        if self._inflight >= self.config.shed_depth:
            self._over_streak += 1
        else:
            self._over_streak = 0
        if (
            self._over_streak >= self.config.shed_after
            and query.priority <= self.config.shed_priority
        ):
            self._shed_total += 1
            _metrics().counter("cluster.shed").inc()
            _event(
                "cluster.shed", priority=query.priority,
                inflight=self._inflight,
            )
            raise LoadShedError(
                f"cluster shed priority-{query.priority} query under "
                f"sustained backpressure (in-flight {self._inflight} >= "
                f"{self.config.shed_depth})"
            )
        self._inflight += 1
        # Loop state, not a registry counter: a counter takes a lock.
        self._request_total += 1

    def _candidates(self, query: ShapeQuery) -> List[WorkerHandle]:
        """Live workers in routing order: home shard first, then siblings."""
        handles = self._handles
        try:
            home = shard_for(get_gpu(query.gpu).name, len(handles))
        except ReproError:
            home = 0  # unknown GPU: any worker returns the same failure
        order = [home] + [i for i in range(len(handles)) if i != home]
        return [
            h for h in (handles[i] for i in order)
            if h is not None and h.alive
        ]

    def _route(self, call: _Call) -> None:
        """Hand ``call`` to its next live candidate, or degrade."""
        if call.done is None:
            return  # already answered (its deadline passed)
        try:
            while call.candidates:
                handle = call.candidates.pop(0)
                if handle.alive:
                    handle.send_query(call)
                    return
            self._degrade(call)
        except Exception as exc:  # never leave an admitted query pending
            self._fail_later(call, exc)

    def _settle(
        self,
        call: _Call,
        advisory: Optional[Dict[str, Any]] = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        """Answer ``call`` once and free its in-flight slot."""
        done = call.done
        if done is None:
            return  # late: the deadline already answered it
        call.done = None
        if call.timer is not None:
            call.timer.cancel()
        self._inflight -= 1
        done(advisory, exc)

    def _fail_later(self, call: _Call, exc: BaseException) -> None:
        """Settle with ``exc`` on a later loop turn, never inside dispatch."""
        assert self._loop is not None
        self._loop.call_soon(self._settle, call, None, exc)

    def _expire(self, call: _Call, timeout_s: float) -> None:
        call.timer = None
        self._settle(call, exc=DeadlineExceededError(
            f"cluster gave no advisory within {timeout_s}s"
        ))

    def _degrade(self, call: _Call) -> None:
        """The whole fleet is down (or died while we were failing over)."""
        if self._closed:
            self._fail_later(call, ServerClosedError("cluster is closed"))
            return
        if not self.config.degrade_local:
            self._fail_later(
                call, call.death or ClusterError("no live workers")
            )
            return
        loop = self._loop
        assert loop is not None
        local_future = self._local_server().submit(call.query)
        local_future.add_done_callback(
            lambda done: loop.call_soon_threadsafe(self._degraded, call, done)
        )

    def _degraded(self, call: _Call, done: "Future[Advisory]") -> None:
        exc = done.exception()
        if exc is not None:
            self._settle(call, exc=exc)
            return
        advisory = done.result()
        advisory.source = "degraded"
        self._degraded_total += 1
        _metrics().counter("cluster.degraded_requests").inc()
        self._settle(call, advisory.to_dict())

    def _local_server(self) -> AdvisoryServer:
        if self._local is None:
            self._local = AdvisoryServer(
                config=self.config.worker_config()
            ).start()
        return self._local

    # -- introspection (any thread: reads of loop state) --------------------

    def live_workers(self) -> int:
        return sum(1 for h in list(self._handles) if h is not None and h.alive)

    def worker_pids(self) -> List[Optional[int]]:
        return [
            h.pid if h is not None and h.alive else None
            for h in list(self._handles)
        ]

    def cluster_stats(self) -> Dict[str, Any]:
        """Cluster-level counters (the worker-internal ones aggregate
        separately via :meth:`worker_stats`)."""
        return {
            "workers": self.config.workers,
            "live": self.live_workers(),
            "down": [i for i, d in enumerate(self._down) if d],
            "inflight": self._inflight,
            "requests": self._request_total,
            "restarts": self._restart_total,
            "shed": self._shed_total,
            "degraded": self._degraded_total,
        }

    def worker_stats(self) -> Dict[str, Any]:
        """Aggregated embedded-server counters across live workers."""
        loop = self._loop
        if loop is None or not loop.is_running():
            return {}
        return self._run_on_loop(self.worker_stats_async())

    async def worker_stats_async(self) -> Dict[str, Any]:
        """Loop-side :meth:`worker_stats`."""
        live = [h for h in self._handles if h is not None and h.alive]
        snapshots = await asyncio.gather(
            *(h.stats() for h in live), return_exceptions=True
        )
        totals: Dict[str, Any] = {}
        for snapshot in snapshots:
            if isinstance(snapshot, ReproError):
                continue  # died or stayed silent; skip it
            if isinstance(snapshot, BaseException):
                raise snapshot
            for key, value in snapshot.items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        return totals
