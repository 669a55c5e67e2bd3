"""Worker-process supervision: spawn, heartbeat, restart, shed, degrade.

The supervision tree has three layers.  :class:`WorkerHandle` owns one
OS process — spawn with ready-handshake, a reader thread demultiplexing
id-correlated responses, heartbeat bookkeeping, and a kill switch.
:class:`Supervisor` owns N handles plus the cluster-wide policies the
issue's robustness story is about:

- **health checks** — a monitor thread pings every worker each
  ``heartbeat_s``; a worker whose pong is slower than
  ``heartbeat_timeout_s`` for ``heartbeat_misses`` consecutive beats is
  declared hung and killed (then restarted like any crash).
- **crash recovery** — worker death (crash, SIGKILL, torn pipe) fails
  its in-flight requests with :class:`~repro.errors.WorkerDiedError`;
  each request's done-callback replays it on a live sibling (queries
  are idempotent), while a restart thread respawns the dead worker after
  :class:`~repro.resilience.execute.RetryPolicy` exponential backoff.
  A worker that dies ``restart_budget`` times within
  ``restart_window_s`` is a crash loop and stays down.
- **load shedding** — when cluster-wide in-flight depth exceeds
  ``shed_depth`` for ``shed_after`` consecutive admissions (sustained
  backpressure, not a blip), queries with ``priority <=
  shed_priority`` are rejected with
  :class:`~repro.errors.LoadShedError` before touching a worker.
- **degraded mode** — with every worker down and ``degrade_local``
  on, the supervisor answers from a lazily-built in-process
  :class:`~repro.serve.server.AdvisoryServer` and stamps the advisory
  ``source="degraded"`` (payloads stay bit-identical — same engine).

Dispatch is future-based: :meth:`Supervisor.submit` admits, routes
and sends a query, then returns a ``concurrent.futures.Future`` that
the worker's reader thread resolves; failover and degradation chain
from done-callbacks, so no thread waits on a worker.
:meth:`Supervisor.request` is the blocking wrapper that makes the
supervisor a :class:`~repro.serve.dispatch.Transport`.  The third
layer, the asyncio socket front-end in :mod:`repro.serve.cluster`,
awaits the futures on its event loop.
"""

from __future__ import annotations

import collections
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Deque, Dict, List, Optional

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

__all__ = ["Supervisor", "WorkerHandle"]

#: How long a spawned worker may take to emit its ready handshake
#: (covers interpreter start + imports on a cold, loaded machine).
_SPAWN_TIMEOUT_S = 60.0


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


class WorkerHandle:
    """One worker process: pipe protocol, heartbeats, pending futures.

    All mutable state is guarded by one lock; response routing runs on
    a dedicated reader thread so requests from many threads multiplex
    onto the single stdin pipe with id correlation.
    """

    def __init__(
        self,
        index: int,
        config: ServeConfig,
        fault_plan_path: Optional[str] = None,
    ) -> None:
        self.index = index
        self.config = config
        self.fault_plan_path = fault_plan_path
        self._lock = threading.Lock()
        self._proc: Optional["subprocess.Popen[str]"] = None
        self._alive = False
        self._pid: Optional[int] = None
        self._next_id = 0
        self._pending: Dict[int, "Future[Any]"] = {}
        self._await_pong_id: Optional[int] = None
        self._ping_sent_s = 0.0
        self._miss_count = 0
        self._on_death: Optional[Any] = None
        self._ready = threading.Event()
        self._saw_bye = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    def spawn(self, on_death: Optional[Any] = None) -> "WorkerHandle":
        """Start the process and block for its ready handshake."""
        cmd = [
            sys.executable, "-m", "repro.serve.worker",
            "--index", str(self.index),
            "--config", self.config.to_json(),
        ]
        if self.fault_plan_path:
            cmd += ["--fault-plan", self.fault_plan_path]
        proc = subprocess.Popen(  # noqa: S603 - fixed argv, no shell
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # inherit: worker tracebacks stay visible
            text=True,
            bufsize=1,
            env=_worker_env(),
        )
        with self._lock:
            self._proc = proc
            self._alive = True
            self._on_death = on_death
        reader = threading.Thread(
            target=self._reader_loop, name=f"repro-cluster-read-{self.index}",
            daemon=True,
        )
        reader.start()
        if not self._ready.wait(_SPAWN_TIMEOUT_S):
            self.kill()
            raise ClusterError(
                f"worker {self.index} did not complete the ready "
                f"handshake within {_SPAWN_TIMEOUT_S:g}s"
            )
        return self

    @property
    def alive(self) -> bool:
        with self._lock:
            return self._alive

    @property
    def pid(self) -> Optional[int]:
        with self._lock:
            return self._pid

    def kill(self) -> None:
        """SIGKILL the process (hung-worker remediation and tests)."""
        with self._lock:
            proc = self._proc
        if proc is not None and proc.poll() is None:
            proc.kill()
        self._mark_dead("killed")

    def shutdown(self, drain_s: float) -> None:
        """Graceful stop: send ``shutdown``, wait for drain, then kill."""
        try:
            self._send(wire.encode_message("shutdown"))
        except WorkerDiedError:
            return
        with self._lock:
            proc = self._proc
        if proc is not None:
            try:
                proc.wait(timeout=drain_s)
            except subprocess.TimeoutExpired:
                proc.kill()
        self._mark_dead("shutdown")

    # -- request path -------------------------------------------------------

    def submit(self, query: ShapeQuery) -> "Future[Advisory]":
        """Send one query down the pipe; the future resolves off-thread."""
        future: "Future[Advisory]" = Future()
        with self._lock:
            if not self._alive:
                raise WorkerDiedError(f"worker {self.index} is down")
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = future
        self._send(wire.query_message(query.to_dict(), request_id))
        return future

    def stats(self, timeout_s: float = 5.0) -> Dict[str, Any]:
        """The worker's embedded-server counters snapshot."""
        future: "Future[Dict[str, Any]]" = Future()
        with self._lock:
            if not self._alive:
                raise WorkerDiedError(f"worker {self.index} is down")
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = future
        self._send(wire.encode_message("stats", id=request_id))
        try:
            return future.result(timeout=timeout_s)
        except FutureTimeoutError:
            raise WorkerDiedError(
                f"worker {self.index} did not answer stats"
            ) from None

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
        now = time.monotonic()
        ping_id: Optional[int] = None
        with self._lock:
            if not self._alive:
                return self._miss_count
            if self._await_pong_id is not None:
                if now - self._ping_sent_s > timeout_s:
                    self._miss_count += 1
                    self._ping_sent_s = now  # age toward the next miss
            else:
                ping_id = self._next_id
                self._next_id += 1
                self._await_pong_id = ping_id
                self._ping_sent_s = now
            misses = self._miss_count
        if ping_id is not None:
            try:
                self._send(wire.encode_message("ping", id=ping_id))
            except WorkerDiedError:
                pass
        return misses

    # -- internals ----------------------------------------------------------

    def _send(self, line: str) -> None:
        with self._lock:
            proc = self._proc if self._alive else None
        if proc is None or proc.stdin is None:
            raise WorkerDiedError(f"worker {self.index} is down")
        try:
            with self._lock:
                proc.stdin.write(line)
                proc.stdin.flush()
        except (OSError, ValueError) as exc:
            self._mark_dead(f"torn pipe: {exc}")
            raise WorkerDiedError(
                f"worker {self.index} pipe is torn: {exc}"
            ) from exc

    def _reader_loop(self) -> None:
        with self._lock:
            proc = self._proc
        if proc is None or proc.stdout is None:  # pragma: no cover
            return
        for line in proc.stdout:
            if not line.strip():
                continue
            try:
                message = wire.decode_line(line)
            except ConfigError:
                continue  # stray non-protocol output; never fatal
            self._route(message)
        self._mark_dead("stdout EOF")

    def _route(self, message: Dict[str, Any]) -> None:
        op = message["op"]
        if op == "ready":
            with self._lock:
                self._pid = message.get("pid")
            self._ready.set()
            return
        if op == "bye":
            self._saw_bye.set()
            return
        if op == "pong":
            with self._lock:
                if message.get("id") == self._await_pong_id:
                    self._await_pong_id = None
                    self._miss_count = 0
            return
        if op in ("advisory", "stats"):
            with self._lock:
                future = self._pending.pop(message.get("id"), None)  # type: ignore[arg-type]
            if future is None:
                return
            try:
                if op == "advisory":
                    future.set_result(
                        Advisory.from_dict(message.get("advisory") or {})
                    )
                else:
                    future.set_result(dict(message.get("stats") or {}))
            except ConfigError as exc:
                future.set_exception(
                    ClusterError(f"worker {self.index} sent a bad {op}: {exc}")
                )

    def _mark_dead(self, reason: str) -> None:
        with self._lock:
            if not self._alive:
                return
            self._alive = False
            pending = list(self._pending.values())
            self._pending.clear()
            on_death = self._on_death
        self._ready.set()  # unblock a spawn() waiting on a stillborn child
        for future in pending:
            if not future.done():
                future.set_exception(
                    WorkerDiedError(
                        f"worker {self.index} died mid-request ({reason})"
                    )
                )
        if pending:
            _metrics().counter("cluster.orphaned_requests").inc(len(pending))
        _event("cluster.worker_down", worker=self.index, reason=reason)
        _metrics().counter("cluster.worker_deaths").inc()
        if on_death is not None:
            on_death(self.index)


class Supervisor:
    """N supervised worker processes behind one dispatch path.

    :meth:`submit` routes to the query's GPU shard, falls over to live
    siblings on worker death, sheds under sustained backpressure, and
    degrades to an in-process engine when the whole fleet is down;
    :meth:`request` blocks on it, which satisfies
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
        self._lock = threading.Lock()
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
        self._over_streak = 0
        self._restart_total = 0
        self._shed_total = 0
        self._degraded_total = 0
        self._local: Optional[AdvisoryServer] = None
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Supervisor":
        """Spawn the fleet and the heartbeat monitor (idempotent)."""
        with self._lock:
            if self._closed:
                raise ServerClosedError("cannot start a closed supervisor")
            if self._started:
                return self
            self._started = True
        with _span("cluster.spawn", workers=self.config.workers):
            for index in range(self.config.workers):
                handle = WorkerHandle(
                    index, self.config, self.fault_plan_path
                )
                handle.spawn(on_death=self._note_death)
                with self._lock:
                    self._handles[index] = handle
        monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor",
            daemon=True,
        )
        with self._lock:
            self._monitor = monitor
        monitor.start()
        _event("cluster.started", workers=self.config.workers)
        return self

    def close(self) -> None:
        """Drain every worker, stop the monitor, shut the fallback."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
            local = self._local
            monitor = self._monitor
        self._stop.set()
        if monitor is not None:
            monitor.join(timeout=5.0)
        with _span("cluster.drain", workers=len(handles)):
            for handle in handles:
                if handle is not None and handle.alive:
                    handle.shutdown(self.config.drain_s)
        if local is not None:
            local.close()
        _event("cluster.stopped")

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # -- config hot-reload --------------------------------------------------

    def reload(self, new_config: ServeConfig) -> None:
        """Adopt a new config for policies and future restarts.

        The worker *count* is fixed for the supervisor's lifetime (the
        shard function depends on it); every other knob takes effect
        immediately for shedding/heartbeat/restart policy and at the
        next restart for in-worker batching.
        """
        import dataclasses

        pinned = dataclasses.replace(new_config, workers=self.config.workers)
        with self._lock:
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

    # -- death / restart ----------------------------------------------------

    def _note_death(self, index: int) -> None:
        """Reader/monitor callback: schedule one restart attempt."""
        with self._lock:
            if self._closed or self._down[index] or self._restarting[index]:
                return
            self._restarting[index] = True
        thread = threading.Thread(
            target=self._restart_worker, args=(index,),
            name=f"repro-cluster-restart-{index}", daemon=True,
        )
        thread.start()

    def _restart_worker(self, index: int) -> None:
        now = time.monotonic()
        with self._lock:
            window = self._restart_log[index]
            while window and now - window[0] > self.config.restart_window_s:
                window.popleft()
            attempt = len(window)
            exhausted = attempt >= self.config.restart_budget
            if exhausted:
                self._down[index] = True
                self._restarting[index] = False
                live = sum(
                    1 for h in self._handles if h is not None and h.alive
                )
                degraded = self.config.degrade_local and live == 0
                window_s = self.config.restart_window_s
            else:
                window.append(now)
        if exhausted:
            _event(
                "cluster.crash_loop", worker=index,
                restarts=attempt, window_s=window_s,
            )
            _metrics().counter("cluster.crash_loops").inc()
            if degraded:
                _event("cluster.degraded", reason="all workers down")
            return
        delay = self._policy.delay_s(f"cluster-worker-{index}", attempt)
        time.sleep(delay)
        with self._lock:
            if self._closed:
                self._restarting[index] = False
                return
            config = self.config
        handle = WorkerHandle(index, config, self.fault_plan_path)
        try:
            handle.spawn(on_death=self._note_death)
        except ClusterError:
            with self._lock:
                self._restarting[index] = False
            self._note_death(index)  # retry; the budget bounds the loop
            return
        with self._lock:
            self._handles[index] = handle
            self._restarting[index] = False
            self._restart_total += 1
        _event("cluster.worker_restarted", worker=index, attempt=attempt)
        _metrics().counter("cluster.restarts").inc()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.config.heartbeat_s):
            with self._lock:
                handles = list(self._handles)
                timeout_s = self.config.heartbeat_timeout_s
                max_misses = self.config.heartbeat_misses
            for index, handle in enumerate(handles):
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
                    handle.kill()  # _mark_dead fires _note_death

    # -- dispatch -----------------------------------------------------------

    def submit(self, query: ShapeQuery) -> "Future[Advisory]":
        """Asynchronously answer one query: shed, route, fail over, or degrade.

        Admission is synchronous: :class:`~repro.errors.LoadShedError`
        and :class:`~repro.errors.ServerClosedError` raise here, before
        any worker is touched.  The returned future resolves off-thread
        (on a worker's reader thread); it never blocks the caller.  A
        worker that dies with the query in flight fails over to the
        next live sibling from its done-callback (queries are
        idempotent), and with no sibling left the query degrades to the
        in-process server or fails typed.  The in-flight count is
        settled once, when the future completes or is cancelled.
        """
        self._admit(query)
        outer: "Future[Advisory]" = Future()
        outer.add_done_callback(self._settle)
        with _span("cluster.request", kind=query.kind, gpu=query.gpu):
            self._send(query, outer, self._candidates(query), None)
        return outer

    def request(
        self, query: ShapeQuery, timeout_s: Optional[float] = None
    ) -> Advisory:
        """Blocking wrapper: :meth:`submit`, then wait up to ``timeout_s``."""
        future = self.submit(query)
        try:
            return future.result(timeout=timeout_s)
        except FutureTimeoutError:
            future.cancel()  # settles the in-flight count now
            raise DeadlineExceededError(
                f"cluster gave no advisory within {timeout_s}s"
            ) from None

    def _settle(self, _future: "Future[Advisory]") -> None:
        with self._lock:
            self._inflight -= 1

    def _admit(self, query: ShapeQuery) -> None:
        with self._lock:
            if self._closed:
                raise ServerClosedError("cluster is closed")
            if self._inflight >= self.config.shed_depth:
                self._over_streak += 1
            else:
                self._over_streak = 0
            shed = (
                self._over_streak >= self.config.shed_after
                and query.priority <= self.config.shed_priority
            )
            if shed:
                self._shed_total += 1
                depth = self._inflight
            else:
                self._inflight += 1
        if shed:
            _metrics().counter("cluster.shed").inc()
            _event(
                "cluster.shed", priority=query.priority, inflight=depth,
            )
            raise LoadShedError(
                f"cluster shed priority-{query.priority} query under "
                f"sustained backpressure (in-flight {depth} >= "
                f"{self.config.shed_depth})"
            )
        _metrics().counter("cluster.requests").inc()

    def _candidates(self, query: ShapeQuery) -> List[WorkerHandle]:
        """Live workers in routing order: home shard first, then siblings."""
        try:
            home = shard_for(get_gpu(query.gpu).name, self.config.workers)
        except ReproError:
            home = 0  # unknown GPU: any worker returns the same failure
        with self._lock:
            handles = list(self._handles)
        order = [home] + [i for i in range(len(handles)) if i != home]
        live: List[WorkerHandle] = []
        for i in order:
            handle = handles[i]
            if handle is not None and handle.alive:
                live.append(handle)
        return live

    def _send(
        self,
        query: ShapeQuery,
        outer: "Future[Advisory]",
        candidates: List[WorkerHandle],
        death: Optional[WorkerDiedError],
    ) -> None:
        """Hand ``query`` to the first candidate that takes it.

        ``candidates`` are the live workers in routing order at
        admission, minus those already tried; ``death`` is the failure
        that sent the query here (``None`` on first dispatch).  Any
        error resolves ``outer`` instead of escaping, because this also
        runs on worker reader threads.
        """
        try:
            for position, handle in enumerate(candidates):
                if outer.done():
                    return  # cancelled by the caller; nothing to answer
                try:
                    inner = handle.submit(query)
                except WorkerDiedError as exc:
                    death = exc
                    continue
                siblings = candidates[position + 1:]
                inner.add_done_callback(
                    lambda done: self._on_reply(done, query, outer, siblings)
                )
                return
            self._degrade(query, outer, death)
        except Exception as exc:  # never leave an admitted query pending
            _settle_future(outer, exc=exc)

    def _on_reply(
        self,
        inner: "Future[Advisory]",
        query: ShapeQuery,
        outer: "Future[Advisory]",
        siblings: List[WorkerHandle],
    ) -> None:
        """Worker reply callback: resolve, or replay on the next sibling."""
        exc = inner.exception()
        if isinstance(exc, WorkerDiedError):
            self._send(query, outer, siblings, exc)
        elif exc is not None:
            _settle_future(outer, exc=exc)
        else:
            _settle_future(outer, result=inner.result())

    def _degrade(
        self,
        query: ShapeQuery,
        outer: "Future[Advisory]",
        last_death: Optional[WorkerDiedError],
    ) -> None:
        """The whole fleet is down (or died while we were failing over)."""
        with self._lock:
            degrade = self.config.degrade_local
        if not degrade:
            _settle_future(
                outer, exc=last_death or ClusterError("no live workers")
            )
            return
        local_future = self._local_server().submit(query)

        def finish(done: "Future[Advisory]") -> None:
            exc = done.exception()
            if exc is not None:
                _settle_future(outer, exc=exc)
                return
            advisory = done.result()
            advisory.source = "degraded"
            with self._lock:
                self._degraded_total += 1
            _metrics().counter("cluster.degraded_requests").inc()
            _settle_future(outer, result=advisory)

        local_future.add_done_callback(finish)

    def _local_server(self) -> AdvisoryServer:
        with self._lock:
            if self._local is None:
                self._local = AdvisoryServer(
                    config=self.config.worker_config()
                ).start()
            return self._local

    # -- introspection ------------------------------------------------------

    def live_workers(self) -> int:
        with self._lock:
            return sum(
                1 for h in self._handles if h is not None and h.alive
            )

    def worker_pids(self) -> List[Optional[int]]:
        with self._lock:
            handles = list(self._handles)
        return [h.pid if h is not None and h.alive else None for h in handles]

    def cluster_stats(self) -> Dict[str, Any]:
        """Cluster-level counters (the worker-internal ones aggregate
        separately via :meth:`worker_stats`)."""
        with self._lock:
            return {
                "workers": self.config.workers,
                "live": sum(
                    1 for h in self._handles if h is not None and h.alive
                ),
                "down": [i for i, d in enumerate(self._down) if d],
                "inflight": self._inflight,
                "restarts": self._restart_total,
                "shed": self._shed_total,
                "degraded": self._degraded_total,
            }

    def worker_stats(self) -> Dict[str, Any]:
        """Aggregated embedded-server counters across live workers."""
        totals: Dict[str, Any] = {}
        with self._lock:
            handles = [h for h in self._handles if h is not None]
        for handle in handles:
            if not handle.alive:
                continue
            try:
                snapshot = handle.stats()
            except (WorkerDiedError, ClusterError):
                continue
            for key, value in snapshot.items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        return totals
