"""Supervision tree behaviour: spawn, heartbeat, crash recovery,
crash-loop budget, degraded mode, hot-reload, and shedding.

These tests drive real worker *processes* (the same ``python -m
repro.serve.worker`` the production supervisor spawns), so they lean on
polling helpers with generous deadlines rather than sleeps of fixed
length — worker boot time is interpreter + imports and varies with
machine load.
"""

import asyncio
import os
import signal
import sys
import threading
import time

import pytest

from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    LoadShedError,
    ServeError,
    ServerClosedError,
)
from repro.gpu.specs import get_gpu
from repro.serve import wire
from repro.serve.config import ServeConfig
from repro.serve.protocol import Advisory, ShapeQuery
from repro.serve.server import AdvisoryServer, shard_for
from repro.serve.supervisor import Supervisor, WorkerHandle

#: Worker boot is interpreter start + imports; generous for loaded CI.
_BOOT_S = 60.0


def _query(**kw):
    base = dict(kind="latency", m=256, n=256, k=256, gpu="A100")
    base.update(kw)
    return ShapeQuery(**base)


def _fast_config(**kw):
    base = dict(
        workers=2,
        cache_ttl_s=0,
        heartbeat_s=0.05,
        heartbeat_timeout_s=0.25,
        heartbeat_misses=3,
        restart_backoff_s=0.01,
        restart_budget=2,
        restart_window_s=30.0,
        drain_s=10.0,
    )
    base.update(kw)
    return ServeConfig(**base)


def _wait_for(predicate, timeout_s=_BOOT_S, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestLifecycle:
    def test_request_matches_in_process_server(self):
        query = _query()
        with AdvisoryServer(ServeConfig(workers=1, cache_ttl_s=0)) as local:
            expected = local.request(query, timeout_s=_BOOT_S).payload
        with Supervisor(_fast_config()) as sup:
            advisory = sup.request(query, timeout_s=_BOOT_S)
        assert advisory.ok
        assert advisory.source != "degraded"
        assert advisory.payload == expected  # bit-identical across the pipe

    def test_start_is_idempotent_and_close_is_terminal(self):
        sup = Supervisor(_fast_config(workers=1))
        assert sup.start() is sup
        assert sup.start() is sup
        assert sup.live_workers() == 1
        sup.close()
        sup.close()  # second close is a no-op
        with pytest.raises(ServerClosedError):
            sup.request(_query())
        with pytest.raises(ServerClosedError):
            sup.start()

    def test_stats_shape(self):
        with Supervisor(_fast_config()) as sup:
            sup.request(_query(), timeout_s=_BOOT_S)
            stats = sup.cluster_stats()
            assert stats["workers"] == 2
            assert stats["live"] == 2
            assert stats["down"] == []
            assert stats["restarts"] == 0
            worker_totals = sup.worker_stats()
            assert worker_totals.get("served", 0) >= 1


class TestCrashRecovery:
    def test_sigkill_worker_restarts_and_requests_survive(self):
        with Supervisor(_fast_config()) as sup:
            sup.request(_query(), timeout_s=_BOOT_S)
            victim = next(p for p in sup.worker_pids() if p is not None)
            os.kill(victim, signal.SIGKILL)
            # Failover: requests during the outage land on the sibling.
            for _ in range(5):
                assert sup.request(_query(), timeout_s=_BOOT_S).ok
            # The five answers can all land before the loop reads the
            # victim's EOF, so wait for the restart, not only for two
            # live workers (which also holds before the death is seen).
            assert _wait_for(
                lambda: sup.cluster_stats()["restarts"] >= 1
                and sup.live_workers() == 2
            )
            stats = sup.cluster_stats()
            assert stats["restarts"] >= 1
            assert stats["down"] == []
            assert victim not in sup.worker_pids()

    def test_crash_loop_exhausts_budget_and_degrades(self):
        config = _fast_config(workers=1, restart_budget=1, degrade_local=True)
        with Supervisor(config) as sup:
            sup.request(_query(), timeout_s=_BOOT_S)

            def kill_current():
                pids = [p for p in sup.worker_pids() if p is not None]
                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
                return bool(pids)

            # First death consumes the only budgeted restart; the
            # second marks the worker down for good.
            kill_current()
            assert _wait_for(lambda: sup.cluster_stats()["restarts"] >= 1)
            assert _wait_for(kill_current)
            assert _wait_for(lambda: sup.cluster_stats()["down"] == [0])
            # Degraded mode still answers, bit-identically, and says so.
            advisory = sup.request(_query(), timeout_s=_BOOT_S)
            assert advisory.ok
            assert advisory.source == "degraded"
            assert sup.cluster_stats()["degraded"] >= 1
            # The crash loop stays down: no restart resurrects it.
            assert sup.live_workers() == 0

    def test_all_workers_down_without_degrade_raises_typed(self):
        config = _fast_config(
            workers=1, restart_budget=1, degrade_local=False,
        )
        with Supervisor(config) as sup:
            sup.request(_query(), timeout_s=_BOOT_S)
            first = next(p for p in sup.worker_pids() if p is not None)
            os.kill(first, signal.SIGKILL)
            # Wait for the budgeted restart to produce a *new* pid
            # before the second kill, so two distinct deaths land.
            assert _wait_for(
                lambda: any(
                    p not in (None, first) for p in sup.worker_pids()
                )
            )
            second = next(
                p for p in sup.worker_pids() if p not in (None, first)
            )
            os.kill(second, signal.SIGKILL)
            assert _wait_for(lambda: sup.cluster_stats()["down"] == [0])
            with pytest.raises((ClusterError, ServeError)):
                sup.request(_query(), timeout_s=_BOOT_S)

    def test_hung_worker_is_detected_and_replaced(self):
        config = _fast_config(
            workers=1, heartbeat_s=0.05, heartbeat_timeout_s=0.2,
            heartbeat_misses=2, restart_budget=5,
        )
        with Supervisor(config) as sup:
            sup.request(_query(), timeout_s=_BOOT_S)
            victim = next(p for p in sup.worker_pids() if p is not None)
            os.kill(victim, signal.SIGSTOP)  # alive but unresponsive
            try:
                assert _wait_for(
                    lambda: sup.cluster_stats()["restarts"] >= 1
                )
                assert _wait_for(lambda: sup.live_workers() == 1)
                assert victim not in sup.worker_pids()
            finally:
                try:
                    os.kill(victim, signal.SIGCONT)
                except ProcessLookupError:
                    pass  # already SIGKILLed by the monitor
            assert sup.request(_query(), timeout_s=_BOOT_S).ok


class TestHotReload:
    def test_reload_adopts_policy_but_pins_worker_count(self):
        with Supervisor(_fast_config(workers=2, shed_depth=512)) as sup:
            new = _fast_config(workers=8, shed_depth=64)
            sup.reload(new)
            assert sup.config.shed_depth == 64
            assert sup.config.workers == 2  # shard function is fixed
            assert sup.live_workers() == 2

    def test_reload_from_json_rejects_invalid_and_keeps_old(self):
        config = _fast_config(workers=1, shed_depth=512)
        with Supervisor(config) as sup:
            before = sup.config
            assert sup.reload_from_json('{"workers": -3}') is False
            assert sup.config is before
            assert sup.reload_from_json("{not json") is False
            assert sup.config is before
            assert sup.reload_from_json('{"shed_depth": 128}') is True
            assert sup.config.shed_depth == 128
            assert sup.request(_query(), timeout_s=_BOOT_S).ok


class TestLoadShedding:
    def test_sustained_backpressure_sheds_low_priority_only(self):
        config = _fast_config(
            workers=1, shed_depth=1, shed_after=1, shed_priority=3,
        )
        sup = Supervisor(config)  # not started: _admit is pre-dispatch
        try:
            # One admitted request holds the in-flight depth at the
            # shed threshold; the next low-priority admission sheds.
            sup._admit(_query(priority=9))
            with pytest.raises(LoadShedError):
                sup._admit(_query(priority=0))
            # At the boundary: priority == shed_priority is shed...
            with pytest.raises(LoadShedError):
                sup._admit(_query(priority=3))
            # ...but higher priorities always pass.
            sup._admit(_query(priority=4))
            assert sup.cluster_stats()["shed"] == 2
        finally:
            sup.close()

    def test_blip_below_shed_after_is_not_shed(self):
        config = _fast_config(
            workers=1, shed_depth=1, shed_after=3, shed_priority=9,
        )
        sup = Supervisor(config)
        try:
            sup._admit(_query())  # depth 0 -> 1
            sup._admit(_query())  # over-depth streak 1
            sup._admit(_query())  # streak 2: still below shed_after
            with pytest.raises(LoadShedError):
                sup._admit(_query())  # streak 3: sheds
        finally:
            sup.close()


class TestFuturePath:
    """``Supervisor.submit``: futures, failover from the done-callback,
    and the in-flight count settled exactly once per request."""

    def test_submit_resolves_without_blocking(self):
        with Supervisor(_fast_config()) as sup:
            futures = [sup.submit(_query(m=256 + i)) for i in range(8)]
            advisories = [f.result(timeout=_BOOT_S) for f in futures]
            assert all(a.ok and a.source != "degraded" for a in advisories)
            assert [a.query.m for a in advisories] == [
                256 + i for i in range(8)
            ]
            assert _wait_for(lambda: sup.cluster_stats()["inflight"] == 0)

    def test_concurrent_submitters_settle_inflight_exactly_once(self):
        # More submitting threads than cores and a short switch interval:
        # a lost update to the shared in-flight count would leave it
        # off zero once every future has resolved.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Supervisor(_fast_config()) as sup:
                results = []

                def drive(t):
                    futures = [
                        sup.submit(_query(m=64 * (1 + (t * 25 + i) % 40)))
                        for i in range(25)
                    ]
                    results.extend(f.result(timeout=_BOOT_S) for f in futures)

                threads = [
                    threading.Thread(target=drive, args=(t,)) for t in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=_BOOT_S)
                assert not any(thread.is_alive() for thread in threads)
                assert len(results) == 200
                assert all(a.ok for a in results)
                assert _wait_for(lambda: sup.cluster_stats()["inflight"] == 0)
        finally:
            sys.setswitchinterval(switch)

    def test_sigkill_home_worker_replays_pending_futures_on_sibling(self):
        queries = [_query(m=128 + 8 * i) for i in range(12)]
        with AdvisoryServer(ServeConfig(workers=1, cache_ttl_s=0)) as local:
            expected = [
                local.request(q, timeout_s=_BOOT_S).payload for q in queries
            ]
        # A slow heartbeat keeps the monitor from killing the stopped
        # worker first: the SIGKILL below is the only death.
        config = _fast_config(heartbeat_s=30.0, heartbeat_timeout_s=30.0)
        with Supervisor(config) as sup:
            home = shard_for(get_gpu("A100").name, config.workers)
            victim = sup.worker_pids()[home]
            os.kill(victim, signal.SIGSTOP)  # queries reach it, no answers
            try:
                futures = [sup.submit(q) for q in queries]
                time.sleep(0.2)
                assert not any(f.done() for f in futures)
                assert sup.cluster_stats()["inflight"] == len(queries)
            finally:
                os.kill(victim, signal.SIGKILL)
            advisories = [f.result(timeout=_BOOT_S) for f in futures]
            assert all(a.ok for a in advisories)
            assert all(a.source != "degraded" for a in advisories)
            assert [a.payload for a in advisories] == expected
            assert _wait_for(lambda: sup.cluster_stats()["inflight"] == 0)
            assert _wait_for(lambda: sup.cluster_stats()["restarts"] >= 1)

    def test_request_timeout_is_typed_and_settles_inflight(self):
        config = _fast_config(
            workers=1, heartbeat_s=30.0, heartbeat_timeout_s=30.0,
        )
        with Supervisor(config) as sup:
            victim = sup.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            try:
                with pytest.raises(DeadlineExceededError):
                    sup.request(_query(), timeout_s=0.2)
                assert sup.cluster_stats()["inflight"] == 0
            finally:
                os.kill(victim, signal.SIGCONT)
            # The late reply lands on a cancelled future: dropped
            # quietly, and the count is not settled twice.
            assert sup.request(_query(m=320), timeout_s=_BOOT_S).ok
            assert _wait_for(lambda: sup.cluster_stats()["inflight"] == 0)
            assert sup.cluster_stats()["inflight"] == 0

    def test_admission_errors_raise_from_submit(self):
        sup = Supervisor(_fast_config(workers=1))
        sup.close()
        with pytest.raises(ServerClosedError):
            sup.submit(_query())
        assert sup.cluster_stats()["inflight"] == 0

    def test_fleet_down_without_degrade_fails_the_future(self):
        config = _fast_config(workers=1, degrade_local=False)
        sup = Supervisor(config)  # never started: no live workers
        try:
            future = sup.submit(_query())
            with pytest.raises(ClusterError):
                future.result(timeout=_BOOT_S)
            assert sup.cluster_stats()["inflight"] == 0
        finally:
            sup.close()

    def test_fleet_down_degrades_through_the_local_server(self):
        config = _fast_config(workers=1, degrade_local=True)
        sup = Supervisor(config)  # never started: no live workers
        try:
            advisory = sup.submit(_query()).result(timeout=_BOOT_S)
            assert advisory.ok
            assert advisory.source == "degraded"
            assert _wait_for(lambda: sup.cluster_stats()["inflight"] == 0)
            assert sup.cluster_stats()["degraded"] == 1
        finally:
            sup.close()


class _FakePipe:
    """A worker's stdin transport that records every write."""

    def __init__(self):
        self.writes = []
        self.closed = False

    def write(self, data):
        self.writes.append(data)

    def close(self):
        self.closed = True

    def lines(self):
        return [wire.decode_line(l) for l in b"".join(self.writes).splitlines()]


def _fake_worker(sup):
    """Bind ``sup`` to the running loop with one ready worker on a fake pipe."""
    sup._bind_loop(asyncio.get_running_loop())
    handle = WorkerHandle(0, sup)
    pipe = _FakePipe()
    handle._writer = pipe
    handle._data(wire.encode_message("ready", pid=0).encode())
    sup._handles[0] = handle
    return handle, pipe


def _reply_line(request_id, query):
    advisory = Advisory(query=query, payload={"latency_ms": 1.0})
    return wire.encode_message(
        "advisory", id=request_id, advisory=advisory.to_dict()
    ).encode()


class TestLoopPipes:
    """One event loop reads and writes the worker pipes."""

    def test_queries_dispatched_in_one_loop_turn_share_one_pipe_write(self):
        queries = [_query(m=64 * (i + 1)) for i in range(16)]

        async def drive():
            sup = Supervisor(_fast_config(workers=1, drain_s=0.01))
            handle, pipe = _fake_worker(sup)
            answers = []
            for query in queries:
                sup.dispatch(query, lambda a, e: answers.append((a, e)))
            assert pipe.writes == []  # nothing is written inside the turn
            await asyncio.sleep(0)
            assert len(pipe.writes) == 1
            sent = pipe.lines()
            assert [ShapeQuery.from_dict(m["query"]) for m in sent] == queries
            # Replies may come back in any order and in any chunking.
            stream = b"".join(
                _reply_line(m["id"], q) for m, q in zip(sent, queries)
            )
            handle._data(stream[:100])
            handle._data(stream[100:])
            assert [Advisory.from_dict(a).query for a, _ in answers] == queries
            assert all(e is None for _, e in answers)
            assert sup.cluster_stats()["inflight"] == 0
            await sup.close_async()
            assert pipe.closed

        asyncio.run(drive())

    def test_reply_after_its_deadline_is_dropped_and_settles_once(self):
        async def drive():
            sup = Supervisor(_fast_config(workers=1, drain_s=0.01))
            handle, pipe = _fake_worker(sup)
            answers = []
            sup.dispatch(
                _query(), lambda a, e: answers.append((a, e)), timeout_s=0.05
            )
            assert sup.cluster_stats()["inflight"] == 1
            await asyncio.sleep(0.2)
            assert len(answers) == 1
            assert answers[0][0] is None
            assert isinstance(answers[0][1], DeadlineExceededError)
            assert sup.cluster_stats()["inflight"] == 0
            (sent,) = pipe.lines()
            handle._data(_reply_line(sent["id"], _query()))  # the late reply
            await asyncio.sleep(0)
            assert len(answers) == 1
            assert sup.cluster_stats()["inflight"] == 0
            await sup.close_async()

        asyncio.run(drive())

    def test_foreign_thread_and_loop_side_dispatch_match_in_process(self):
        queries = [
            _query(m=384, n=768, k=192),
            ShapeQuery(kind="kernel_params", m=512, n=512, k=512, batch=2),
            ShapeQuery(kind="lint", model="gpt3-2.7b"),
        ]
        with AdvisoryServer(ServeConfig(workers=1, cache_ttl_s=0)) as local:
            expected = [local.request(q, timeout_s=_BOOT_S) for q in queries]

        def view(advisory):
            return (advisory.status, advisory.query, advisory.payload)

        async def on_loop(sup, query):
            future = asyncio.get_running_loop().create_future()
            sup.dispatch(query, lambda a, e: future.set_result((a, e)))
            return await future

        with Supervisor(_fast_config()) as sup:
            foreign = [sup.submit(q).result(timeout=_BOOT_S) for q in queries]
            loop_side = []
            for query in queries:
                advisory, exc = asyncio.run_coroutine_threadsafe(
                    on_loop(sup, query), sup._loop
                ).result(timeout=_BOOT_S)
                assert exc is None
                loop_side.append(Advisory.from_dict(advisory))
        assert all(a.ok for a in expected)
        assert [view(a) for a in foreign] == [view(a) for a in expected]
        assert [view(a) for a in loop_side] == [view(a) for a in expected]

    def test_no_pipe_reader_threads(self):
        with Supervisor(_fast_config()) as sup:
            assert sup.request(_query(), timeout_s=_BOOT_S).ok
            names = [t.name for t in threading.enumerate()]
            assert sup._thread.name == "repro-cluster-loop"
        assert not [n for n in names if n.startswith("repro-cluster-read-")]
