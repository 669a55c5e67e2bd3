"""Cluster front-end over TCP: network parity, chaos (worker SIGKILL,
torn connections, front-end restart), and the multi-process load wall.

One module-scoped cluster serves the cheap tests; the chaos tests that
kill things get private clusters so carnage never leaks across tests.
"""

import asyncio
import logging
import os
import signal
import socket
import threading
import time

import pytest

from repro.errors import ServeError
from repro.resilience.execute import RetryPolicy
from repro.resilience.faults import FaultPlan, FaultSpec, clear_plan, install_plan
from repro.serve.client import AdvisoryClient
from repro.serve import wire
from repro.serve.cluster import ClusterServer, _read_line
from repro.serve.config import ServeConfig
from repro.serve.loadgen import (
    generate_queries,
    run_load,
    run_load_processes,
    verify_against_engine,
)
from repro.serve.netclient import SocketTransport
from repro.serve.protocol import ShapeQuery
from repro.serve.server import AdvisoryServer

#: Worker boot is interpreter start + imports; generous for loaded CI.
_BOOT_S = 60.0


def _query(**kw):
    base = dict(kind="latency", m=512, n=512, k=512, gpu="A100")
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
        restart_budget=5,
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


@pytest.fixture(scope="module")
def cluster():
    with ClusterServer(_fast_config()) as server:
        yield server


@pytest.fixture
def transport(cluster):
    with SocketTransport("127.0.0.1", cluster.bound_port) as t:
        yield t


class TestNetworkParity:
    def test_advisory_is_bit_identical_to_direct_engine(self, transport):
        query = _query()
        with AdvisoryServer(ServeConfig(workers=1, cache_ttl_s=0)) as local:
            expected = local.request(query, timeout_s=_BOOT_S)
        advisory = transport.request(query, timeout_s=_BOOT_S)
        assert advisory.ok
        assert advisory.payload == expected.payload
        (rows, mismatches) = verify_against_engine([(query, advisory)])
        assert rows == 1 and mismatches == 0

    def test_ping_reports_live_workers(self, transport):
        assert transport.ping(timeout_s=_BOOT_S)["live"] == 2

    def test_stats_roundtrip(self, transport):
        transport.request(_query(), timeout_s=_BOOT_S)
        stats = transport.server_stats(timeout_s=_BOOT_S)
        assert stats["cluster"]["workers"] == 2
        assert stats["workers"].get("served", 0) >= 1

    def test_client_facade_over_the_network(self, cluster, transport):
        client = AdvisoryClient(transport)
        latency_ms = client.latency(m=512, n=512, k=512, gpu="A100")
        assert latency_ms > 0

    def test_malformed_query_gets_typed_error_not_traceback(self, transport):
        advisory = transport.request(
            _query(gpu="NOT_A_GPU"), timeout_s=_BOOT_S
        )
        assert not advisory.ok
        assert advisory.error_type
        assert advisory.retryable is False
        assert "Traceback" not in (advisory.error or "")
        client = AdvisoryClient(transport)
        with pytest.raises(ServeError):
            client.latency(m=512, n=512, k=512, gpu="NOT_A_GPU")

    def test_over_long_line_is_answered_and_the_connection_lives(
        self, cluster
    ):
        padded = {"m": 512, "n": 512, "k": 512, "pad": "x" * 70_000}
        lines = (
            wire.query_message(padded, 1)
            + wire.encode_message("ping", id=2)
            + wire.query_message(_query().to_dict(), 3)
        )
        assert len(lines) > 70_000
        with socket.create_connection(
            ("127.0.0.1", cluster.bound_port), timeout=_BOOT_S
        ) as sock:
            sock.sendall(lines.encode("utf-8"))
            reader = sock.makefile("r", encoding="utf-8")
            replies = [wire.decode_line(reader.readline()) for _ in range(3)]
        too_long, pong = replies[0], replies[1]
        assert too_long["op"] == "advisory" and "id" not in too_long
        assert too_long["advisory"]["error_type"] == "ConfigError"
        assert too_long["advisory"]["retryable"] is False
        assert "longer than" in too_long["advisory"]["error"]
        assert pong == {"op": "pong", "id": 2, "live": 2}
        assert replies[2]["id"] == 3
        assert replies[2]["advisory"]["status"] == "ok"

    @pytest.mark.parametrize("split", [10, 40_000, 69_999, 70_000])
    def test_over_long_line_split_anywhere_is_skipped_whole(self, split):
        long_line = b"x" * 70_000 + b"\n"

        async def read_all():
            reader = asyncio.StreamReader(limit=1 << 16)
            first = asyncio.ensure_future(_read_line(reader))
            reader.feed_data(long_line[:split])
            await asyncio.sleep(0)  # the read sees the first part alone
            reader.feed_data(long_line[split:] + b'{"op": "ping"}\n')
            reader.feed_eof()
            return [await first] + [await _read_line(reader) for _ in "ab"]

        assert asyncio.run(read_all()) == [None, b'{"op": "ping"}\n', b""]

    def test_load_wall_over_the_network(self, transport):
        report = run_load(
            transport,
            generate_queries(60, seed=3, unique=16),
            clients=4,
            seed=3,
            verify=True,
            timeout_s=_BOOT_S,
        )
        assert report.requests == 60
        assert report.failed == 0
        assert report.ok == 60
        assert report.verified_rows > 0
        assert report.verify_mismatches == 0


class TestChaos:
    def test_sigkill_worker_mid_load_loses_no_accepted_requests(self):
        with ClusterServer(_fast_config()) as server:
            with SocketTransport("127.0.0.1", server.bound_port) as transport:
                queries = generate_queries(120, seed=7, unique=24)
                report_box = {}

                def drive():
                    report_box["report"] = run_load(
                        transport, queries, clients=4, seed=7,
                        verify=True, timeout_s=_BOOT_S,
                    )

                loader = threading.Thread(target=drive)
                loader.start()
                # Kill a worker while the load is in flight.
                victim = next(
                    p for p in server.supervisor.worker_pids()
                    if p is not None
                )
                os.kill(victim, signal.SIGKILL)
                loader.join(timeout=300)
                assert not loader.is_alive()
                report = report_box["report"]
                # Every accepted request was answered ok — failover
                # replays on a sibling, so the kill is invisible.
                assert report.ok == report.requests == 120
                assert report.failed == 0
                assert report.verify_mismatches == 0
                assert _wait_for(
                    lambda: server.supervisor.cluster_stats()["restarts"] >= 1
                )

    def test_torn_connection_triggers_reconnect_and_recovers(self):
        # Fault site cluster.conn fires in the front-end (this
        # process): a 'raise' spec tears the TCP connection after
        # accepting 2 lines; the client must reconnect and succeed.
        with ClusterServer(_fast_config(workers=1)) as server:
            install_plan(
                FaultPlan([
                    FaultSpec(site="cluster.conn", kind="raise", skip=2),
                ])
            )
            try:
                with SocketTransport(
                    "127.0.0.1", server.bound_port,
                    policy=RetryPolicy(retries=4, backoff_s=0.01),
                ) as transport:
                    for _ in range(4):
                        advisory = transport.request(
                            _query(), timeout_s=_BOOT_S
                        )
                        assert advisory.ok
                    assert transport.reconnects >= 1
            finally:
                clear_plan()

    def test_client_survives_front_end_restart(self, caplog):
        config = _fast_config(workers=1)
        first = ClusterServer(config).start_background()
        port = first.bound_port
        transport = SocketTransport(
            "127.0.0.1", port, policy=RetryPolicy(retries=8, backoff_s=0.05),
        )
        try:
            assert transport.request(_query(), timeout_s=_BOOT_S).ok
            first.stop()
            # Same port, brand-new server + fleet: the client's next
            # request rides its reconnect-with-backoff loop.
            with ClusterServer(config, port=port) as second:
                advisory = transport.request(_query(), timeout_s=_BOOT_S)
                assert advisory.ok
                assert transport.reconnects >= 1
        finally:
            transport.close()
        # Cutting the idle connection at stop logs no asyncio error.
        assert not [
            r for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR
        ]

    def test_mid_request_drop_is_resent_not_lost(self):
        # Tear on the 3rd accepted line: the first two queries answer,
        # the third drops mid-request and must be transparently resent.
        with ClusterServer(_fast_config(workers=1)) as server:
            install_plan(
                FaultPlan([
                    FaultSpec(site="cluster.conn", kind="raise", skip=2),
                ])
            )
            try:
                with SocketTransport(
                    "127.0.0.1", server.bound_port,
                    policy=RetryPolicy(retries=4, backoff_s=0.01),
                ) as transport:
                    answers = [
                        transport.request(_query(m=64 * (i + 1)), timeout_s=_BOOT_S)
                        for i in range(3)
                    ]
                    assert all(a.ok for a in answers)
                    assert transport.reconnects >= 1
            finally:
                clear_plan()


class TestMultiProcessWall:
    def test_two_client_processes_against_two_workers(self, cluster):
        report = run_load_processes(
            cluster.address,
            requests=80,
            procs=2,
            clients=2,
            seed=11,
            unique=16,
            verify=True,
            timeout_s=_BOOT_S,
        )
        assert report.requests == 80
        assert report.ok == 80
        assert report.failed == 0
        assert report.verified_rows > 0
        assert report.verify_mismatches == 0
        # The merged report still carries the front-end's view.
        assert report.server.get("cluster", {}).get("workers") == 2


def _stopped_worker_cluster(**kw):
    """One-worker cluster whose heartbeat never kills a stopped worker."""
    return ClusterServer(
        _fast_config(workers=1, heartbeat_s=30.0, heartbeat_timeout_s=30.0),
        **kw,
    )


class TestFrontEndFutures:
    """The front-end dispatches to the supervisor on its own event loop."""

    def test_worker_pipes_are_read_on_the_front_end_loop(
        self, cluster, transport
    ):
        assert transport.request(_query(), timeout_s=_BOOT_S).ok
        names = [t.name for t in threading.enumerate()]
        assert not [n for n in names if n.startswith("repro-cluster-read-")]
        assert "repro-cluster-loop" not in names  # no loop of its own
        assert cluster.supervisor._loop is cluster._loop
        assert cluster.supervisor._thread is None

    def test_expired_request_timeout_is_a_typed_retryable_advisory(self):
        with _stopped_worker_cluster(request_timeout_s=0.3) as server:
            sup = server.supervisor
            victim = sup.worker_pids()[0]
            with SocketTransport("127.0.0.1", server.bound_port) as transport:
                os.kill(victim, signal.SIGSTOP)
                try:
                    advisory = transport.request(_query(), timeout_s=_BOOT_S)
                finally:
                    os.kill(victim, signal.SIGCONT)
                assert advisory.status == "rejected"
                assert advisory.error_type == "DeadlineExceededError"
                assert advisory.retryable is True
                assert advisory.query == _query()
                assert _wait_for(lambda: sup.cluster_stats()["inflight"] == 0)
                # The worker's late answer is dropped; the next query
                # is served normally.
                assert transport.request(
                    _query(m=640), timeout_s=_BOOT_S
                ).ok
                assert _wait_for(lambda: sup.cluster_stats()["inflight"] == 0)

    def test_front_end_admits_at_most_32_queries_at_once(self):
        total = 100
        with _stopped_worker_cluster() as server:
            sup = server.supervisor
            victim = sup.worker_pids()[0]
            lines = "".join(
                wire.query_message(_query(m=8 * (i + 1)).to_dict(), i)
                for i in range(total)
            )
            with socket.create_connection(
                ("127.0.0.1", server.bound_port), timeout=_BOOT_S
            ) as sock:
                os.kill(victim, signal.SIGSTOP)
                try:
                    sock.sendall(lines.encode("utf-8"))
                    assert _wait_for(
                        lambda: sup.cluster_stats()["inflight"] == 32
                    )
                    time.sleep(0.3)  # the rest wait on the event loop
                    assert sup.cluster_stats()["inflight"] == 32
                finally:
                    os.kill(victim, signal.SIGCONT)
                reader = sock.makefile("r", encoding="utf-8")
                replies = [
                    wire.decode_line(reader.readline()) for _ in range(total)
                ]
            assert sorted(r["id"] for r in replies) == list(range(total))
            assert all(r["advisory"]["status"] == "ok" for r in replies)
            assert _wait_for(lambda: sup.cluster_stats()["inflight"] == 0)
