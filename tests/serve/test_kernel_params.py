"""``kernel_params`` end to end: the answer must be bit-identical no
matter which transport carried it.

Resolution is a pure function of (query, loaded tables, engine model
version), and every process in the tree loads the same tables from
``REPRO_KERNEL_TABLES`` — so the in-process server, a supervisor's
pipe worker, and a TCP cluster worker must all return the exact same
payload dict, hit or miss.  Errors stay typed across the same paths.
"""

import pytest

from repro.engine.core import ShapeEngine
from repro.errors import KernelTableError, ServeError, ShapeError
from repro.kernels.registry import TABLES_ENV, KernelParamResolver
from repro.kernels.search import tune_table
from repro.observability.metrics import metrics
from repro.serve.client import AdvisoryClient
from repro.serve.cluster import ClusterServer
from repro.serve.config import ServeConfig
from repro.serve.netclient import SocketTransport
from repro.serve.protocol import ShapeQuery
from repro.serve.server import AdvisoryServer
from repro.serve.supervisor import Supervisor

#: Worker boot is interpreter start + imports; generous for loaded CI.
_BOOT_S = 60.0

#: A tuning representative (table hit) and an untuned batch octave
#: (analytical fallback) — both must be transport-invariant.
_HIT = dict(kind="kernel_params", m=512, n=512, k=512, batch=1, gpu="A100")
_MISS = dict(kind="kernel_params", m=512, n=512, k=512, batch=2, gpu="A100")


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


@pytest.fixture(scope="module")
def tables_env(tmp_path_factory):
    """Tune one small table and export it to every process in the tree."""
    directory = tmp_path_factory.mktemp("ktables")
    table = tune_table("A100", dims=(256, 512, 1024), batches=(1,))
    path = directory / f"{table.gpu}-{table.dtype}.json"
    path.write_text(table.to_json())
    mp = pytest.MonkeyPatch()
    mp.setenv(TABLES_ENV, str(directory))
    yield table
    mp.undo()


@pytest.fixture(scope="module")
def reference(tables_env):
    """The direct resolver answer each transport must reproduce."""
    resolver = KernelParamResolver.from_env()
    return {
        "hit": resolver.resolve(1, 512, 512, 512, "A100", "fp16"),
        "miss": resolver.resolve(2, 512, 512, 512, "A100", "fp16"),
    }


class TestTransportParity:
    def test_in_process_server(self, tables_env, reference):
        with AdvisoryServer(ServeConfig(workers=1, cache_ttl_s=0)) as server:
            hit = server.request(ShapeQuery(**_HIT), timeout_s=_BOOT_S)
            miss = server.request(ShapeQuery(**_MISS), timeout_s=_BOOT_S)
        assert hit.ok and miss.ok
        assert hit.payload == reference["hit"]
        assert hit.payload["table_hit"] is True
        assert hit.payload["table_checksum"] == tables_env.checksum()
        assert miss.payload == reference["miss"]
        assert miss.payload["table_hit"] is False
        assert miss.payload["table_checksum"] is None

    def test_supervisor_pipe_workers(self, tables_env, reference):
        with Supervisor(_fast_config()) as sup:
            hit = sup.request(ShapeQuery(**_HIT), timeout_s=_BOOT_S)
            miss = sup.request(ShapeQuery(**_MISS), timeout_s=_BOOT_S)
        assert hit.ok and miss.ok
        assert hit.source != "degraded"
        assert hit.payload == reference["hit"]
        assert miss.payload == reference["miss"]

    def test_tcp_cluster(self, tables_env, reference):
        with ClusterServer(_fast_config()) as server:
            with SocketTransport("127.0.0.1", server.bound_port) as transport:
                hit = transport.request(ShapeQuery(**_HIT), timeout_s=_BOOT_S)
                miss = transport.request(
                    ShapeQuery(**_MISS), timeout_s=_BOOT_S
                )
                client = AdvisoryClient(transport, timeout_s=_BOOT_S)
                via_client = client.kernel_params(m=512, n=512, k=512)
        assert hit.ok and miss.ok
        # JSON round-trip over the socket must not perturb a single bit.
        assert hit.payload == reference["hit"]
        assert miss.payload == reference["miss"]
        assert via_client == reference["hit"]

    def test_repeat_is_cache_stable(self, tables_env, reference):
        # With the TTL cache on, the second answer comes from the cache
        # and must equal the first byte for byte.
        cfg = ServeConfig(workers=1, cache_ttl_s=300.0)
        with AdvisoryServer(cfg) as server:
            first = server.request(ShapeQuery(**_HIT), timeout_s=_BOOT_S)
            second = server.request(ShapeQuery(**_HIT), timeout_s=_BOOT_S)
        assert first.payload == second.payload == reference["hit"]
        assert second.source == "cache"


class TestTypedErrors:
    def test_nonpositive_dims_rejected_at_construction(self):
        with pytest.raises(ShapeError):
            ShapeQuery(kind="kernel_params", m=0, n=512, k=512)
        with pytest.raises(ShapeError):
            ShapeQuery(kind="kernel_params", m=512, n=512, k=512, batch=-1)

    def test_unknown_gpu_is_a_typed_failure(self, tables_env):
        query = ShapeQuery(**dict(_HIT, gpu="NOT_A_GPU"))
        with AdvisoryServer(ServeConfig(workers=1, cache_ttl_s=0)) as server:
            advisory = server.request(query, timeout_s=_BOOT_S)
        assert not advisory.ok
        assert advisory.status == "failed"
        assert advisory.error_type
        assert advisory.retryable is False
        assert "Traceback" not in (advisory.error or "")

    def test_unknown_gpu_over_the_network(self, tables_env):
        query = ShapeQuery(**dict(_HIT, gpu="NOT_A_GPU"))
        with ClusterServer(_fast_config(workers=1)) as server:
            with SocketTransport("127.0.0.1", server.bound_port) as transport:
                advisory = transport.request(query, timeout_s=_BOOT_S)
                client = AdvisoryClient(transport, timeout_s=_BOOT_S)
                with pytest.raises(ServeError):
                    client.kernel_params(m=512, n=512, k=512, gpu="NOT_A_GPU")
        assert not advisory.ok
        assert advisory.error_type
        assert advisory.retryable is False

    def test_broken_table_dir_fails_typed_not_crash(self, tmp_path):
        mp = pytest.MonkeyPatch()
        mp.setenv(TABLES_ENV, str(tmp_path / "missing"))
        try:
            with AdvisoryServer(
                ServeConfig(workers=1, cache_ttl_s=0)
            ) as server:
                advisory = server.request(
                    ShapeQuery(**_HIT), timeout_s=_BOOT_S
                )
                assert not advisory.ok
                assert advisory.error_type == KernelTableError.__name__
                assert advisory.retryable is False
                # The worker survives: shape queries still answer.
                shape = server.request(
                    ShapeQuery(kind="latency", m=256, n=256, k=256),
                    timeout_s=_BOOT_S,
                )
                assert shape.ok
        finally:
            mp.undo()


class TestBatchedKernelDispatch:
    """A dispatch batch prices its ``kernel_params`` misses together."""

    @staticmethod
    def _run_one_batch(queries, engine):
        # Submitted before start, the queries form one dispatch batch.
        server = AdvisoryServer(
            ServeConfig(workers=1, cache_ttl_s=0, max_batch=64),
            engine=engine,
        )
        futures = [server.submit(q) for q in queries]
        with server:
            advisories = [f.result(timeout=_BOOT_S) for f in futures]
        return advisories, server.stats()

    def test_one_tile_sweep_per_gpu_dtype_group(self, tables_env):
        a100_misses = [
            ShapeQuery(kind="kernel_params", m=96 + 32 * i, n=512, k=512,
                       batch=2, gpu="A100")
            for i in range(3)
        ]
        h100_misses = [
            ShapeQuery(kind="kernel_params", m=700, n=300 + i, k=64,
                       gpu="H100")
            for i in range(2)
        ]
        queries = (
            a100_misses + [ShapeQuery(**_HIT)] + h100_misses
            + [a100_misses[0], ShapeQuery(kind="latency", m=64, n=64, k=64)]
        )
        before = metrics().counter("engine.evaluate.computes").value
        advisories, stats = self._run_one_batch(queries, ShapeEngine())
        computes = metrics().counter("engine.evaluate.computes").value - before
        # One tile sweep for the A100 misses, one for the H100 misses,
        # one engine call for the latency query; the table hit and the
        # duplicate price nothing.
        assert computes == 3
        assert stats.batches == 1
        assert stats.kernel_served == len(queries) - 1
        assert stats.served == len(queries)
        resolver = KernelParamResolver.from_env(engine=ShapeEngine())
        for query, advisory in zip(queries[:-1], advisories):
            assert advisory.ok
            assert advisory.payload == resolver.resolve(
                query.batch, query.m, query.n, query.k, query.gpu, query.dtype
            )
        assert advisories[3].payload["table_hit"] is True
        assert advisories[0].payload is not advisories[-2].payload

    def test_resolver_failure_fails_every_item_of_the_group(self, tmp_path):
        mp = pytest.MonkeyPatch()
        mp.setenv(TABLES_ENV, str(tmp_path / "missing"))
        try:
            queries = [ShapeQuery(**_MISS), ShapeQuery(**_HIT),
                       ShapeQuery(**_MISS),
                       ShapeQuery(kind="latency", m=256, n=256, k=256)]
            advisories, stats = self._run_one_batch(queries, ShapeEngine())
        finally:
            mp.undo()
        assert [a.status for a in advisories] == ["failed"] * 3 + ["ok"]
        assert all(
            a.error_type == KernelTableError.__name__ for a in advisories[:3]
        )
        assert stats.failed == 3
        assert stats.kernel_served == 0
