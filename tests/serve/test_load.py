"""The load wall: >=1000 concurrent requests with heavy duplication.

Asserts the three serving guarantees end to end:

(a) every served answer is **bit-identical** to a direct call on a
    fresh private engine — dynamic batching changes how answers are
    computed, never what they are;
(b) dynamic batching works: strictly fewer vectorized engine calls
    than requests (coalesce ratio > 1);
(c) backpressure rejections are **typed** (QueueFullError) and counted
    in the metrics registry.
"""

import numpy as np
import pytest

from repro.engine.core import ShapeEngine
from repro.errors import QueueFullError
from repro.observability.metrics import metrics, reset_metrics
from repro.serve.config import ServeConfig
from repro.serve.loadgen import generate_queries, run_load
from repro.serve.protocol import ShapeQuery
from repro.serve.server import AdvisoryServer


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


class TestGenerateQueries:
    def test_same_seed_same_stream(self):
        a = generate_queries(200, seed=11, unique=16)
        b = generate_queries(200, seed=11, unique=16)
        assert a == b

    def test_different_seed_different_stream(self):
        assert generate_queries(200, seed=1) != generate_queries(200, seed=2)

    def test_duplication_is_heavy(self):
        queries = generate_queries(500, seed=3, unique=10)
        distinct = {q.batch_key() for q in queries}
        assert len(distinct) <= 10
        assert len(queries) == 500


class TestLoadWall:
    def test_thousand_requests_coalesce_and_stay_bit_identical(self):
        queries = generate_queries(1200, seed=123, unique=32)
        cfg = ServeConfig(workers=2, max_batch=64, max_queue=2048, cache_ttl_s=0)
        with AdvisoryServer(cfg) as server:
            report = run_load(server, queries, clients=12, seed=123, verify=True)

        assert report.requests == 1200
        assert report.ok == 1200
        assert report.failed == 0
        assert report.rejected_queue_full == 0

        # (a) bit-identical to direct engine calls (the loadgen's own
        # verifier, plus a spot-check below).
        assert report.verified_rows > 0
        assert report.verify_mismatches == 0

        # (b) strictly fewer engine batch calls than requests.  Shape
        # queries go through the batcher; kernel_params requests ride
        # the passthrough path and are counted separately.
        shape_requests = sum(1 for q in queries if q.is_shape_query)
        kernel_requests = sum(1 for q in queries if q.is_kernel_query)
        assert shape_requests + kernel_requests == 1200
        assert kernel_requests > 0
        assert 0 < report.engine_calls < shape_requests
        assert report.coalesce_ratio > 1.0
        assert report.server["shape_dispatched"] == shape_requests
        assert report.server["kernel_served"] == kernel_requests
        assert metrics().counter("serve.engine_calls").value == report.engine_calls

        # Spot-check (a) directly against a fresh engine, independently
        # of the loadgen's verifier.
        engine = ShapeEngine()
        spot = {q.batch_key(): q for q in queries if q.kind == "latency"}
        with AdvisoryServer(ServeConfig(workers=1, cache_ttl_s=0)) as server:
            for query in list(spot.values())[:5]:
                advisory = server.request(query, timeout_s=30)
                ref = engine.evaluate(
                    np.asarray([query.shape_tuple()], dtype=np.int64),
                    query.gpu,
                    query.dtype,
                )
                assert advisory.payload["latency_s"] == float(ref.latency_s[0])

    def test_cached_load_run_still_answers_identically(self):
        # With the TTL cache on, most repeats short-circuit the queue;
        # the answers must not change.
        queries = generate_queries(400, seed=7, unique=12)
        cfg = ServeConfig(workers=2, max_batch=64, max_queue=1024, cache_ttl_s=300.0)
        with AdvisoryServer(cfg) as server:
            report = run_load(server, queries, clients=8, seed=7, verify=True)
        assert report.ok == 400
        assert report.verify_mismatches == 0
        assert report.cache_hits > 0
        assert report.engine_calls < 400

    def test_backpressure_rejections_typed_and_counted(self):
        # (c) an unstarted server builds a deterministic backlog: the
        # shard queue fills to max_queue, then admission control rejects.
        cfg = ServeConfig(workers=1, max_queue=16, cache_ttl_s=0)
        server = AdvisoryServer(cfg)
        backlog = [
            ShapeQuery(kind="latency", m=64 * i, n=128, k=128)
            for i in range(1, 17)
        ]
        futures = [server.submit(q) for q in backlog]
        rejected = 0
        for i in range(3):
            with pytest.raises(QueueFullError):
                server.submit(ShapeQuery(kind="latency", m=8192, n=64 + i, k=64))
            rejected += 1

        stats = server.stats()
        assert stats.rejected_queue_full == rejected
        assert metrics().counter("serve.rejected.queue_full").value == rejected

        server.start()
        assert all(f.result(timeout=30).ok for f in futures)
        server.close()
