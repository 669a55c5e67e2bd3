"""AdvisoryServer behaviour: coalescing, parity, cache, backpressure,
deadlines, fault retries, sharding, lint, and lifecycle."""

import time

import numpy as np
import pytest

from repro.engine.core import ShapeEngine
from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ServerClosedError,
)
from repro.observability.metrics import metrics, reset_metrics
from repro.resilience.faults import FaultPlan, clear_plan, install_plan
from repro.serve.client import AdvisoryClient
from repro.serve.config import ServeConfig
from repro.serve.protocol import ShapeQuery
from repro.serve.server import AdvisoryServer, shard_for


def _latency_query(m, n, k, batch=1, gpu="A100"):
    return ShapeQuery(kind="latency", m=m, n=n, k=k, batch=batch, gpu=gpu)


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


class TestShardFor:
    def test_stable_and_in_range(self):
        for workers in (1, 2, 3, 8):
            for name in ("A100", "H100", "V100", "MI250X"):
                shard = shard_for(name, workers)
                assert 0 <= shard < workers
                assert shard == shard_for(name, workers)

    def test_single_worker_takes_everything(self):
        assert shard_for("A100", 1) == 0
        assert shard_for("H100", 1) == 0


class TestCoalescing:
    def test_prestart_backlog_coalesces_into_one_engine_call(self):
        cfg = ServeConfig(workers=1, max_batch=64, cache_ttl_s=0)
        server = AdvisoryServer(cfg)
        futures = [server.submit(_latency_query(512, 512, 512)) for _ in range(8)]
        futures += [
            server.submit(_latency_query(256 * i + 64, 512, 512))
            for i in range(1, 5)
        ]
        server.start()
        advisories = [f.result(timeout=30) for f in futures]
        server.close()
        assert all(a.ok for a in advisories)
        stats = server.stats()
        assert stats.engine_calls == 1
        assert stats.coalesced_duplicates == 7
        assert stats.engine_rows == 5
        assert stats.shape_dispatched == 12
        assert stats.coalesce_ratio == 12.0
        # The batcher's win is visible in the registry too.
        assert metrics().counter("serve.engine_calls").value == 1
        assert metrics().counter("serve.coalesced_duplicates").value == 7

    def test_merged_batch_answers_are_bit_identical_to_direct_calls(self):
        shapes = [(1, 512, 512, 512), (2, 1000, 1111, 2049), (4, 96, 4096, 256)]
        cfg = ServeConfig(workers=1, max_batch=64, cache_ttl_s=0)
        server = AdvisoryServer(cfg)
        futures = [
            server.submit(ShapeQuery(kind="evaluate", batch=b, m=m, n=n, k=k))
            for (b, m, n, k) in shapes
        ]
        server.start()
        advisories = [f.result(timeout=30) for f in futures]
        server.close()
        assert server.stats().engine_calls == 1  # all three merged

        engine = ShapeEngine()
        for (b, m, n, k), advisory in zip(shapes, advisories):
            ref = engine.evaluate(
                np.asarray([[b, m, n, k]], dtype=np.int64), "A100", "fp16"
            )
            assert advisory.payload["latency_s"] == float(ref.latency_s[0])
            assert advisory.payload["tflops"] == float(ref.tflops[0])
            assert advisory.payload["tile"] == ref.tile(0).name

    def test_duplicate_requests_get_equal_payloads(self):
        cfg = ServeConfig(workers=1, cache_ttl_s=0)
        server = AdvisoryServer(cfg)
        futures = [server.submit(_latency_query(768, 768, 768)) for _ in range(4)]
        server.start()
        payloads = [f.result(timeout=30).payload for f in futures]
        server.close()
        assert all(p == payloads[0] for p in payloads)


class TestResponseCache:
    def test_repeat_query_hits_cache(self):
        with AdvisoryServer(ServeConfig(workers=1, cache_ttl_s=60.0)) as server:
            first = server.request(_latency_query(640, 640, 640), timeout_s=30)
            second = server.request(_latency_query(640, 640, 640), timeout_s=30)
        assert first.source == "engine"
        assert second.source == "cache"
        assert second.payload == first.payload
        assert server.stats().cache_hits == 1
        assert metrics().counter("serve.cache_hits").value == 1

    def test_ttl_zero_disables_cache(self):
        with AdvisoryServer(ServeConfig(workers=1, cache_ttl_s=0)) as server:
            server.request(_latency_query(640, 640, 640), timeout_s=30)
            second = server.request(_latency_query(640, 640, 640), timeout_s=30)
        assert second.source == "engine"
        assert server.stats().cache_hits == 0

    def test_entries_expire_after_ttl(self):
        with AdvisoryServer(ServeConfig(workers=1, cache_ttl_s=0.05)) as server:
            server.request(_latency_query(640, 640, 640), timeout_s=30)
            time.sleep(0.08)
            again = server.request(_latency_query(640, 640, 640), timeout_s=30)
        assert again.source == "engine"

    def test_different_kind_same_shape_is_a_distinct_entry(self):
        with AdvisoryServer(ServeConfig(workers=1)) as server:
            lat = server.request(_latency_query(640, 640, 640), timeout_s=30)
            tfl = server.request(
                ShapeQuery(kind="tflops", m=640, n=640, k=640), timeout_s=30
            )
        assert lat.payload.keys() == {"latency_s"}
        assert tfl.payload.keys() == {"tflops"}
        assert tfl.source == "engine"  # not served from the latency entry


class TestBackpressure:
    def test_queue_full_raises_typed_and_counts(self):
        cfg = ServeConfig(workers=1, max_queue=4, cache_ttl_s=0)
        server = AdvisoryServer(cfg)  # not started: backlog is deterministic
        futures = [
            server.submit(_latency_query(64 * i, 128, 128)) for i in range(1, 5)
        ]
        with pytest.raises(QueueFullError):
            server.submit(_latency_query(999, 128, 128))
        stats = server.stats()
        assert stats.rejected_queue_full == 1
        assert metrics().counter("serve.rejected.queue_full").value == 1
        # Draining the backlog restores admission.
        server.start()
        assert all(f.result(timeout=30).ok for f in futures)
        accepted = server.request(_latency_query(999, 128, 128), timeout_s=30)
        assert accepted.ok
        server.close()


class TestDeadlines:
    def test_expired_request_is_rejected_not_computed(self):
        cfg = ServeConfig(workers=1, deadline_s=0.01, cache_ttl_s=0)
        server = AdvisoryServer(cfg)
        future = server.submit(_latency_query(320, 320, 320))
        time.sleep(0.05)  # let the deadline lapse while unstarted
        server.start()
        advisory = future.result(timeout=30)
        server.close()
        assert advisory.status == "rejected"
        assert advisory.error_type == "DeadlineExceededError"
        stats = server.stats()
        assert stats.rejected_deadline == 1
        assert stats.engine_calls == 0  # never wasted a batch slot
        assert metrics().counter("serve.rejected.deadline").value == 1

    def test_client_unwrap_raises_typed_deadline_error(self):
        from repro.serve.client import _unwrap

        cfg = ServeConfig(workers=1, deadline_s=0.01, cache_ttl_s=0)
        server = AdvisoryServer(cfg)
        future = server.submit(_latency_query(320, 320, 320))
        time.sleep(0.05)
        server.start()
        advisory = future.result(timeout=30)
        server.close()
        assert advisory.status == "rejected"
        with pytest.raises(DeadlineExceededError):
            _unwrap(advisory)


class TestFaultInjection:
    def test_injected_engine_fault_is_absorbed_by_retry(self):
        plan = FaultPlan.from_dict(
            {
                "seed": 0,
                "faults": [
                    {
                        "site": "engine.batch_eval",
                        "kind": "raise",
                        "times": 1,
                        "exception": "RuntimeError",
                        "message": "injected engine crash",
                    }
                ],
            }
        )
        install_plan(plan)
        try:
            cfg = ServeConfig(
                workers=1, retries=1, retry_backoff_s=0.0, cache_ttl_s=0
            )
            with AdvisoryServer(cfg) as server:
                advisory = server.request(
                    _latency_query(448, 448, 448), timeout_s=30
                )
        finally:
            clear_plan()
        assert plan.fired() == 1
        assert advisory.ok

    def test_injected_engine_fault_without_retry_fails_typed(self):
        plan = FaultPlan.from_dict(
            {
                "seed": 0,
                "faults": [
                    {
                        "site": "engine.batch_eval",
                        "kind": "raise",
                        "times": 1,
                        "exception": "RuntimeError",
                        "message": "injected engine crash",
                    }
                ],
            }
        )
        install_plan(plan)
        try:
            cfg = ServeConfig(workers=1, retries=0, cache_ttl_s=0)
            with AdvisoryServer(cfg) as server:
                advisory = server.request(
                    _latency_query(448, 448, 448), timeout_s=30
                )
        finally:
            clear_plan()
        assert advisory.status == "failed"
        assert advisory.error_type == "RuntimeError"
        assert "injected engine crash" in advisory.error
        client_exc = None
        try:
            from repro.serve.client import _unwrap

            _unwrap(advisory)
        except ServeError as exc:
            client_exc = exc
        assert client_exc is not None


class TestLint:
    def test_lint_preset_returns_verdict_and_fixits(self):
        with AdvisoryServer(ServeConfig(workers=1)) as server:
            verdict = AdvisoryClient(server).lint("gpt3-2.7b")
        assert verdict["exit_code"] in (0, 1)
        assert isinstance(verdict["findings"], list)
        assert isinstance(verdict["fixits"], list)
        assert "gpt3-2.7b" in verdict["target"]

    def test_lint_inline_config(self):
        config = {
            "name": "inline",
            "hidden_size": 2048,
            "num_heads": 16,
            "num_layers": 2,
            "vocab_size": 51200,
            "seq_len": 2048,
        }
        with AdvisoryServer(ServeConfig(workers=1)) as server:
            verdict = AdvisoryClient(server).lint(config)
        assert "exit_code" in verdict

    def test_unknown_model_fails_typed_without_killing_server(self):
        with AdvisoryServer(ServeConfig(workers=1)) as server:
            client = AdvisoryClient(server)
            with pytest.raises(ServeError):
                client.lint("no-such-model")
            # Server still serves.
            assert client.latency(512, 512, 512) > 0


class TestValidationAndLifecycle:
    def test_unknown_gpu_resolves_failed_not_raises(self):
        with AdvisoryServer(ServeConfig(workers=1)) as server:
            advisory = server.request(
                _latency_query(512, 512, 512, gpu="NOPE"), timeout_s=30
            )
        assert advisory.status == "failed"
        assert advisory.source == "validation"

    def test_submit_after_close_raises(self):
        server = AdvisoryServer(ServeConfig(workers=1))
        server.start()
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(_latency_query(512, 512, 512))

    def test_close_rejects_undispatched_backlog(self):
        server = AdvisoryServer(ServeConfig(workers=1, cache_ttl_s=0))
        future = server.submit(_latency_query(512, 512, 512))
        server.close()  # never started
        advisory = future.result(timeout=5)
        assert advisory.status == "rejected"
        assert advisory.error_type == "ServerClosedError"
        assert server.stats().rejected_closed == 1

    def test_close_is_idempotent_and_start_after_close_raises(self):
        server = AdvisoryServer(ServeConfig(workers=1))
        server.start()
        server.close()
        server.close()
        with pytest.raises(ServerClosedError):
            server.start()

    def test_multi_worker_sharding_routes_by_gpu(self):
        cfg = ServeConfig(workers=2, cache_ttl_s=0)
        with AdvisoryServer(cfg) as server:
            a = server.request(_latency_query(512, 512, 512, gpu="A100"), timeout_s=30)
            h = server.request(_latency_query(512, 512, 512, gpu="H100"), timeout_s=30)
        assert a.shard == server.shard_of(a.query)
        assert h.shard == server.shard_of(h.query)

    def test_stats_snapshot_is_isolated(self):
        with AdvisoryServer(ServeConfig(workers=1)) as server:
            server.request(_latency_query(512, 512, 512), timeout_s=30)
            snap = server.stats()
            snap.requests = 10_000
            assert server.stats().requests == 1

    def test_answer_after_close_raises(self):
        server = AdvisoryServer(ServeConfig(workers=1))
        server.close()
        with pytest.raises(ServerClosedError):
            server.answer([_latency_query(512, 512, 512)])
        assert server.stats().rejected_closed == 1


#: Answered before each differential run, so the stream's repeats of
#: them are response-cache hits on both paths.
_PRIMED = [
    _latency_query(512, 512, 512),
    ShapeQuery(kind="lint", model="gpt3-125m", gpu="H100"),
]

#: Shape, kernel_params, lint, invalid-GPU and cached queries over two
#: shards, no query repeated: a sequential submit would answer a
#: repeat from the cache, a batch from the same call's row.
_MIXED = [
    _latency_query(1024, 512, 256, gpu="H100"),
    ShapeQuery(kind="tflops", m=768, n=768, k=128, gpu="V100"),
    ShapeQuery(kind="evaluate", m=4096, n=1024, k=512, gpu="A100"),
    ShapeQuery(kind="kernel_params", m=512, n=512, k=512, gpu="A100"),
    ShapeQuery(kind="kernel_params", m=384, n=256, k=512, gpu="MI250X"),
    _PRIMED[0],
    ShapeQuery(kind="lint", model="pythia-160m", gpu="A100"),
    _latency_query(64, 64, 64, gpu="NOT_A_GPU"),
    ShapeQuery(kind="lint", model="no-such-model", gpu="A100"),
    _PRIMED[1],
    _latency_query(640, 128, 2048, batch=4, gpu="H100"),
]


def _comparable(advisory):
    record = advisory.to_dict()
    del record["queue_wait_s"]  # wall time, never equal across runs
    return record


class TestAnswerMatchesSubmit:
    """``answer`` and ``submit`` share admission and the batch body, so
    they give equal advisories and move every counter alike."""

    @staticmethod
    def _primed(max_batch):
        server = AdvisoryServer(ServeConfig(workers=2, max_batch=max_batch))
        server.answer(_PRIMED)
        return server

    def _compare(self, stream, max_batch, submit_all_first):
        answering = self._primed(max_batch)
        before = answering.stats()
        answered = answering.answer(stream)
        submitting = self._primed(max_batch)
        assert submitting.stats() == before
        if submit_all_first:  # one backlog: one batch per shard
            futures = [submitting.submit(q) for q in stream]
            with submitting:
                submitted = [f.result(timeout=30) for f in futures]
        else:
            with submitting:
                submitted = [
                    submitting.submit(q).result(timeout=30) for q in stream
                ]
        assert [_comparable(a) for a in answered] == [
            _comparable(a) for a in submitted
        ]
        after = answering.stats()
        assert after == submitting.stats()
        return answered, after.batches - before.batches

    def test_one_query_per_batch(self):
        answered, batches = self._compare(_MIXED, 1, submit_all_first=False)
        assert [a.source for a in answered].count("cache") == 2
        assert [a.status for a in answered].count("failed") == 2
        assert batches == len(_MIXED) - 3  # all but cached and invalid-GPU

    def test_a_backlog_with_repeats(self):
        stream = _MIXED + _MIXED[:4]
        answered, batches = self._compare(stream, 64, submit_all_first=True)
        assert batches == 2  # one per shard
        assert all(a.batch_size > 1 for a in answered if a.source == "engine")
