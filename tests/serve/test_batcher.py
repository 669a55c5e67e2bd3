"""RequestQueue admission/linger semantics and plan_batch coalescing."""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import QueueFullError
from repro.serve.batcher import PendingRequest, RequestQueue, plan_batch
from repro.serve.protocol import ShapeQuery


def _pending(query: ShapeQuery) -> PendingRequest:
    return PendingRequest(query=query, future=Future())


def _shape(m, n, k, batch=1, gpu="A100", dtype="fp16", kind="latency"):
    return _pending(
        ShapeQuery(kind=kind, m=m, n=n, k=k, batch=batch, gpu=gpu, dtype=dtype)
    )


class TestRequestQueue:
    def test_fifo_order(self):
        q = RequestQueue(maxsize=8)
        items = [_shape(64 * i, 64, 64) for i in range(1, 4)]
        for item in items:
            q.put(item)
        assert q.take_batch(8, linger_s=0.0) == items

    def test_depth_cap_is_typed_rejection(self):
        q = RequestQueue(maxsize=2)
        q.put(_shape(64, 64, 64))
        q.put(_shape(128, 64, 64))
        with pytest.raises(QueueFullError):
            q.put(_shape(256, 64, 64))
        assert len(q) == 2

    def test_max_batch_respected(self):
        q = RequestQueue(maxsize=16)
        for i in range(1, 6):
            q.put(_shape(64 * i, 64, 64))
        first = q.take_batch(3, linger_s=0.0)
        rest = q.take_batch(3, linger_s=0.0)
        assert [len(first), len(rest)] == [3, 2]

    def test_close_returns_remaining_then_empty(self):
        q = RequestQueue(maxsize=4)
        q.put(_shape(64, 64, 64))
        q.close()
        assert len(q.take_batch(4, linger_s=0.0)) == 1
        assert q.take_batch(4, linger_s=0.0) == []

    def test_close_wakes_blocked_taker(self):
        q = RequestQueue(maxsize=4)
        out = []

        def taker():
            out.append(q.take_batch(4, linger_s=0.0))

        thread = threading.Thread(target=taker)
        thread.start()
        time.sleep(0.05)
        q.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert out == [[]]

    def test_linger_coalesces_late_arrival(self):
        q = RequestQueue(maxsize=8)
        q.put(_shape(64, 64, 64))

        def late_producer():
            time.sleep(0.02)
            q.put(_shape(128, 64, 64))

        thread = threading.Thread(target=late_producer)
        thread.start()
        batch = q.take_batch(8, linger_s=0.5)
        thread.join()
        assert len(batch) == 2

    def test_full_batch_returns_without_lingering(self):
        q = RequestQueue(maxsize=8)
        q.put(_shape(64, 64, 64))
        q.put(_shape(128, 64, 64))
        t0 = time.monotonic()
        batch = q.take_batch(2, linger_s=5.0)
        assert len(batch) == 2
        assert time.monotonic() - t0 < 1.0

    def test_bad_maxsize_raises(self):
        with pytest.raises(ValueError):
            RequestQueue(maxsize=0)


class TestPlanBatch:
    def test_identical_shapes_share_one_row(self):
        pending = [_shape(512, 512, 512) for _ in range(5)]
        calls, passthrough = plan_batch(pending)
        assert passthrough == []
        assert len(calls) == 1
        call = calls[0]
        assert call.rows == 1
        assert call.duplicates == 4
        assert len(call.assignments) == 5
        assert all(row == 0 for _, row in call.assignments)

    def test_distinct_shapes_merge_into_one_call(self):
        pending = [_shape(64 * i, 256, 128) for i in range(1, 5)]
        calls, _ = plan_batch(pending)
        assert len(calls) == 1
        call = calls[0]
        assert call.rows == 4
        assert call.duplicates == 0
        # Rows are first-seen order: (batch, m, n, k).
        np.testing.assert_array_equal(
            call.shapes,
            np.asarray([[1, 64 * i, 256, 128] for i in range(1, 5)]),
        )

    def test_kind_is_not_part_of_the_coalescing_identity(self):
        pending = [
            _shape(512, 512, 512, kind="latency"),
            _shape(512, 512, 512, kind="tflops"),
            _shape(512, 512, 512, kind="evaluate"),
        ]
        calls, _ = plan_batch(pending)
        assert len(calls) == 1
        assert calls[0].rows == 1
        assert calls[0].duplicates == 2

    def test_gpu_and_dtype_split_buckets(self):
        pending = [
            _shape(512, 512, 512, gpu="A100"),
            _shape(512, 512, 512, gpu="H100"),
            _shape(512, 512, 512, gpu="A100", dtype="fp32"),
        ]
        calls, _ = plan_batch(pending)
        assert len(calls) == 3
        assert {(c.gpu, c.dtype) for c in calls} == {
            ("A100", "fp16"), ("H100", "fp16"), ("A100", "fp32"),
        }

    def test_lint_queries_pass_through(self):
        lint = _pending(ShapeQuery(kind="lint", model="gpt3-2.7b"))
        shape = _shape(512, 512, 512)
        calls, passthrough = plan_batch([lint, shape])
        assert passthrough == [lint]
        assert len(calls) == 1

    def test_assignments_map_each_request_to_its_row(self):
        a, b = _shape(512, 512, 512), _shape(1024, 512, 512)
        calls, _ = plan_batch([a, b, _shape(512, 512, 512)])
        call = calls[0]
        rows = {id(item): row for item, row in call.assignments}
        assert rows[id(a)] == 0
        assert rows[id(b)] == 1
        assert call.shapes[rows[id(a)]].tolist() == [1, 512, 512, 512]
        assert call.shapes[rows[id(b)]].tolist() == [1, 1024, 512, 512]

    def test_kernel_queries_group_per_gpu_dtype_apart_from_shapes(self):
        k1 = _shape(512, 512, 512, kind="kernel_params")
        k2 = _shape(1024, 512, 512, kind="kernel_params")
        k3 = _shape(512, 512, 512, kind="kernel_params")
        k_h100 = _shape(512, 512, 512, gpu="H100", kind="kernel_params")
        shape = _shape(512, 512, 512)
        calls, passthrough = plan_batch([k1, shape, k2, k3, k_h100])
        assert passthrough == []
        by_key = {(c.kernel, c.gpu): c for c in calls}
        assert set(by_key) == {(True, "A100"), (False, "A100"), (True, "H100")}
        group = by_key[(True, "A100")]
        assert group.rows == 2
        assert group.duplicates == 1
        assert [row for _, row in group.assignments] == [0, 1, 0]
        assert by_key[(False, "A100")].assignments == [(shape, 0)]
        assert by_key[(True, "H100")].rows == 1
