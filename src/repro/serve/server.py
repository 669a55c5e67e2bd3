"""The in-process async shape-advisory server.

:class:`AdvisoryServer` turns the PR-1 engine, PR-2 linter, PR-3
resilience policies, and PR-4 observability into a serving path: the
queryable configuration-time advisor the paper argues for (the niche
tritonBLAS fills for GEMM kernel parameters).  It has two entry points
over one admission step and one batch body:

- :meth:`~AdvisoryServer.submit` returns a
  ``concurrent.futures.Future`` and queues the query for a shard's
  dispatch thread (the in-process path);
- :meth:`~AdvisoryServer.answer` prices a list of queries on the
  calling thread and returns their advisories in order, with no queue,
  thread or future — a cluster worker calls it once per pipe read.

Both are answered by **dynamic batching**:

1. **Admission control** — on the :meth:`~AdvisoryServer.submit`
   path each shard owns a bounded
   :class:`~repro.serve.batcher.RequestQueue`; a full queue rejects
   with :class:`~repro.errors.QueueFullError` (typed backpressure, so
   overload is visible instead of buffered into latency).
2. **Sharding** — requests are partitioned across ``workers`` shards
   by their *canonical* GPU spec (stable SHA-256 of the spec name), so
   each shard's engine traffic stays cache-local per GPU.
3. **Coalescing** — the shard dispatcher drains up to ``max_batch``
   requests (lingering ``linger_s`` for stragglers; ``answer`` takes
   its queries in ``max_batch`` slices instead), dedups identical
   shapes, and merges distinct ones into single vectorized
   :meth:`~repro.engine.core.ShapeEngine.evaluate` calls
   (:func:`~repro.serve.batcher.plan_batch`).  ``kernel_params``
   requests are grouped the same way: one
   :meth:`~repro.kernels.registry.KernelParamResolver.resolve_many`
   call per ``(gpu, dtype)``, so a batch's table misses share one tile
   sweep.  Row independence of the vectorized model makes merged
   answers bit-identical to one-off evaluations — the load wall
   asserts it.
4. **Resilience** — every batched engine call runs under
   :func:`~repro.resilience.execute.run_one` with the configured
   :class:`~repro.resilience.execute.RetryPolicy` and per-attempt
   watchdog deadline; requests whose own deadline lapsed in the queue
   are dropped with :class:`~repro.errors.DeadlineExceededError`
   before wasting a batch slot.
5. **TTL response cache** — answers are cached per query
   ``cache_key`` (folding in the engine model version) for
   ``cache_ttl_s`` seconds, so repeat advisory traffic short-circuits
   the queue entirely.

Every dispatch emits a ``serve.batch`` span and the registry counters/
histograms (queue wait, batch size, coalesce counts, rejections), so a
traced load run's ``repro report`` shows the serving phases alongside
engine and task phases.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.config_io import config_from_dict
from repro.analysis.shape_rules import ShapeLinter
from repro.core.config import get_model
from repro.engine import cache as _engine_cache
from repro.engine.core import ShapeEngine, default_engine
from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ReproError,
    ServeError,
    ServerClosedError,
)
from repro.gpu.specs import get_gpu
from repro.kernels.registry import KernelParamResolver
from repro.observability.metrics import metrics as _metrics
from repro.observability.tracing import event as _event
from repro.observability.tracing import span as _span
from repro.resilience.execute import RetryPolicy, run_one
from repro.serve.batcher import PendingRequest, RequestQueue, plan_batch
from repro.serve.config import ServeConfig
from repro.serve.dispatch import RETRYABLE_ERRORS, is_retryable
from repro.serve.protocol import Advisory, ShapeQuery

__all__ = ["AdvisoryServer", "ServerStats", "shard_for"]

#: Batch-size histogram edges (requests per dispatch).
_BATCH_EDGES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def shard_for(gpu_name: str, workers: int) -> int:
    """Stable shard index for a canonical GPU spec name.

    SHA-256 based so the partition is identical across processes and
    runs (Python's ``hash`` is salted per process, which would make
    shard assignment — and therefore batch composition — irreproducible).
    """
    digest = hashlib.sha256(gpu_name.encode()).digest()
    return int.from_bytes(digest[:4], "big") % workers


class _TTLCache:
    """Thread-safe response cache with per-entry expiry and a size cap.

    Entries are ``(expires_at monotonic seconds, value)``; reads past
    expiry miss and evict.  Size-capped FIFO on insertion order —
    advisory payloads are small, so plain boundedness is enough.
    """

    def __init__(self, maxsize: int, ttl_s: float) -> None:
        self.maxsize = maxsize
        self.ttl_s = ttl_s
        self._data: "OrderedDict[Any, Tuple[float, Any]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Any) -> Optional[Any]:
        if self.ttl_s <= 0:
            return None
        now = time.monotonic()
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                return None
            expires_at, value = entry
            if now >= expires_at:
                del self._data[key]
                return None
            return value

    def put(self, key: Any, value: Any) -> None:
        if self.ttl_s <= 0:
            return
        with self._lock:
            self._data[key] = (time.monotonic() + self.ttl_s, value)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


@dataclass
class ServerStats:
    """Monotonic serving counters, snapshotted by :meth:`AdvisoryServer.stats`.

    ``coalesce_ratio`` is shape requests dispatched through batches per
    vectorized engine call — the dynamic-batching win; > 1 means the
    batcher is folding concurrent traffic into fewer engine
    evaluations than requests.
    """

    requests: int = 0
    cache_hits: int = 0
    dispatched: int = 0
    shape_dispatched: int = 0
    served: int = 0
    failed: int = 0
    rejected_queue_full: int = 0
    rejected_deadline: int = 0
    rejected_closed: int = 0
    engine_calls: int = 0
    engine_rows: int = 0
    coalesced_duplicates: int = 0
    batches: int = 0
    max_batch_size: int = 0
    lint_served: int = 0
    kernel_served: int = 0

    @property
    def rejected(self) -> int:
        return (
            self.rejected_queue_full
            + self.rejected_deadline
            + self.rejected_closed
        )

    @property
    def coalesce_ratio(self) -> float:
        if not self.engine_calls:
            return 0.0
        return self.shape_dispatched / self.engine_calls

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return self.dispatched / self.batches

    def to_dict(self) -> Dict[str, Any]:
        out = {
            k: getattr(self, k)
            for k in (
                "requests", "cache_hits", "dispatched", "shape_dispatched",
                "served", "failed", "rejected_queue_full", "rejected_deadline",
                "rejected_closed", "engine_calls", "engine_rows",
                "coalesced_duplicates", "batches", "max_batch_size",
                "lint_served", "kernel_served",
            )
        }
        out["coalesce_ratio"] = round(self.coalesce_ratio, 3)
        out["mean_batch_size"] = round(self.mean_batch_size, 3)
        return out

    def describe(self) -> str:
        return (
            f"{self.requests} requests: {self.served} served "
            f"({self.cache_hits} cache hits), {self.failed} failed, "
            f"{self.rejected} rejected; {self.engine_calls} engine calls "
            f"over {self.batches} batches "
            f"(coalesce ratio {self.coalesce_ratio:.2f}, "
            f"{self.coalesced_duplicates} duplicate shapes folded)"
        )


class AdvisoryServer:
    """Dynamically-batching, GPU-sharded shape-advisory service.

    Parameters
    ----------
    config:
        Serving knobs; defaults to ``ServeConfig()``.
    engine:
        The shape engine answering batched queries; defaults to the
        process-wide :func:`~repro.engine.core.default_engine`.

    Usable as a context manager (``with AdvisoryServer() as server:``).
    Requests may be submitted before :meth:`start` — they queue (and
    admission control applies), which tests use to build deterministic
    backlogs.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        engine: Optional[ShapeEngine] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self._engine = engine if engine is not None else default_engine()
        self._queues = [
            RequestQueue(self.config.max_queue)
            for _ in range(self.config.workers)
        ]
        self._threads: List[threading.Thread] = []
        self._cache = _TTLCache(self.config.cache_entries, self.config.cache_ttl_s)
        self._stats = ServerStats()
        self._stats_lock = threading.Lock()
        self._batch_seq = 0
        self._closed = False
        self._started = False
        # kernel_params resolver: built on first use (tables come from
        # REPRO_KERNEL_TABLES); a load failure is remembered and served
        # as a typed failed advisory instead of crash-looping a worker.
        self._kernel_lock = threading.Lock()
        self._kernel_resolver: Optional[Any] = None
        self._kernel_error: Optional[ReproError] = None
        self._policy = RetryPolicy(
            retries=self.config.retries,
            backoff_s=self.config.retry_backoff_s,
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "AdvisoryServer":
        """Spawn the worker shards (idempotent)."""
        if self._closed:
            raise ServerClosedError("cannot start a closed server")
        if self._started:
            return self
        self._started = True
        for i in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker, args=(i,), name=f"repro-serve-{i}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    def close(self) -> None:
        """Stop accepting requests, drain the queues, join the workers.

        Requests still queued when the workers exit (submitted while
        close raced, or never started) are rejected with
        :class:`~repro.errors.ServerClosedError` rather than dropped.
        """
        if self._closed:
            return
        self._closed = True
        for queue in self._queues:
            queue.close()
        for thread in self._threads:
            thread.join()
        # Anything a never-started (or racing) server still holds.
        for queue in self._queues:
            for item in queue.take_batch(self.config.max_queue, 0.0):
                self._reject(
                    item, ServerClosedError("server closed before dispatch"),
                    counter="rejected_closed",
                )

    def __enter__(self) -> "AdvisoryServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- submission ---------------------------------------------------------

    def submit(self, query: ShapeQuery) -> "Future[Advisory]":
        """Asynchronously submit one query; returns a future advisory.

        Raises :class:`~repro.errors.ServerClosedError` on a closed
        server and :class:`~repro.errors.QueueFullError` when the
        target shard is at its depth cap (both are also counted in the
        metrics registry).  Invalid queries (unknown GPU/dtype) resolve
        to a *failed* advisory rather than raising, so one bad request
        in a stream never kills the callers sharing the server.
        """
        admitted = self._admit(query)
        future: "Future[Advisory]" = Future()
        if isinstance(admitted, Advisory):
            future.set_result(admitted)
            return future
        item = PendingRequest(
            query=query, future=future, deadline_at_s=self._deadline()
        )
        try:
            self._queues[admitted].put(item)
        except QueueFullError:
            self._count("rejected_queue_full")
            _metrics().counter("serve.rejected.queue_full").inc()
            _event("serve.reject", reason="queue_full", shard=admitted)
            raise
        return future

    def answer(self, queries: Sequence[ShapeQuery]) -> List[Advisory]:
        """Answer ``queries`` on the calling thread; advisories in order.

        Each query passes the same admission as :meth:`submit`
        (counters, GPU validation into a failed advisory, TTL-cache
        hit).  The rest are priced by the batch body the dispatch
        threads run, in ``max_batch`` slices per shard, so one call
        makes one engine call per ``(gpu, dtype)`` bucket of a slice.
        No queue, thread or future is involved: ``max_queue`` and
        ``linger_s`` do not apply, and nothing needs :meth:`start`.
        Raises :class:`~repro.errors.ServerClosedError` on a closed
        server.
        """
        deadline = self._deadline()
        answers: List[Union[Advisory, PendingRequest]] = []
        shards: Dict[int, List[PendingRequest]] = {}
        for query in queries:
            admitted = self._admit(query)
            if not isinstance(admitted, Advisory):
                item = PendingRequest(query=query, deadline_at_s=deadline)
                shards.setdefault(admitted, []).append(item)
                admitted = item
            answers.append(admitted)
        step = self.config.max_batch
        for shard, items in shards.items():
            for start in range(0, len(items), step):
                self._dispatch(shard, items[start:start + step])
        return [
            a if isinstance(a, Advisory) else a.advisory for a in answers
        ]

    def request(
        self, query: ShapeQuery, timeout_s: Optional[float] = None
    ) -> Advisory:
        """Submit and block for the advisory (the synchronous path)."""
        return self.submit(query).result(timeout=timeout_s)

    def shard_of(self, query: ShapeQuery) -> int:
        """The worker shard a query routes to (canonical GPU spec)."""
        return shard_for(get_gpu(query.gpu).name, self.config.workers)

    def stats(self) -> ServerStats:
        """A consistent snapshot of the serving counters."""
        with self._stats_lock:
            return ServerStats(**vars(self._stats))

    @property
    def closed(self) -> bool:
        return self._closed

    # -- internals ----------------------------------------------------------

    def _cache_key(self, query: ShapeQuery) -> Tuple[Any, ...]:
        return query.cache_key() + (_engine_cache.model_version(),)

    def _count(self, field_name: str, n: int = 1) -> None:
        with self._stats_lock:
            setattr(self._stats, field_name, getattr(self._stats, field_name) + n)

    def _admit(self, query: ShapeQuery) -> Union[Advisory, int]:
        """Admission shared by :meth:`submit` and :meth:`answer`.

        Returns the finished advisory (a validation failure or a cache
        hit) or the shard that must price the query.
        """
        if self._closed:
            self._count("rejected_closed")
            _metrics().counter("serve.rejected.closed").inc()
            raise ServerClosedError("server is closed")
        self._count("requests")
        _metrics().counter("serve.requests").inc()
        try:
            shard = self.shard_of(query)
        except ReproError as exc:
            self._count("failed")
            _metrics().counter("serve.failed").inc()
            return Advisory(
                query=query, status="failed", error=str(exc),
                error_type=type(exc).__name__, source="validation",
                retryable=is_retryable(exc),
            )
        cached = self._cache.get(self._cache_key(query))
        if cached is not None:
            self._count("cache_hits")
            _metrics().counter("serve.cache_hits").inc()
            return Advisory(
                query=query, status="ok", payload=dict(cached),
                source="cache", shard=shard,
            )
        return shard

    def _deadline(self) -> Optional[float]:
        if self.config.deadline_s is None:
            return None
        return time.monotonic() + self.config.deadline_s

    def _resolve(self, item: PendingRequest, advisory: Advisory) -> None:
        item.advisory = advisory
        if item.future is None:
            return
        try:
            item.future.set_result(advisory)
        except Exception:  # future cancelled by an abandoning caller
            pass

    def _reject(
        self, item: PendingRequest, exc: ServeError, counter: str
    ) -> None:
        self._count(counter)
        # "rejected_deadline" -> "serve.rejected.deadline", matching the
        # submit path's "serve.rejected.queue_full" naming.
        suffix = counter[len("rejected_"):]
        _metrics().counter(f"serve.rejected.{suffix}").inc()
        _event("serve.reject", reason=suffix)
        self._resolve(
            item,
            Advisory(
                query=item.query, status="rejected", error=str(exc),
                error_type=type(exc).__name__, retryable=is_retryable(exc),
            ),
        )

    def _worker(self, shard: int) -> None:
        queue = self._queues[shard]
        while True:
            batch = queue.take_batch(self.config.max_batch, self.config.linger_s)
            if not batch:
                return  # closed and drained
            self._dispatch(shard, batch)

    def _dispatch(self, shard: int, batch: List[PendingRequest]) -> None:
        """The one batch body: answer every request of ``batch``.

        Run by a dispatch thread per queued batch and by :meth:`answer`
        per slice; each request's advisory lands through
        :meth:`_resolve`.
        """
        now = time.monotonic()
        live: List[PendingRequest] = []
        for item in batch:
            if item.expired(now):
                self._reject(
                    item,
                    DeadlineExceededError(
                        f"request waited past its "
                        f"{self.config.deadline_s:g}s deadline"
                    ),
                    counter="rejected_deadline",
                )
            else:
                live.append(item)
        if not live:
            return

        queue_waits = [now - item.enqueued_at_s for item in live]
        wait_hist = _metrics().histogram("serve.queue_wait_s")
        for wait in queue_waits:
            wait_hist.observe(wait)
        _metrics().histogram("serve.batch_size", edges=_BATCH_EDGES).observe(
            len(live)
        )

        calls, passthrough = plan_batch(live)
        engine_calls = [c for c in calls if not c.kernel]
        with self._stats_lock:
            self._stats.dispatched += len(live)
            self._stats.batches += 1
            self._stats.max_batch_size = max(
                self._stats.max_batch_size, len(live)
            )
            self._batch_seq += 1
            batch_no = self._batch_seq
        _metrics().counter("serve.batches").inc()

        with _span(
            "serve.batch",
            shard=shard,
            size=len(live),
            engine_calls=len(engine_calls),
            rows=sum(c.rows for c in engine_calls),
            duplicates=sum(c.duplicates for c in engine_calls),
        ):
            for call in calls:
                if call.kernel:
                    self._run_kernel_call(shard, call, len(live))
                else:
                    self._run_engine_call(shard, batch_no, call, len(live))
            for item in passthrough:
                self._run_lint(shard, item, len(live))

    def _run_engine_call(
        self, shard: int, batch_no: int, call: Any, batch_size: int
    ) -> None:
        self._count("shape_dispatched", len(call.assignments))
        self._count("engine_calls")
        self._count("engine_rows", call.rows)
        self._count("coalesced_duplicates", call.duplicates)
        _metrics().counter("serve.engine_calls").inc()
        _metrics().counter("serve.engine_rows").inc(call.rows)
        _metrics().counter("serve.coalesced_duplicates").inc(call.duplicates)

        outcome = run_one(
            lambda _tid: self._engine.evaluate(call.shapes, call.gpu, call.dtype),
            f"serve.batch.{batch_no}.{call.gpu}.{call.dtype}",
            policy=self._policy,
            timeout_s=self.config.compute_timeout_s,
        )
        now = time.monotonic()
        if outcome.ok:
            result = outcome.value
            for item, row in call.assignments:
                advisory = Advisory(
                    query=item.query,
                    status="ok",
                    payload=self._payload(item.query, result, row),
                    source="engine",
                    shard=shard,
                    queue_wait_s=now - item.enqueued_at_s,
                    batch_size=batch_size,
                )
                self._cache.put(self._cache_key(item.query), advisory.payload)
                self._count("served")
                _metrics().counter("serve.served").inc()
                self._resolve(item, advisory)
        else:
            message = (
                f"engine evaluation failed after {outcome.attempts} "
                f"attempt(s): {outcome.error_type}: {outcome.error}"
            )
            for item, _row in call.assignments:
                self._count("failed")
                _metrics().counter("serve.failed").inc()
                self._resolve(
                    item,
                    Advisory(
                        query=item.query, status="failed", error=message,
                        error_type=outcome.error_type or ServeError.__name__,
                        retryable=outcome.error_type in RETRYABLE_ERRORS,
                        shard=shard, batch_size=batch_size,
                    ),
                )

    @staticmethod
    def _payload(query: ShapeQuery, result: Any, row: int) -> Dict[str, Any]:
        """Project one evaluated engine row into the query's payload."""
        latency_s = float(result.latency_s[row])
        tflops = float(result.tflops[row])
        if query.kind == "latency":
            return {"latency_s": latency_s}
        if query.kind == "tflops":
            return {"tflops": tflops}
        return {
            "latency_s": latency_s,
            "tflops": tflops,
            "tile": result.tile(row).name,
            "bound": str(result.bound[row]),
            "blocks": int(result.blocks[row]),
            "waves": int(result.waves[row]),
            "alignment_eff": float(result.alignment_eff[row]),
            "wave_eff": float(result.wave_eff[row]),
        }

    def _run_lint(
        self, shard: int, item: PendingRequest, batch_size: int
    ) -> None:
        query = item.query
        with _span("serve.lint", shard=shard, gpu=query.gpu):
            try:
                if query.model is not None:
                    cfg = get_model(query.model)
                else:
                    cfg = config_from_dict(query.lint_config())
                report = ShapeLinter(query.gpu, dtype=query.dtype).lint(
                    cfg, pipeline_stages=query.pipeline_stages
                )
            except ReproError as exc:
                self._count("failed")
                _metrics().counter("serve.failed").inc()
                self._resolve(
                    item,
                    Advisory(
                        query=query, status="failed", error=str(exc),
                        error_type=type(exc).__name__, shard=shard,
                        batch_size=batch_size, retryable=is_retryable(exc),
                    ),
                )
                return
        payload = {
            "target": report.target,
            "exit_code": report.exit_code,
            "worst": report.worst.name,
            "findings": [d.to_dict() for d in report.findings()],
            "fixits": [
                d.fixit.to_dict()
                for d in report.diagnostics
                if d.fixit is not None
            ],
        }
        advisory = Advisory(
            query=query, status="ok", payload=payload, source="engine",
            shard=shard, queue_wait_s=time.monotonic() - item.enqueued_at_s,
            batch_size=batch_size,
        )
        self._cache.put(self._cache_key(query), payload)
        self._count("served")
        self._count("lint_served")
        _metrics().counter("serve.served").inc()
        _metrics().counter("serve.lint_served").inc()
        self._resolve(item, advisory)

    def _kernel_params_resolver(self) -> Any:
        """The shared kernel-table resolver, built once from the env.

        Raises the remembered :class:`~repro.errors.KernelTableError`
        on every call after a failed build, so a bad table directory
        yields typed failed advisories instead of a worker crash loop.
        """
        with self._kernel_lock:
            if self._kernel_error is not None:
                raise self._kernel_error
            if self._kernel_resolver is None:
                try:
                    self._kernel_resolver = KernelParamResolver.from_env(
                        engine=self._engine
                    )
                except ReproError as exc:
                    self._kernel_error = exc
                    raise
            return self._kernel_resolver

    def _run_kernel_call(
        self, shard: int, call: Any, batch_size: int
    ) -> None:
        """Answer one (gpu, dtype) group of ``kernel_params`` requests.

        One resolver call prices every table miss in the group in one
        tile sweep; a resolver error fails every request of the group.
        """
        with _span(
            "serve.kernel", shard=shard, gpu=call.gpu, rows=call.rows,
            size=len(call.assignments),
        ):
            try:
                resolver = self._kernel_params_resolver()
                payloads = resolver.resolve_many(
                    call.shapes.tolist(), call.gpu, call.dtype
                )
            except ReproError as exc:
                for item, _row in call.assignments:
                    self._count("failed")
                    _metrics().counter("serve.failed").inc()
                    self._resolve(
                        item,
                        Advisory(
                            query=item.query, status="failed",
                            error=str(exc), error_type=type(exc).__name__,
                            shard=shard, batch_size=batch_size,
                            retryable=is_retryable(exc),
                        ),
                    )
                return
        now = time.monotonic()
        for item, row in call.assignments:
            payload = dict(payloads[row])
            advisory = Advisory(
                query=item.query, status="ok", payload=payload,
                source="engine", shard=shard,
                queue_wait_s=now - item.enqueued_at_s, batch_size=batch_size,
            )
            self._cache.put(self._cache_key(item.query), payload)
            self._count("served")
            self._count("kernel_served")
            _metrics().counter("serve.served").inc()
            _metrics().counter("serve.kernel_served").inc()
            self._resolve(item, advisory)
