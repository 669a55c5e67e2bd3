"""Dynamic batching: the bounded request queue and the coalescing plan.

Two pieces, both deliberately free of engine/server dependencies so
they unit-test in isolation:

- :class:`RequestQueue` — a condition-variable-guarded bounded deque,
  used by the in-process server's dispatch threads only (a cluster
  worker answers each pipe read as one batch and has no queue).
  ``put`` applies admission control (depth cap ->
  :class:`~repro.errors.QueueFullError`); ``take_batch`` blocks for the
  first waiting request, then lingers up to the batching window to let
  concurrent callers pile on, returning at most ``max_batch`` requests.
- :func:`plan_batch` — given one batch of pending requests, build the
  minimal set of engine calls: shape requests are bucketed per
  ``(gpu, dtype)`` (one vectorized
  :meth:`~repro.engine.core.ShapeEngine.evaluate` per bucket) and
  *deduplicated* within the bucket (identical shapes share one row).
  ``kernel_params`` requests are grouped the same way, into calls
  flagged ``kernel`` (one resolver call, hence at most one tile sweep,
  per bucket).  The returned :class:`EngineCall` records, for every
  pending request, which row of the merged shape array answers it —
  the scatter step.

The coalescing win is measured, not assumed: the server counts
requests dispatched vs engine calls issued, and the load tests assert
the ratio strictly exceeds 1.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import QueueFullError
from repro.serve.protocol import ShapeQuery

__all__ = ["EngineCall", "PendingRequest", "RequestQueue", "plan_batch"]


@dataclass
class PendingRequest:
    """One request awaiting a batch: the query plus where its answer goes.

    The batch that answers it stores the advisory in ``advisory`` and,
    when the request came through the server's queue, also resolves
    ``future`` (``None`` for a synchronous ``answer`` call).
    ``enqueued_at_s`` / ``deadline_at_s`` are ``time.monotonic``
    seconds; ``deadline_at_s`` is ``None`` when the server has no
    per-request deadline configured.
    """

    query: ShapeQuery
    future: Any = None  # concurrent.futures.Future[Advisory] or None
    enqueued_at_s: float = field(default_factory=time.monotonic)
    deadline_at_s: Optional[float] = None
    advisory: Any = None  # the Advisory, once a batch has answered it

    def expired(self, now_s: Optional[float] = None) -> bool:
        if self.deadline_at_s is None:
            return False
        return (time.monotonic() if now_s is None else now_s) >= self.deadline_at_s


class RequestQueue:
    """Bounded FIFO of :class:`PendingRequest` with batch-drain semantics.

    ``maxsize`` is the admission cap — ``put`` never blocks; a full
    queue is a typed rejection, because a configuration-time advisory
    service should shed load visibly rather than buffer unboundedly.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._items: Deque[PendingRequest] = deque()
        self._cond = threading.Condition()
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    def put(self, item: PendingRequest) -> None:
        """Enqueue or reject; wakes one waiting dispatcher."""
        with self._cond:
            if len(self._items) >= self.maxsize:
                raise QueueFullError(
                    f"queue at depth cap ({self.maxsize}); request rejected"
                )
            self._items.append(item)
            self._cond.notify()

    def close(self) -> None:
        """Wake every waiting dispatcher; subsequent takes drain then stop."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def take_batch(
        self, max_batch: int, linger_s: float
    ) -> List[PendingRequest]:
        """Take up to ``max_batch`` requests, lingering to coalesce.

        Blocks until at least one request is available (or the queue is
        closed — then returns whatever is left, possibly ``[]``).  Once
        the first request is seen, waits up to ``linger_s`` for the
        batch to fill; returns early when ``max_batch`` is reached.
        """
        with self._cond:
            while not self._items and not self._closed:
                self._cond.wait()
            if linger_s > 0 and len(self._items) < max_batch and not self._closed:
                deadline = time.monotonic() + linger_s
                while len(self._items) < max_batch and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        break
            batch: List[PendingRequest] = []
            while self._items and len(batch) < max_batch:
                batch.append(self._items.popleft())
            return batch


@dataclass
class EngineCall:
    """One vectorized engine evaluation answering many requests.

    ``shapes`` is the merged, deduplicated ``(rows, 4)`` int64 array of
    ``(batch, m, n, k)`` rows for one ``(gpu, dtype)`` bucket;
    ``assignments`` maps each pending request to the row index that
    answers it.  ``duplicates`` counts requests folded onto an
    already-present row — the dedup half of the coalescing win (the
    merge half is ``len(assignments) - 1`` requests sharing one call).
    ``kernel`` marks a group of ``kernel_params`` requests, answered by
    the kernel resolver instead of the shape engine.
    """

    gpu: str
    dtype: str
    shapes: np.ndarray
    assignments: List[Tuple[PendingRequest, int]]
    duplicates: int = 0
    kernel: bool = False

    @property
    def rows(self) -> int:
        return int(self.shapes.shape[0])


#: ``(kernel, gpu, dtype)``: which calls a request may share.
_Bucket = Tuple[bool, str, str]


def plan_batch(
    pending: List[PendingRequest],
) -> Tuple[List[EngineCall], List[PendingRequest]]:
    """Coalesce one drained batch into minimal engine work.

    Returns ``(calls, passthrough)``: one :class:`EngineCall` per
    distinct ``(gpu, dtype)`` among the shape queries and one per
    distinct ``(gpu, dtype)`` among the ``kernel_params`` queries
    (flagged ``kernel``), rows deduplicated in first-seen order, plus
    the lint requests the worker answers individually.
    """
    buckets: Dict[_Bucket, Dict[Tuple[int, int, int, int], int]] = {}
    rows: Dict[_Bucket, List[Tuple[int, int, int, int]]] = {}
    assigns: Dict[_Bucket, List[Tuple[PendingRequest, int]]] = {}
    dupes: Dict[_Bucket, int] = {}
    passthrough: List[PendingRequest] = []

    for item in pending:
        query = item.query
        if not (query.is_shape_query or query.is_kernel_query):
            passthrough.append(item)
            continue
        bucket = (query.is_kernel_query, query.gpu, query.dtype)
        index = buckets.setdefault(bucket, {})
        row_list = rows.setdefault(bucket, [])
        shape = query.shape_tuple()
        row = index.get(shape)
        if row is None:
            row = len(row_list)
            index[shape] = row
            row_list.append(shape)
        else:
            dupes[bucket] = dupes.get(bucket, 0) + 1
        assigns.setdefault(bucket, []).append((item, row))

    calls = [
        EngineCall(
            gpu=gpu,
            dtype=dtype,
            shapes=np.asarray(row_list, dtype=np.int64),
            assignments=assigns[(kernel, gpu, dtype)],
            duplicates=dupes.get((kernel, gpu, dtype), 0),
            kernel=kernel,
        )
        for (kernel, gpu, dtype), row_list in rows.items()
    ]
    return calls, passthrough
