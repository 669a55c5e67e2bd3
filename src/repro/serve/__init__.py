"""In-process async shape-advisory service with dynamic batching.

``repro.serve`` turns the vectorized :mod:`repro.engine` into a
concurrent advisory service: many callers submit
:class:`~repro.serve.protocol.ShapeQuery` requests (evaluate / latency
/ tflops / lint) and a pool of worker shards answers them by
*coalescing* concurrently-waiting requests — identical shapes are
deduplicated, distinct ones merged — into single vectorized
:meth:`~repro.engine.core.ShapeEngine.evaluate` calls.  Admission
control (bounded queues -> :class:`~repro.errors.QueueFullError`),
per-request deadlines, retry/timeout via :mod:`repro.resilience`, a
TTL'd response cache, and full :mod:`repro.observability` spans and
metrics come along.  Answers are bit-identical to direct engine calls;
the deterministic load generator (:func:`run_load`) proves it on every
benchmark run.

The same service also runs as a **multi-process cluster**: a
:class:`~repro.serve.supervisor.Supervisor` owns N worker *processes*
(each an :class:`AdvisoryServer` shard behind a JSONL pipe, sharing
the mmap warm cache) with heartbeat health checks, crash restart under
an exponential-backoff budget, priority load-shedding, and a degraded
fallback answered on its event loop.  Its one request entry is the
loop-side ``dispatch``; :class:`~repro.serve.cluster.ClusterServer`
fronts it over TCP on the same loop and :class:`~repro.serve.netclient.
SocketTransport` is the reconnecting client.  Every flavour satisfies
the one :class:`~repro.serve.dispatch.Transport` protocol (the
supervisor through its blocking ``start``/``request``/``close`` shim),
so the client facade and the differential load wall are shared
verbatim.
"""

from repro.serve.client import AdvisoryClient
from repro.serve.config import ServeConfig
from repro.serve.server import AdvisoryServer

__all__ = ["AdvisoryClient", "AdvisoryServer", "ServeConfig"]
