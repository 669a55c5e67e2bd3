"""Transport-agnostic dispatch: one codepath for every advisory client.

The serve tier has three ways to reach an engine — the in-process
:class:`~repro.serve.server.AdvisoryServer`, a worker process behind
the supervisor, and a TCP socket into the cluster front-end.  They all
speak the same contract, captured here:

- :class:`Transport` — the structural protocol every dispatch target
  satisfies: ``request(query, timeout_s) -> Advisory``.  The in-process
  server implements it natively; the
  :class:`~repro.serve.supervisor.Supervisor` through its blocking
  shim over ``dispatch``; :class:`~repro.serve.netclient.
  SocketTransport` over JSONL sockets with reconnect-and-backoff.  :class:`~repro.serve.client.AdvisoryClient`
  and :func:`~repro.serve.loadgen.run_load` accept *any* transport, so
  the in-process path and the network path share one client codepath
  and one differential test wall.
- :func:`error_to_advisory` — the single place a server-side exception
  becomes a protocol-level advisory.  Network clients never see a raw
  traceback: every failure crosses the wire as a structured advisory
  whose ``error_type`` names the :class:`~repro.errors.ServeError`
  subclass and whose ``retryable`` flag says whether backing off and
  retrying can ever help (backpressure/shedding/worker churn: yes;
  malformed queries and model errors: no).
- :func:`unwrap_advisory` — the client-side inverse: a non-ok advisory
  re-raises the typed exception named by its ``error_type``, so
  callers branch on exception class, never on message strings.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Protocol, Type, runtime_checkable

from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    LoadShedError,
    QueueFullError,
    ReproError,
    ServeError,
    ServerClosedError,
    TaskTimeoutError,
    WorkerDiedError,
)
from repro.serve.protocol import Advisory, ShapeQuery

__all__ = [
    "RETRYABLE_ERRORS",
    "TYPED_ERRORS",
    "Transport",
    "error_to_advisory",
    "is_retryable",
    "unwrap_advisory",
]


@runtime_checkable
class Transport(Protocol):
    """Anything that can answer one advisory query, blocking.

    :class:`~repro.serve.server.AdvisoryServer` (in-process),
    :class:`~repro.serve.supervisor.Supervisor` (worker processes, once
    ``start()``-ed) and :class:`~repro.serve.netclient.SocketTransport`
    (network) all satisfy this shape, which is what lets the client
    facade and the load generator run unchanged against any of them.
    """

    def request(
        self, query: ShapeQuery, timeout_s: Optional[float] = None
    ) -> Advisory:
        """Answer one query, blocking up to ``timeout_s`` seconds."""
        ...  # pragma: no cover - protocol signature only


#: Error types a client may sensibly retry after backoff: transient
#: capacity or churn conditions, not properties of the query itself.
RETRYABLE_ERRORS = frozenset(
    {
        QueueFullError.__name__,
        DeadlineExceededError.__name__,
        LoadShedError.__name__,
        WorkerDiedError.__name__,
        TaskTimeoutError.__name__,
    }
)

#: ``error_type`` name -> exception class, for client-side re-raising.
#: Deliberately only the :class:`~repro.errors.ServeError` family:
#: callers of :func:`unwrap_advisory` catch ``ServeError`` and always
#: get one — config/shape problems fold to the base class (the precise
#: name still rides on the advisory's ``error_type`` for logs).
TYPED_ERRORS: Dict[str, Type[ServeError]] = {
    cls.__name__: cls
    for cls in (
        QueueFullError,
        DeadlineExceededError,
        ServerClosedError,
        LoadShedError,
        ClusterError,
        WorkerDiedError,
    )
}


def is_retryable(exc: BaseException) -> bool:
    """Whether retrying after backoff could ever change the outcome."""
    if isinstance(exc, ReproError):
        return type(exc).__name__ in RETRYABLE_ERRORS
    # Non-repro exceptions (torn pipes, OS errors) are environmental.
    return isinstance(exc, (OSError, EOFError))


def error_to_advisory(
    query: Optional[ShapeQuery],
    exc: BaseException,
    raw_query: Optional[Mapping[str, Any]] = None,
    shard: int = 0,
) -> Advisory:
    """Fold a server-side exception into a structured advisory.

    ``query`` may be ``None`` when the request never parsed into a
    :class:`ShapeQuery` (malformed JSON, bad fields); ``raw_query``
    preserves whatever the client sent so the echo in the advisory
    still identifies the request.  Rejections (admission control,
    shedding, deadlines) keep status ``"rejected"``; everything else is
    ``"failed"``.
    """
    if query is None:
        # A placeholder the wire layer can still echo; the original
        # request is unparseable so the advisory carries a stub query.
        query = ShapeQuery(kind="latency", m=1, n=1, k=1)
        payload_echo = dict(raw_query) if raw_query is not None else None
    else:
        payload_echo = None
    rejected = isinstance(
        exc, (QueueFullError, DeadlineExceededError, LoadShedError,
              ServerClosedError)
    )
    advisory = Advisory(
        query=query,
        status="rejected" if rejected else "failed",
        error=str(exc),
        error_type=type(exc).__name__,
        retryable=is_retryable(exc),
        shard=shard,
    )
    if payload_echo is not None:
        advisory.payload = {"request": payload_echo}
    return advisory


def unwrap_advisory(advisory: Advisory) -> Dict[str, Any]:
    """Return the payload of an ok advisory or raise its typed error.

    The inverse of :func:`error_to_advisory`: a non-ok advisory
    re-raises the :class:`~repro.errors.ServeError` subclass (or
    config/shape error) named by ``error_type``, defaulting to plain
    :class:`~repro.errors.ServeError` for unknown names.
    """
    if advisory.ok:
        return advisory.payload
    exc_cls = TYPED_ERRORS.get(advisory.error_type or "", ServeError)
    raise exc_cls(advisory.error or f"advisory {advisory.status}")
