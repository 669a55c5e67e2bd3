"""Serving configuration: every knob of the advisory service, JSON-safe.

:class:`ServeConfig` is the single object threaded from the CLI
(``repro serve --workers/--max-batch/--max-queue``) through the
:class:`~repro.serve.server.AdvisoryServer` into each worker shard.
All fields are plain scalars so a config round-trips exactly through
JSON (``to_json`` / ``from_json``) — the property tests fuzz that
round-trip — and validation lives in ``__post_init__`` so an invalid
config is a :class:`~repro.errors.ConfigError` at construction, never a
hang or a silent misbehaviour at serving time.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigError

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one :class:`~repro.serve.server.AdvisoryServer`.

    Times are seconds (``_s`` suffix).  ``max_queue`` is the per-shard
    admission cap: a shard whose queue holds that many waiting requests
    rejects new ones with :class:`~repro.errors.QueueFullError`.
    ``linger_s`` is the dynamic-batching window — after the first
    request is picked up, the dispatcher waits up to this long for more
    requests to coalesce into the same engine call.  Both govern the
    in-process server's queue only: a cluster worker has no queue and
    answers each pipe read as one batch.  ``deadline_s`` is
    the per-request time budget from enqueue to dispatch (``None`` =
    no deadline); ``cache_ttl_s`` bounds response-cache staleness
    (``0`` disables the cache).  ``retries`` / ``retry_backoff_s`` /
    ``compute_timeout_s`` parameterize the
    :class:`~repro.resilience.execute.RetryPolicy` and per-attempt
    watchdog deadline wrapped around every batched engine evaluation.

    The ``heartbeat_*`` / ``restart_*`` / ``shed_*`` / ``drain_s`` /
    ``degrade_local`` block parameterizes the multi-process cluster
    tier (:mod:`repro.serve.cluster`): the supervisor pings each worker
    every ``heartbeat_s`` seconds and declares it hung after
    ``heartbeat_misses`` consecutive pongs slower than
    ``heartbeat_timeout_s``; crashed/hung workers restart with
    exponential backoff from ``restart_backoff_s``, but a worker that
    crashes ``restart_budget`` times within ``restart_window_s``
    seconds is a crash loop and stays down.  The front-end sheds
    queries with ``priority <= shed_priority`` once cluster-wide
    in-flight depth has exceeded ``shed_depth`` for ``shed_after``
    consecutive admissions (sustained backpressure, not a blip), and
    — when ``degrade_local`` is on — answers from an in-process
    fallback engine if every worker is down.  ``drain_s`` bounds the
    graceful-shutdown wait for in-flight requests on SIGTERM.
    """

    workers: int = 2
    max_batch: int = 64
    max_queue: int = 256
    linger_s: float = 0.002
    deadline_s: Optional[float] = None
    cache_ttl_s: float = 60.0
    cache_entries: int = 4096
    retries: int = 0
    retry_backoff_s: float = 0.01
    compute_timeout_s: Optional[float] = None
    heartbeat_s: float = 0.25
    heartbeat_timeout_s: float = 1.0
    heartbeat_misses: int = 3
    restart_backoff_s: float = 0.1
    restart_budget: int = 5
    restart_window_s: float = 30.0
    shed_depth: int = 512
    shed_priority: int = 0
    shed_after: int = 2
    drain_s: float = 5.0
    degrade_local: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.linger_s < 0:
            raise ConfigError(f"linger_s must be >= 0, got {self.linger_s}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(
                f"deadline_s must be positive or None, got {self.deadline_s}"
            )
        if self.cache_ttl_s < 0:
            raise ConfigError(
                f"cache_ttl_s must be >= 0, got {self.cache_ttl_s}"
            )
        if self.cache_entries < 1:
            raise ConfigError(
                f"cache_entries must be >= 1, got {self.cache_entries}"
            )
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.retry_backoff_s < 0:
            raise ConfigError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.compute_timeout_s is not None and self.compute_timeout_s <= 0:
            raise ConfigError(
                "compute_timeout_s must be positive or None, "
                f"got {self.compute_timeout_s}"
            )
        if self.heartbeat_s <= 0:
            raise ConfigError(
                f"heartbeat_s must be positive, got {self.heartbeat_s}"
            )
        if self.heartbeat_timeout_s <= 0:
            raise ConfigError(
                f"heartbeat_timeout_s must be positive, "
                f"got {self.heartbeat_timeout_s}"
            )
        if self.heartbeat_misses < 1:
            raise ConfigError(
                f"heartbeat_misses must be >= 1, got {self.heartbeat_misses}"
            )
        if self.restart_backoff_s < 0:
            raise ConfigError(
                f"restart_backoff_s must be >= 0, got {self.restart_backoff_s}"
            )
        if self.restart_budget < 1:
            raise ConfigError(
                f"restart_budget must be >= 1, got {self.restart_budget}"
            )
        if self.restart_window_s <= 0:
            raise ConfigError(
                f"restart_window_s must be positive, "
                f"got {self.restart_window_s}"
            )
        if self.shed_depth < 1:
            raise ConfigError(
                f"shed_depth must be >= 1, got {self.shed_depth}"
            )
        if not 0 <= self.shed_priority <= 9:
            raise ConfigError(
                f"shed_priority must be in [0, 9], got {self.shed_priority}"
            )
        if self.shed_after < 1:
            raise ConfigError(
                f"shed_after must be >= 1, got {self.shed_after}"
            )
        if self.drain_s < 0:
            raise ConfigError(f"drain_s must be >= 0, got {self.drain_s}")
        if not isinstance(self.degrade_local, bool):
            raise ConfigError(
                f"degrade_local must be a bool, got {self.degrade_local!r}"
            )

    # -- JSON round-trip ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServeConfig":
        if not isinstance(data, dict):
            raise ConfigError(
                f"serve config must be an object, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown serve config field(s): {', '.join(unknown)} "
                f"(valid: {', '.join(sorted(known))})"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"invalid serve config: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ServeConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed serve config JSON: {exc}") from exc
        return cls.from_dict(data)

    def worker_config(self) -> "ServeConfig":
        """The in-worker server config: one shard per worker process.

        Cluster-level sharding happens in the front-end (one worker
        *process* per shard); inside each worker the embedded
        :class:`~repro.serve.server.AdvisoryServer` is a single shard
        with the same ``max_batch``, cache, deadline and retry knobs.
        The worker calls its ``answer`` once per pipe read on its one
        thread, so ``max_queue`` and ``linger_s`` have no effect there.
        """
        return dataclasses.replace(self, workers=1)

    def describe(self) -> str:
        deadline = (
            f"{self.deadline_s:g}s" if self.deadline_s is not None else "none"
        )
        return (
            f"{self.workers} worker(s), batch<={self.max_batch}, "
            f"queue<={self.max_queue}/shard, linger {self.linger_s * 1e3:g}ms, "
            f"deadline {deadline}, cache ttl {self.cache_ttl_s:g}s, "
            f"heartbeat {self.heartbeat_s:g}s, "
            f"restart budget {self.restart_budget}/{self.restart_window_s:g}s, "
            f"shed depth {self.shed_depth} (priority<={self.shed_priority})"
        )
