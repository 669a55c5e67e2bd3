"""Fault-tolerant task execution: isolation, deadlines, retry/backoff.

:func:`execute_tasks` maps a function over task ids the way
``pool.map`` does, except that **no task failure ever aborts the
sweep**: each task returns a typed :class:`TaskOutcome` (ok / failed /
timed out, with its attempt count and wall time) instead of raising.

Three layers of hardening, each independently usable:

- **Retry with exponential backoff + jitter** (:class:`RetryPolicy`):
  an attempt that raises is retried up to ``retries`` times, sleeping
  ``backoff_s * multiplier**n`` (capped at ``max_backoff_s``) with a
  deterministic per-(task, attempt) jitter so retry storms from
  parallel workers never synchronize — and so tests replay exactly.
- **Per-attempt deadlines**: with ``timeout_s`` set, each attempt runs
  on a watchdog thread and is abandoned once over deadline (Python
  cannot kill a thread, so the attempt may finish in the background;
  its result is discarded).  The outcome records
  :class:`~repro.errors.TaskTimeoutError`.
- **Graceful pool degradation**: if the requested process pool cannot
  be created or dies (unpicklable work, ``BrokenProcessPool``, missing
  ``/dev/shm``), the sweep *downgrades* — process -> thread -> serial —
  logging the downgrade on the ``repro.resilience`` logger rather than
  failing the run.

Outcomes are returned in task order regardless of completion order; an
optional ``on_outcome`` callback sees each outcome as it completes (the
checkpoint journal hooks in there).
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigError, TaskTimeoutError
from repro.observability.metrics import metrics as _metrics
from repro.observability.tracing import span as _span

log = logging.getLogger("repro.resilience")


class TaskStatus(Enum):
    """Terminal state of one task under resilient execution."""

    OK = "ok"
    FAILED = "failed"
    TIMEOUT = "timeout"


@dataclass
class TaskOutcome:
    """What happened to one task: value or typed failure, never a raise.

    ``attempts`` counts executions (1 = succeeded first try);
    ``retries`` is ``attempts - 1``.  ``error_type`` is the exception
    class name (e.g. ``"FaultInjectionError"``) so callers dispatch on
    type without string matching.
    """

    task_id: str
    status: TaskStatus
    value: Any = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 1
    wall_time_s: float = 0.0
    #: Worker tier that produced the outcome ("process"/"thread"/"serial").
    executor: str = "serial"

    @property
    def ok(self) -> bool:
        return self.status is TaskStatus.OK

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    def describe(self) -> str:
        if self.ok:
            extra = f" after {self.attempts} attempts" if self.retries else ""
            return f"{self.task_id}: ok{extra}"
        return (
            f"{self.task_id}: {self.status.value} "
            f"({self.error_type}: {self.error}; {self.attempts} attempts)"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Delay before retry ``n`` (0-based) is ``backoff_s * multiplier**n``
    capped at ``max_backoff_s``, scaled by a jitter factor in
    ``[1 - jitter_frac, 1 + jitter_frac]`` derived from a stable hash
    of ``(seed, task_id, n)`` — identical across runs and processes.
    """

    retries: int = 0
    backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter_frac: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigError("backoff_s/max_backoff_s must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ConfigError(
                f"jitter_frac must be in [0, 1), got {self.jitter_frac}"
            )

    def delay_s(self, task_id: str, retry: int) -> float:
        """Deterministic backoff delay before the given retry number."""
        base = min(
            self.backoff_s * self.multiplier ** retry, self.max_backoff_s
        )
        if base == 0 or self.jitter_frac == 0:
            return base
        token = f"{self.seed}:{task_id}:{retry}".encode()
        draw = int.from_bytes(hashlib.sha256(token).digest()[:4], "big")
        unit = draw / 0xFFFFFFFF  # uniform in [0, 1]
        return base * (1.0 + self.jitter_frac * (2.0 * unit - 1.0))


#: Executor tiers in degradation order; ``serial`` never degrades.
EXECUTOR_TIERS = ("process", "thread", "serial")


def _call_with_deadline(
    fn: Callable[[str], Any], task_id: str, timeout_s: Optional[float]
) -> Any:
    """Run one attempt, raising TaskTimeoutError past the deadline.

    The attempt runs on a daemon watchdog thread; on timeout it is
    abandoned (it may still complete in the background — its result and
    any exception are discarded).
    """
    if timeout_s is None:
        return fn(task_id)
    box: Dict[str, Any] = {}
    done = threading.Event()

    def attempt() -> None:
        try:
            box["value"] = fn(task_id)
        except BaseException as exc:  # re-raised in the caller
            box["error"] = exc
        finally:
            done.set()

    worker = threading.Thread(
        target=attempt, name=f"repro-deadline-{task_id}", daemon=True
    )
    worker.start()
    if not done.wait(timeout_s):
        raise TaskTimeoutError(
            f"task {task_id!r} exceeded {timeout_s:g}s deadline"
        )
    if "error" in box:
        raise box["error"]
    return box["value"]


def run_one(
    fn: Callable[[str], Any],
    task_id: str,
    policy: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
    executor: str = "serial",
) -> TaskOutcome:
    """Execute one task with retries and a per-attempt deadline.

    Never raises: every exception (including injected faults and
    deadline overruns) is folded into the returned outcome.
    """
    policy = policy or RetryPolicy()
    start = time.perf_counter()
    last_exc: Optional[BaseException] = None
    attempts = 0
    for retry in range(policy.retries + 1):
        attempts += 1
        # One span per attempt (backoff sleeps stay outside, so the
        # span duration is attempt work, not queueing).  The outcome is
        # an attribute rather than span status because a failed attempt
        # is handled here, not propagated.
        with _span(
            "task.attempt", task=task_id, attempt=attempts, executor=executor
        ) as sp:
            try:
                value = _call_with_deadline(fn, task_id, timeout_s)
            except Exception as exc:
                last_exc = exc
                sp.set(
                    outcome=(
                        "timeout" if isinstance(exc, TaskTimeoutError)
                        else "error"
                    ),
                    error_type=type(exc).__name__,
                )
                _metrics().counter("tasks.attempts.failed").inc()
            else:
                sp.set(outcome="ok")
                _metrics().counter("tasks.attempts.ok").inc()
                _metrics().histogram("tasks.attempt_s").observe(
                    time.perf_counter() - start
                )
                return TaskOutcome(
                    task_id=task_id,
                    status=TaskStatus.OK,
                    value=value,
                    attempts=attempts,
                    wall_time_s=time.perf_counter() - start,
                    executor=executor,
                )
        if retry < policy.retries:
            delay = policy.delay_s(task_id, retry)
            _metrics().counter("tasks.retries").inc()
            log.warning(
                "task %s attempt %d failed (%s: %s); retrying in %.3fs",
                task_id, attempts, type(last_exc).__name__, last_exc, delay,
            )
            if delay > 0:
                time.sleep(delay)
    assert last_exc is not None
    _metrics().counter("tasks.exhausted").inc()
    status = (
        TaskStatus.TIMEOUT
        if isinstance(last_exc, TaskTimeoutError)
        else TaskStatus.FAILED
    )
    return TaskOutcome(
        task_id=task_id,
        status=status,
        error=str(last_exc),
        error_type=type(last_exc).__name__,
        attempts=attempts,
        wall_time_s=time.perf_counter() - start,
        executor=executor,
    )


@dataclass
class ExecutionReport:
    """Outcomes of one resilient sweep, in task order.

    ``downgrades`` records each executor-tier fallback as
    ``(from_tier, to_tier, reason)``.
    """

    outcomes: List[TaskOutcome] = field(default_factory=list)
    executor: str = "serial"
    downgrades: List[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def failed(self) -> List[TaskOutcome]:
        return [o for o in self.outcomes if not o.ok]


def _run_serial(
    fn: Callable[[str], Any],
    ids: Sequence[str],
    policy: Optional[RetryPolicy],
    timeout_s: Optional[float],
    on_outcome: Optional[Callable[[TaskOutcome], None]],
) -> List[TaskOutcome]:
    outcomes = []
    for task_id in ids:
        outcome = run_one(fn, task_id, policy, timeout_s, executor="serial")
        if on_outcome is not None:
            on_outcome(outcome)
        outcomes.append(outcome)
    return outcomes


def _run_pool(
    pool: Executor,
    tier: str,
    fn: Callable[[str], Any],
    ids: Sequence[str],
    policy: Optional[RetryPolicy],
    timeout_s: Optional[float],
    on_outcome: Optional[Callable[[TaskOutcome], None]],
) -> List[TaskOutcome]:
    """Submit all tasks, journaling outcomes as they complete."""
    futures: Dict[Future, int] = {
        pool.submit(run_one, fn, task_id, policy, timeout_s, tier): i
        for i, task_id in enumerate(ids)
    }
    slots: List[Optional[TaskOutcome]] = [None] * len(ids)
    pending = set(futures)
    while pending:
        finished, pending = wait(pending, return_when=FIRST_COMPLETED)
        for future in finished:
            outcome = future.result()  # run_one never raises; a worker
            # death surfaces here as BrokenProcessPool and is handled
            # by the degradation ladder in execute_tasks.
            slots[futures[future]] = outcome
            if on_outcome is not None:
                on_outcome(outcome)
    return [o for o in slots if o is not None]


def execute_tasks(
    fn: Callable[[str], Any],
    ids: Sequence[str],
    policy: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
    parallel: int = 1,
    executor: str = "thread",
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
) -> ExecutionReport:
    """Map ``fn`` over ``ids`` with isolation, retries, and deadlines.

    Parameters mirror :class:`RetryPolicy` / :func:`run_one`;
    ``executor`` is the *starting* tier — process pools degrade to
    thread, then serial, if the pool cannot be created or breaks
    mid-sweep (already-completed outcomes are kept; unfinished tasks
    are re-executed on the lower tier).
    """
    if parallel < 1:
        raise ConfigError(f"parallel must be >= 1, got {parallel}")
    if executor not in EXECUTOR_TIERS:
        raise ConfigError(
            f"unknown executor {executor!r}; expected one of {EXECUTOR_TIERS}"
        )
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigError(f"timeout_s must be positive, got {timeout_s}")
    report = ExecutionReport(executor=executor)
    if parallel == 1:
        executor = "serial"
        report.executor = "serial"

    tiers = list(EXECUTOR_TIERS[EXECUTOR_TIERS.index(executor):])
    remaining = list(ids)
    done: Dict[str, TaskOutcome] = {}

    def collect(outcome: TaskOutcome) -> None:
        done[outcome.task_id] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    while tiers:
        tier = tiers.pop(0)
        pending = [i for i in remaining if i not in done]
        if not pending:
            break
        try:
            if tier == "serial":
                _run_serial(fn, pending, policy, timeout_s, collect)
            else:
                pool_cls = (
                    ProcessPoolExecutor if tier == "process"
                    else ThreadPoolExecutor
                )
                with pool_cls(max_workers=parallel) as pool:
                    _run_pool(
                        pool, tier, fn, pending, policy, timeout_s, collect
                    )
            report.executor = tier
            break
        except Exception as exc:
            if not tiers:
                raise
            reason = f"{type(exc).__name__}: {exc}"
            log.warning(
                "executor tier %r failed (%s); downgrading to %r",
                tier, reason, tiers[0],
            )
            report.downgrades.append((tier, tiers[0], reason))

    report.outcomes = [done[i] for i in ids if i in done]
    return report
