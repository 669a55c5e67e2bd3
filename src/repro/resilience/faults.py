"""Deterministic fault injection at named sites.

Production code paths call :func:`fault_site` at the few places where
real systems fail — worker task entry, engine batch evaluation, disk
cache reads/writes, calibration fits.  With no plan installed the call
is a single global check and costs nothing.  Chaos runs and tests
install a :class:`FaultPlan` (``repro run --inject-faults plan.json``)
whose seeded :class:`FaultSpec` entries then fire at those sites:

- ``raise`` — raise a named exception (default
  :class:`~repro.errors.FaultInjectionError`),
- ``delay`` — sleep ``delay_s`` (drives deadline/timeout paths),
- ``corrupt`` — overwrite the file named by the site's ``path`` context
  with deterministic garbage (drives cache-quarantine paths),
- ``kill`` — SIGKILL the *current process* (drives the cluster
  supervisor's crash-recovery path; only meaningful inside a worker
  process, where the supervisor observes the death and restarts it).

Every spec is deterministic: it targets a site name, optionally a
``match`` substring against the site's context values, skips its first
``skip`` matching calls, then fires ``times`` times.  ``probability``
draws from a :class:`random.Random` seeded from ``(plan seed, site,
spec index)``, so a given plan always injects the same faults at the
same calls regardless of thread scheduling of *other* sites.

A plan is JSON round-trippable::

    {"seed": 0, "faults": [
        {"site": "runner.experiment", "kind": "raise", "match": "fig5",
         "times": 1, "exception": "RuntimeError", "message": "chaos"}
    ]}
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import repro.errors as errors
from repro.errors import ConfigError
from repro.observability.metrics import metrics as _metrics
from repro.observability.tracing import event as _event

#: Site names instrumented in this codebase (kept in one place so tests
#: and plan authors don't guess; :func:`fault_site` accepts any name).
KNOWN_SITES = (
    "runner.experiment",
    "engine.batch_eval",
    "cache.disk_get",
    "cache.disk_put",
    "autotune.search",
    "calibration.fit",
    "cluster.worker",
    "cluster.heartbeat",
    "cluster.conn",
)

_KINDS = ("raise", "delay", "corrupt", "kill")

#: Exceptions a plan may name without a dotted path.
_NAMED_EXCEPTIONS: Dict[str, type] = {
    name: obj
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def _resolve_exception(name: str) -> type:
    """Map an exception name from a plan to a raisable class."""
    import builtins

    if name in _NAMED_EXCEPTIONS:
        return _NAMED_EXCEPTIONS[name]
    builtin = getattr(builtins, name, None)
    if isinstance(builtin, type) and issubclass(builtin, BaseException):
        return builtin
    raise ConfigError(
        f"unknown exception {name!r} in fault plan; use a builtin or a "
        f"repro.errors name ({', '.join(sorted(_NAMED_EXCEPTIONS))})"
    )


@dataclass
class FaultSpec:
    """One deterministic fault: where, what, and how often.

    ``delay_s`` is the sleep injected by kind ``delay``; ``probability``
    is the per-call firing fraction in [0, 1] drawn from the spec's own
    seeded stream (1.0 = every matching call).
    """

    site: str
    kind: str = "raise"
    #: Substring matched against the site's context values (e.g. the
    #: experiment id); empty matches every call.
    match: str = ""
    #: Number of matching calls to let pass before firing.
    skip: int = 0
    #: Maximum number of firings (0 = unlimited).
    times: int = 1
    probability: float = 1.0
    exception: str = "FaultInjectionError"
    message: str = ""
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(
                f"fault kind {self.kind!r} not one of {_KINDS}"
            )
        if not self.site:
            raise ConfigError("fault spec needs a site name")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.skip < 0 or self.times < 0 or self.delay_s < 0:
            raise ConfigError("skip/times/delay_s must be non-negative")
        _resolve_exception(self.exception)  # fail fast on bad names

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "match": self.match,
            "skip": self.skip,
            "times": self.times,
            "probability": self.probability,
            "exception": self.exception,
            "message": self.message,
            "delay_s": self.delay_s,
        }


class _SpecState:
    """Mutable firing state for one spec (counters + seeded stream)."""

    def __init__(self, spec: FaultSpec, seed: int, index: int) -> None:
        self.spec = spec
        self.seen = 0
        self.fired = 0
        self.rng = random.Random(f"{seed}:{spec.site}:{index}")

    def should_fire(self, context: Dict[str, Any]) -> bool:
        spec = self.spec
        if spec.match and not any(
            spec.match in str(v) for v in context.values()
        ):
            return False
        self.seen += 1
        if self.seen <= spec.skip:
            return False
        if spec.times and self.fired >= spec.times:
            return False
        if spec.probability < 1.0 and self.rng.random() >= spec.probability:
            return False
        self.fired += 1
        return True


@dataclass
class FaultEvent:
    """Record of one fired fault (plans keep a log for assertions)."""

    site: str
    kind: str
    context: Dict[str, Any] = field(default_factory=dict)


class FaultPlan:
    """A seeded collection of :class:`FaultSpec` with firing state."""

    def __init__(self, specs: List[FaultSpec], seed: int = 0) -> None:
        self.seed = seed
        self.specs = list(specs)
        self._states = [
            _SpecState(s, seed, i) for i, s in enumerate(self.specs)
        ]
        self._lock = threading.Lock()
        self.events: List[FaultEvent] = []

    # -- (de)serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict) or "faults" not in data:
            raise ConfigError(
                "fault plan must be an object with a 'faults' list"
            )
        specs = []
        for i, raw in enumerate(data["faults"]):
            if not isinstance(raw, dict):
                raise ConfigError(f"faults[{i}] is not an object")
            unknown = set(raw) - {
                "site", "kind", "match", "skip", "times", "probability",
                "exception", "message", "delay_s",
            }
            if unknown:
                raise ConfigError(
                    f"faults[{i}] has unknown fields {sorted(unknown)}"
                )
            specs.append(FaultSpec(**raw))
        return cls(specs, seed=int(data.get("seed", 0)))

    @classmethod
    def load(cls, path: "str | Path") -> "FaultPlan":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read fault plan {path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"invalid JSON in fault plan {path}: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [s.to_dict() for s in self.specs],
        }

    # -- firing --------------------------------------------------------------

    def fired(self, site: Optional[str] = None) -> int:
        """Number of faults fired so far (optionally for one site)."""
        with self._lock:
            return sum(
                1 for e in self.events if site is None or e.site == site
            )

    def _next_fault(
        self, site: str, context: Dict[str, Any]
    ) -> Optional[FaultSpec]:
        with self._lock:
            for state in self._states:
                if state.spec.site == site and state.should_fire(context):
                    self.events.append(
                        FaultEvent(site=site, kind=state.spec.kind,
                                   context=dict(context))
                    )
                    return state.spec
        return None

    def trigger(self, site: str, context: Dict[str, Any]) -> None:
        """Fire at most one matching spec for this call to ``site``."""
        spec = self._next_fault(site, context)
        if spec is None:
            return
        # Record before acting: a 'raise' fault must still leave a trace.
        _metrics().counter("faults.fired").inc()
        _event("fault.fired", site=site, kind=spec.kind)
        if spec.kind == "delay":
            time.sleep(spec.delay_s)
            return
        if spec.kind == "corrupt":
            path = context.get("path")
            if path is not None:
                _corrupt_file(Path(path), self.seed)
            return
        if spec.kind == "kill":
            # Uncatchable by design: a crashed worker leaves no goodbye.
            os.kill(os.getpid(), signal.SIGKILL)
            return  # pragma: no cover - SIGKILL never returns
        exc_cls = _resolve_exception(spec.exception)
        message = spec.message or (
            f"injected fault at {site} ({context or 'no context'})"
        )
        raise exc_cls(message)


def _corrupt_file(path: Path, seed: int) -> None:
    """Overwrite a file with deterministic garbage bytes."""
    rng = random.Random(f"corrupt:{seed}:{path.name}")
    garbage = bytes(rng.randrange(256) for _ in range(64))
    try:
        path.write_bytes(garbage)
    except OSError:  # pragma: no cover - corruption target vanished
        pass


# -- the installed plan ----------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_LOCK = threading.Lock()


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or, with ``None``, remove) the process-wide fault plan.

    The plan is process-global so worker *threads* of a resilient sweep
    see it; process-pool workers do not inherit it (chaos runs use the
    thread or serial executor).
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = plan


def clear_plan() -> None:
    install_plan(None)


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


class injected:
    """Context manager installing a plan for the duration of a block."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def __enter__(self) -> FaultPlan:
        install_plan(self.plan)
        return self.plan

    def __exit__(self, *exc_info: Any) -> None:
        clear_plan()


def fault_site(site: str, **context: Any) -> None:
    """Hook production code calls at a named failure point.

    No-op (one global read) unless a plan is installed.  ``context``
    carries site-specific values a spec can ``match`` against — e.g.
    ``fault_site("runner.experiment", id=exp_id)`` — and, for
    ``corrupt`` faults, the target ``path``.

    May raise whatever exception the matching spec configures; callers
    must *not* catch injected faults specially — the point is that they
    flow through the same handling as organic failures.
    """
    plan = _ACTIVE
    if plan is None:
        return
    plan.trigger(site, context)


def iter_sites() -> Iterator[Tuple[str, str]]:
    """Known instrumented sites with a short description (docs/CLI)."""
    docs = {
        "runner.experiment": "entry of one experiment task in run_all",
        "engine.batch_eval": "ShapeEngine.evaluate, before computing a batch",
        "cache.disk_get": "DiskCache.get, before reading an entry",
        "cache.disk_put": "DiskCache.put, after writing an entry (corrupt target)",
        "autotune.search": "search_dimension, before scoring candidates",
        "calibration.fit": "run_calibration, before each constant fit",
        "cluster.worker": "worker process, before answering one query "
                          "(kill here = crash mid-request)",
        "cluster.heartbeat": "worker process, before answering a ping "
                             "(delay here = stalled heartbeat)",
        "cluster.conn": "front-end, per accepted client line "
                        "(raise here = torn socket)",
    }
    for site in KNOWN_SITES:
        yield site, docs[site]
