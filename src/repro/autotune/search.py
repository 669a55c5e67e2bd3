"""Generic ranked brute-force search over one integer dimension.

The paper's Sec VII-B methodology is exactly this: "one can now search
for a good nearby number that still leads to high-performance GEMMs".
:func:`search_dimension` evaluates a user-supplied latency function over
an integer range (optionally restricted to a step grid) and returns the
candidates ranked best-first, with percentile annotations so "one of the
best performing sizes in its range" is a checkable statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.observability.metrics import metrics as _metrics
from repro.observability.tracing import span as _span
from repro.resilience.faults import fault_site

if TYPE_CHECKING:
    from repro.resilience.checkpoint import SweepJournal


@dataclass(frozen=True)
class SearchResult:
    """One evaluated candidate value.

    ``rank`` uses competition ranking: equal-latency candidates share
    the rank of the first of them, so a tie for best is reported as
    rank 0 (and percentile 1.0) for *every* tied value rather than
    depending on the arbitrary sort position within the tie.
    """

    value: int
    latency_s: float
    rank: int
    total: int

    @property
    def percentile(self) -> float:
        """Fraction of candidates this value beats (1.0 = best)."""
        if self.total <= 1:
            return 1.0
        return 1.0 - self.rank / (self.total - 1)

    @property
    def is_top_decile(self) -> bool:
        return self.percentile >= 0.9


def search_dimension(
    latency_fn: Optional[Callable[[int], float]],
    lo: int,
    hi: int,
    step: int = 1,
    must_include: Sequence[int] = (),
    constraint: Optional[Callable[[int], bool]] = None,
    batch_latency_fn: Optional[Callable[[Sequence[int]], Sequence[float]]] = None,
    journal: Optional["SweepJournal"] = None,
) -> List[SearchResult]:
    """Evaluate candidates over [lo, hi] and rank ascending latency.

    ``must_include`` values are evaluated even if off the step grid
    (e.g. a published model's actual choice); duplicates of on-grid
    values are collapsed before evaluation so no candidate is scored
    (or ranked) twice.  ``constraint`` filters candidates (e.g.
    divisibility by the tensor-parallel degree).

    ``batch_latency_fn``, when given, is called with the candidate list
    and must return one latency per candidate — the hook the vectorized
    engine plugs into; ``latency_fn`` may then be None.

    ``journal``, when given, checkpoints each candidate's latency as it
    is evaluated (:class:`repro.resilience.checkpoint.SweepJournal`): a
    killed search resumed with the same journal re-evaluates only the
    candidates it has no record for (with ``batch_latency_fn`` the
    remaining candidates are scored in one batch call over the missing
    subset).
    """
    for name, bound in (("lo", lo), ("hi", hi), ("step", step)):
        if isinstance(bound, bool) or not isinstance(bound, int):
            raise ConfigError(
                f"{name} must be an int, got {type(bound).__name__}"
            )
    if lo <= 0 or hi < lo:
        raise ConfigError(f"invalid range [{lo}, {hi}]")
    if step <= 0:
        raise ConfigError(f"step must be positive, got {step}")
    if latency_fn is None and batch_latency_fn is None:
        raise ConfigError("need latency_fn or batch_latency_fn")
    if latency_fn is not None and not callable(latency_fn):
        raise ConfigError(
            f"latency_fn must be callable, got {type(latency_fn).__name__}"
        )
    if batch_latency_fn is not None and not callable(batch_latency_fn):
        raise ConfigError(
            "batch_latency_fn must be callable, got "
            f"{type(batch_latency_fn).__name__}"
        )
    if constraint is not None and not callable(constraint):
        raise ConfigError(
            f"constraint must be callable, got {type(constraint).__name__}"
        )
    for v in must_include:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(
                f"must_include values must be ints, got {v!r}"
            )
    # A set dedupes must_include values that already sit on the grid
    # (and duplicates within must_include itself).
    values = set(range(lo, hi + 1, step))
    values.update(int(v) for v in must_include if lo <= v <= hi)
    if constraint is not None:
        values = {v for v in values if constraint(v)}
    if not values:
        raise ConfigError("no candidates satisfy the constraint")
    candidates = sorted(values)
    with _span(
        "autotune.search", lo=lo, hi=hi, candidates=len(candidates)
    ) as sp:
        fault_site("autotune.search", lo=lo, hi=hi, candidates=len(candidates))

        known: Dict[int, float] = {}
        if journal is not None:
            for entry in journal.entries():
                if entry.get("status") != "ok":
                    continue
                try:
                    known[int(entry["id"])] = float(entry["payload"]["latency_s"])
                except (KeyError, TypeError, ValueError):
                    continue  # foreign/torn record; re-evaluate that value
        missing = [v for v in candidates if v not in known]
        sp.set(evaluated=len(missing), resumed=len(candidates) - len(missing))
        reg = _metrics()
        reg.counter("autotune.searches").inc()
        reg.counter("autotune.candidates_evaluated").inc(len(missing))
        reg.counter("autotune.candidates_resumed").inc(
            len(candidates) - len(missing)
        )

        if batch_latency_fn is not None:
            fresh = [float(lat) for lat in batch_latency_fn(missing)] if missing else []
            if len(fresh) != len(missing):
                raise ConfigError(
                    f"batch_latency_fn returned {len(fresh)} latencies "
                    f"for {len(missing)} candidates"
                )
            evaluated = dict(zip(missing, fresh))
        else:
            evaluated = {}
            for v in missing:
                evaluated[v] = float(latency_fn(v))
                if journal is not None:
                    journal.record(str(v), "ok", payload={"latency_s": evaluated[v]})
        if journal is not None and batch_latency_fn is not None:
            for v in missing:
                journal.record(str(v), "ok", payload={"latency_s": evaluated[v]})
        latencies = [known[v] if v in known else evaluated[v] for v in candidates]

    scored = sorted(zip(latencies, candidates), key=lambda t: (t[0], t[1]))
    total = len(scored)
    results = []
    rank = 0
    for i, (lat, v) in enumerate(scored):
        if lat != scored[rank][0]:
            rank = i  # new latency group starts; ties keep the old rank
        results.append(SearchResult(value=v, latency_s=lat, rank=rank, total=total))
    return results


def result_for(results: Sequence[SearchResult], value: int) -> SearchResult:
    """Find the entry for a specific candidate value."""
    for res in results:
        if res.value == value:
            return res
    raise ConfigError(f"value {value} was not part of the search")
