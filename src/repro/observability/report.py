"""Trace analysis: per-phase latency / cache / retry breakdown.

Backs ``repro report trace.jsonl``.  Given spans (live from a
:class:`~repro.observability.tracing.TraceRecorder` or reloaded with
:func:`~repro.observability.tracing.load_trace`), :func:`summarize`
builds a :class:`TraceReport` whose :meth:`~TraceReport.render_text`
answers the questions the paper's kernel-share figures answer for a
training step:

- **Where did the time go?**  Total/mean/max duration per phase (the
  first dot-segment of a span name) and per span name, with shares.
- **What did the caches do?**  Engine batch evaluations split by
  ``source`` (memory / disk / compute) from ``engine.evaluate`` spans,
  plus SoA whole-grid evaluations (``engine.evaluate_grid``), column
  memo lookups (``engine.memo_columns``), and per-experiment
  engine-cache deltas from ``runner.experiment`` spans.
- **What did resilience do?**  Task attempts split by outcome, retried
  tasks, injected-fault firings, journal appends — so a chaos sweep's
  trace shows every retry storm and fault site at a glance.

The module is dependency-free (plain text rendering) so the
observability package never imports the layers it instruments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.observability.tracing import LoadedTrace, Span

__all__ = ["NameStats", "TraceReport", "summarize", "render_trace_report"]


@dataclass
class NameStats:
    """Aggregate duration statistics for one span name (or phase)."""

    name: str
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    errors: int = 0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def add(self, span: Span) -> None:
        self.count += 1
        self.total_s += span.duration_s
        self.max_s = max(self.max_s, span.duration_s)
        if span.status != "ok":
            self.errors += 1


def _aggregate(spans: Sequence[Span], key) -> List[NameStats]:
    stats: Dict[str, NameStats] = {}
    for span in spans:
        k = key(span)
        entry = stats.get(k)
        if entry is None:
            entry = stats[k] = NameStats(name=k)
        entry.add(span)
    return sorted(stats.values(), key=lambda s: -s.total_s)


@dataclass
class TraceReport:
    """Everything the trace-report verb prints, in structured form."""

    spans: int
    dropped_lines: int
    wall_span_s: float
    processes: int
    threads: int
    phases: List[NameStats] = field(default_factory=list)
    names: List[NameStats] = field(default_factory=list)
    #: engine.evaluate spans bucketed by their ``source`` attribute.
    cache_sources: Dict[str, int] = field(default_factory=dict)
    #: shapes evaluated per source (sum of the ``shapes`` attribute).
    cache_shapes: Dict[str, int] = field(default_factory=dict)
    #: engine.evaluate_grid spans (SoA front door) and their shape total.
    grid_evaluations: int = 0
    grid_shapes: int = 0
    #: engine.memo_columns spans bucketed by ``source``.
    column_memo_sources: Dict[str, int] = field(default_factory=dict)
    #: per-experiment engine cache deltas from runner.experiment
    #: spans: id -> {engine_hits, engine_misses}.
    experiment_engine: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: task.attempt spans bucketed by their ``outcome`` attribute.
    attempt_outcomes: Dict[str, int] = field(default_factory=dict)
    tasks: int = 0
    retried_tasks: int = 0
    max_attempts: int = 0
    fault_events: int = 0
    fault_sites: Dict[str, int] = field(default_factory=dict)
    journal_appends: int = 0

    def phase_names(self) -> List[str]:
        return [p.name for p in self.phases]

    # -- rendering -----------------------------------------------------------

    def render_text(self) -> str:
        lines: List[str] = [
            f"trace: {self.spans} span(s) over {self.wall_span_s * 1e3:.1f} ms "
            f"({self.processes} process(es), {self.threads} thread(s))",
        ]
        if self.dropped_lines:
            lines.append(f"  {self.dropped_lines} torn/corrupt line(s) dropped on load")
        if not self.spans:
            lines.append("(empty trace)")
            return "\n".join(lines)

        total = sum(p.total_s for p in self.phases) or 1.0
        lines.append("")
        lines.append("per-phase breakdown (span time, not wall time):")
        lines.append(
            f"  {'phase':<14} {'spans':>6} {'total_ms':>10} {'mean_ms':>9} "
            f"{'max_ms':>9} {'share':>6} {'errors':>6}"
        )
        for p in self.phases:
            lines.append(
                f"  {p.name:<14} {p.count:>6} {p.total_s * 1e3:>10.2f} "
                f"{p.mean_s * 1e3:>9.3f} {p.max_s * 1e3:>9.2f} "
                f"{100 * p.total_s / total:>5.1f}% {p.errors:>6}"
            )

        lines.append("")
        lines.append("per-span-name breakdown:")
        for n in self.names:
            lines.append(
                f"  {n.name:<28} {n.count:>6} spans  {n.total_s * 1e3:>10.2f} ms "
                f"(mean {n.mean_s * 1e3:.3f} ms, max {n.max_s * 1e3:.2f} ms"
                + (f", {n.errors} errors)" if n.errors else ")")
            )

        if self.cache_sources:
            lines.append("")
            evals = sum(self.cache_sources.values())
            hits = evals - self.cache_sources.get("compute", 0)
            lines.append(
                f"engine cache: {evals} batch evaluation(s), "
                f"{hits} served from cache "
                f"({100 * hits / evals:.0f}% batch hit rate)"
            )
            for source in ("memory", "disk", "compute"):
                if source in self.cache_sources:
                    shapes = self.cache_shapes.get(source, 0)
                    lines.append(
                        f"  {source:<8} {self.cache_sources[source]:>5} "
                        f"batch(es), {shapes} shape(s)"
                    )
        if self.grid_evaluations:
            lines.append(
                f"soa grids: {self.grid_evaluations} whole-grid evaluation(s), "
                f"{self.grid_shapes} shape(s)"
            )
        if self.column_memo_sources:
            lookups = sum(self.column_memo_sources.values())
            source_bits = ", ".join(
                f"{k}: {v}"
                for k in ("memory", "disk", "compute")
                if (v := self.column_memo_sources.get(k))
            )
            lines.append(f"column memo: {lookups} lookup(s) ({source_bits})")
        if self.experiment_engine:
            lines.append("")
            lines.append("per-experiment cache deltas (hits/misses):")
            lines.append(f"  {'experiment':<20} {'engine':>10}")
            for exp_id, st in sorted(self.experiment_engine.items()):
                eng = f"{st['engine_hits']}/{st['engine_misses']}"
                lines.append(f"  {exp_id:<20} {eng:>10}")

        if self.attempt_outcomes:
            lines.append("")
            attempts = sum(self.attempt_outcomes.values())
            outcome_bits = ", ".join(
                f"{k}: {v}" for k, v in sorted(self.attempt_outcomes.items())
            )
            lines.append(
                f"tasks: {self.tasks} task(s), {attempts} attempt(s) "
                f"({outcome_bits})"
            )
            if self.retried_tasks:
                lines.append(
                    f"  {self.retried_tasks} task(s) retried "
                    f"(max {self.max_attempts} attempts on one task)"
                )
        if self.fault_events:
            sites = ", ".join(
                f"{k}: {v}" for k, v in sorted(self.fault_sites.items())
            )
            lines.append(f"faults: {self.fault_events} injected firing(s) ({sites})")
        if self.journal_appends:
            lines.append(f"journal: {self.journal_appends} checkpoint append(s)")
        return "\n".join(lines)


def summarize(
    trace: "LoadedTrace | Sequence[Span]",
    dropped_lines: Optional[int] = None,
) -> TraceReport:
    """Aggregate spans into a :class:`TraceReport`."""
    if isinstance(trace, LoadedTrace):
        spans: List[Span] = list(trace.spans)
        dropped = trace.dropped_lines if dropped_lines is None else dropped_lines
        wall = trace.wall_span_s()
    else:
        spans = list(trace)
        dropped = dropped_lines or 0
        if spans:
            start = min(s.start_unix_s for s in spans)
            end = max(s.start_unix_s + s.duration_s for s in spans)
            wall = end - start
        else:
            wall = 0.0

    report = TraceReport(
        spans=len(spans),
        dropped_lines=dropped,
        wall_span_s=wall,
        processes=len({s.pid for s in spans}),
        threads=len({(s.pid, s.thread) for s in spans}),
        phases=_aggregate(spans, lambda s: s.phase),
        names=_aggregate(spans, lambda s: s.name),
    )

    task_attempts: Dict[Any, int] = {}
    for span in spans:
        if span.name == "engine.evaluate":
            source = str(span.attrs.get("source", "compute"))
            report.cache_sources[source] = report.cache_sources.get(source, 0) + 1
            report.cache_shapes[source] = report.cache_shapes.get(
                source, 0
            ) + int(span.attrs.get("shapes", 0))
        elif span.name == "engine.evaluate_grid":
            report.grid_evaluations += 1
            report.grid_shapes += int(span.attrs.get("shapes", 0))
        elif span.name == "engine.memo_columns":
            source = str(span.attrs.get("source", "compute"))
            report.column_memo_sources[source] = (
                report.column_memo_sources.get(source, 0) + 1
            )
        elif span.name == "runner.experiment":
            exp_id = str(span.attrs.get("id", "?"))
            entry = report.experiment_engine.setdefault(
                exp_id,
                {"engine_hits": 0, "engine_misses": 0},
            )
            for field_name in entry:
                entry[field_name] += int(span.attrs.get(field_name, 0))
        elif span.name == "task.attempt":
            outcome = str(span.attrs.get("outcome", "unknown"))
            report.attempt_outcomes[outcome] = (
                report.attempt_outcomes.get(outcome, 0) + 1
            )
            task = span.attrs.get("task", "?")
            task_attempts[task] = task_attempts.get(task, 0) + 1
        elif span.name == "fault.fired":
            report.fault_events += 1
            site = str(span.attrs.get("site", "?"))
            report.fault_sites[site] = report.fault_sites.get(site, 0) + 1
        elif span.name == "journal.append":
            report.journal_appends += 1
    report.tasks = len(task_attempts)
    report.retried_tasks = sum(1 for n in task_attempts.values() if n > 1)
    report.max_attempts = max(task_attempts.values(), default=0)
    return report


def render_trace_report(path: str) -> str:
    """Load a JSONL trace file and render the full text report."""
    from repro.observability.tracing import load_trace

    return summarize(load_trace(path)).render_text()
