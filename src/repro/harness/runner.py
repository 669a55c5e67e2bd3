"""Programmatic runner over the experiment registry.

``run_experiment`` executes one experiment and its qualitative check;
``run_all`` sweeps the registry — serially or across a
``concurrent.futures`` pool — and summarizes.  This is what generates
the paper-vs-measured records in EXPERIMENTS.md and backs the
``repro figure`` / ``repro bench`` / ``repro run`` CLI verbs.

Each report carries its wall time and the shape-evaluation cache
activity it caused (memory-LRU and disk-store hits/misses of the
default engine), so regressions in the hot path show up directly in
the rendered reports.  With a thread pool the cache counters are
process-wide, so concurrent experiments' attributions overlap; totals
remain exact.

Sweeps can run **resiliently** (:func:`run_all_resilient`, or
``run_all`` with any of ``retries`` / ``timeout_s`` / ``journal`` /
``isolate``): one raising or hanging experiment no longer aborts the
sweep — it yields a failure report carrying the exception type and
retry count while every other experiment completes.  With a journal,
completed experiments are checkpointed so a killed sweep resumes where
it left off (``repro run --resume``).
"""

from __future__ import annotations

import difflib
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.diagnostics import LintReport, Severity
from repro.analysis.shape_rules import ShapeLinter
from repro.core.config import get_model
from repro.engine.core import default_engine
from repro.errors import ExperimentError
from repro.harness.compare import CheckResult
from repro.harness.figures import get_experiment, list_experiments
from repro.harness.results import ResultTable
from repro.observability.metrics import metrics as _metrics
from repro.observability.tracing import span as _span
from repro.resilience.checkpoint import SweepJournal
from repro.resilience.execute import RetryPolicy, TaskOutcome, execute_tasks
from repro.resilience.faults import fault_site


@dataclass
class ExperimentReport:
    """An experiment's table plus its check outcome and run stats."""

    id: str
    title: str
    paper_ref: str
    table: ResultTable
    check: CheckResult
    wall_time_s: float = 0.0
    #: Engine cache traffic (memory LRU + disk store lookups of the
    #: process-wide default engine) attributed to this experiment.
    engine_hits: int = 0
    engine_misses: int = 0
    #: Preflight shape-lint over the experiment's declared model
    #: configs (``Experiment.lint_configs``); ``None`` when the
    #: experiment declares none.
    lint: Optional["LintReport"] = None
    #: Set on failure reports from a resilient sweep: the exception
    #: message and class name the experiment task died with.
    error: Optional[str] = None
    error_type: Optional[str] = None
    #: Executions under the retry policy (1 = first try succeeded).
    attempts: int = 1
    #: True when this report was restored from a resume journal rather
    #: than re-executed (its table is a placeholder).
    restored: bool = False

    @property
    def passed(self) -> bool:
        return self.check.passed

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    @property
    def lint_warnings(self) -> int:
        """Findings at WARNING or above in the preflight shape lint."""
        if self.lint is None:
            return 0
        return len(self.lint.findings(Severity.WARNING))

    def render(self, max_rows: Optional[int] = 30) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"== {self.id} ({self.paper_ref}) [{status}] ==",
            self.title,
            "",
            str(self.table) if max_rows is None else _truncate(self.table, max_rows),
            "",
            f"check: {self.check.details}",
            f"wall time: {self.wall_time_s * 1e3:.1f} ms, "
            f"engine: {self.engine_hits} hits / {self.engine_misses} misses",
        ]
        if self.error is not None:
            lines.append(
                f"error: {self.error_type}: {self.error} "
                f"({self.attempts} attempt(s))"
            )
        if self.lint_warnings:
            lines.append(
                f"lint: {self.lint_warnings} shape warning(s) on this "
                "experiment's configs — see 'repro lint <model>'"
            )
        return "\n".join(lines)


def _truncate(table: ResultTable, max_rows: int) -> str:
    text = str(table)
    lines = text.splitlines()
    head = 3  # title + header + rule
    if len(lines) <= head + max_rows:
        return text
    kept = lines[: head + max_rows]
    kept.append(f"... ({len(lines) - head - max_rows} more rows)")
    return "\n".join(kept)


def preflight_lint(exp, gpu: str = "A100") -> Optional["LintReport"]:
    """Shape-lint an experiment's declared configs before it runs.

    Intentional negative cases (the paper's *inefficient* shapes, e.g.
    ``c1`` or unpadded GPT-NeoX vocabularies) still lint with warnings;
    the preflight only surfaces them, it never blocks the run.
    """
    if not exp.lint_configs:
        return None
    configs = [get_model(name) for name in exp.lint_configs]
    return ShapeLinter(gpu).lint_grid(configs)


def run_experiment(exp_id: str) -> ExperimentReport:
    """Run one experiment by id, including its qualitative check.

    Experiments that declare ``lint_configs`` get a preflight shape
    lint whose report rides along on the
    :attr:`ExperimentReport.lint` field.
    """
    exp = get_experiment(exp_id)
    with _span("runner.experiment", id=exp.id) as sp:
        fault_site("runner.experiment", id=exp.id)
        lint = preflight_lint(exp)
        engine = default_engine()
        mem_before = engine.memory_stats.snapshot()
        disk_before = (
            engine.disk_stats.snapshot() if engine.disk_stats is not None else None
        )
        start = time.perf_counter()
        table = exp.run()
        check = exp.check(table)
        elapsed = time.perf_counter() - start
        engine_used = engine.memory_stats.delta(mem_before)
        engine_hits, engine_misses = engine_used.hits, engine_used.misses
        if disk_before is not None and engine.disk_stats is not None:
            disk_used = engine.disk_stats.delta(disk_before)
            # A disk hit resolved a memory miss; don't double-count it
            # as a miss at the experiment level.
            engine_hits += disk_used.hits
            engine_misses = max(0, engine_misses - disk_used.hits)
        sp.set(
            passed=check.passed,
            rows=len(table.rows),
            engine_hits=engine_hits,
            engine_misses=engine_misses,
        )
        reg = _metrics()
        reg.counter("runner.experiments").inc()
        reg.histogram("runner.experiment_s").observe(elapsed)
        return ExperimentReport(
            id=exp.id,
            title=exp.title,
            paper_ref=exp.paper_ref,
            table=table,
            check=check,
            wall_time_s=elapsed,
            engine_hits=engine_hits,
            engine_misses=engine_misses,
            lint=lint,
        )


def validate_ids(ids: Sequence[str]) -> List[str]:
    """Resolve all experiment ids up front, or raise one error naming
    every unknown id with its closest valid matches.

    Raising before any work starts (rather than deep inside a worker
    pool, mid-sweep) turns a typo into an instant, actionable message
    instead of a partially completed run.
    """
    known = [e.id for e in list_experiments(include_family_members=True)]
    resolved: List[str] = []
    problems: List[str] = []
    for raw in ids:
        canon = str(raw).strip().lower()
        if canon in known:
            resolved.append(canon)
            continue
        close = difflib.get_close_matches(canon, known, n=3, cutoff=0.5)
        hint = f" (did you mean: {', '.join(close)}?)" if close else ""
        problems.append(f"{raw!r}{hint}")
    if problems:
        raise ExperimentError(
            f"unknown experiment id(s): {'; '.join(problems)}. "
            "See 'repro figures' for the registry."
        )
    return resolved


_EXECUTORS = {
    "thread": ThreadPoolExecutor,
    "process": ProcessPoolExecutor,
}


@dataclass
class SweepResult:
    """Everything a resilient sweep produced.

    ``reports`` is one per requested id, in request order (restored,
    executed, and failure reports alike); ``outcomes`` covers only the
    ids actually executed this run; ``skipped`` names the ids restored
    from the resume journal; ``downgrades`` lists executor-tier
    fallbacks as ``(from_tier, to_tier, reason)``.
    """

    reports: List[ExperimentReport] = field(default_factory=list)
    outcomes: List[TaskOutcome] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    downgrades: List[tuple] = field(default_factory=list)
    executor: str = "serial"

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def failures(self) -> List[ExperimentReport]:
        return [r for r in self.reports if r.error is not None]


def _failure_report(outcome: TaskOutcome) -> ExperimentReport:
    """A per-experiment error outcome rendered as a failing report."""
    try:
        exp = get_experiment(outcome.task_id)
        title, paper_ref = exp.title, exp.paper_ref
    except ExperimentError:  # pragma: no cover - ids validated up front
        title, paper_ref = outcome.task_id, "?"
    table = ResultTable(
        f"{outcome.task_id}: no results ({outcome.status.value})", ["note"]
    )
    table.add(f"{outcome.error_type}: {outcome.error}")
    return ExperimentReport(
        id=outcome.task_id,
        title=title,
        paper_ref=paper_ref,
        table=table,
        check=CheckResult(
            passed=False,
            details=(
                f"{outcome.status.value} after {outcome.attempts} "
                f"attempt(s): {outcome.error_type}: {outcome.error}"
            ),
        ),
        wall_time_s=outcome.wall_time_s,
        error=outcome.error,
        error_type=outcome.error_type,
        attempts=outcome.attempts,
    )


def _restored_report(entry: Dict) -> ExperimentReport:
    """Rebuild a completed experiment's report from its journal entry."""
    payload = entry.get("payload", {})
    table = ResultTable("restored from resume journal", ["note"])
    table.add("experiment completed in a previous run; table not re-generated")
    return ExperimentReport(
        id=entry["id"],
        title=payload.get("title", entry["id"]),
        paper_ref=payload.get("paper_ref", "?"),
        table=table,
        check=CheckResult(
            passed=bool(payload.get("passed", False)),
            details=payload.get("check_details", "restored from journal"),
        ),
        wall_time_s=float(payload.get("wall_time_s", 0.0)),
        attempts=int(entry.get("attempts", 1)),
        restored=True,
    )


def _journal_payload(report: ExperimentReport) -> Dict:
    return {
        "title": report.title,
        "paper_ref": report.paper_ref,
        "passed": report.passed,
        "check_details": report.check.details,
        "wall_time_s": round(report.wall_time_s, 6),
    }


def sweep_journal(
    path: "str", ids: Sequence[str], resume: bool = False
) -> "SweepJournal":
    """Open (or resume) the checkpoint journal for a run_all sweep.

    The journal's sweep id is derived from the sorted experiment ids,
    so resuming against a journal from a *different* sweep fails loudly
    instead of skipping the wrong work.
    """
    sweep_id = "run_all:" + ",".join(sorted(ids))
    return SweepJournal(path, sweep_id=sweep_id, resume=resume)


def run_all_resilient(
    ids: Optional[Sequence[str]] = None,
    parallel: int = 1,
    executor: str = "thread",
    retries: int = 0,
    timeout_s: Optional[float] = None,
    journal: Optional["SweepJournal"] = None,
    policy: Optional[RetryPolicy] = None,
) -> SweepResult:
    """Run experiments with failure isolation, deadlines, and resume.

    Every experiment yields a report: failures become error reports
    (exception type, message, attempt count) instead of aborting the
    sweep.  With ``journal``, each completion is checkpointed as it
    happens and already-completed ids are restored instead of re-run.
    """
    if ids is None:
        ids = [e.id for e in list_experiments()]
    ids = validate_ids(ids)
    if policy is None:
        policy = RetryPolicy(retries=retries)

    by_id: Dict[str, ExperimentReport] = {}
    skipped: List[str] = []
    pending = list(ids)
    if journal is not None:
        completed = journal.completed()
        for exp_id in ids:
            if exp_id in completed:
                entry = journal.entry_for(exp_id)
                assert entry is not None
                by_id[exp_id] = _restored_report(entry)
                skipped.append(exp_id)
        pending = [i for i in ids if i not in completed]

    def on_outcome(outcome: TaskOutcome) -> None:
        if journal is None:
            return
        if outcome.ok:
            journal.record(
                outcome.task_id,
                "ok",
                payload=_journal_payload(outcome.value),
                attempts=outcome.attempts,
            )
        else:
            journal.record(
                outcome.task_id,
                outcome.status.value,
                payload={
                    "error": outcome.error,
                    "error_type": outcome.error_type,
                },
                attempts=outcome.attempts,
            )

    execution = execute_tasks(
        run_experiment,
        pending,
        policy=policy,
        timeout_s=timeout_s,
        parallel=parallel,
        executor=executor,
        on_outcome=on_outcome,
    )
    for outcome in execution.outcomes:
        if outcome.ok:
            report = outcome.value
            report.attempts = outcome.attempts
            by_id[outcome.task_id] = report
        else:
            by_id[outcome.task_id] = _failure_report(outcome)

    return SweepResult(
        reports=[by_id[i] for i in ids],
        outcomes=execution.outcomes,
        skipped=skipped,
        downgrades=execution.downgrades,
        executor=execution.executor,
    )


def run_all(
    ids: Optional[Sequence[str]] = None,
    parallel: int = 1,
    executor: str = "thread",
    retries: int = 0,
    timeout_s: Optional[float] = None,
    journal: Optional["SweepJournal"] = None,
    isolate: bool = False,
) -> List[ExperimentReport]:
    """Run a set of experiments (default: every top-level one).

    Parameters
    ----------
    parallel:
        Number of concurrent workers; ``1`` (default) runs serially in
        this thread.
    executor:
        ``"thread"`` (shares the in-process shape caches — the fast,
        default choice since experiments are NumPy-bound) or
        ``"process"`` (full isolation; each worker warms its own cache).
    retries, timeout_s, journal, isolate:
        Any of these switches the sweep to the resilient path
        (:func:`run_all_resilient`): per-experiment failures become
        error reports instead of aborting the sweep, each attempt
        honours the deadline, and completions are checkpointed to the
        journal for ``--resume``.

    Report order always matches ``ids`` regardless of completion order.
    """
    if parallel < 1:
        raise ExperimentError(f"parallel must be >= 1, got {parallel}")
    if executor not in _EXECUTORS:
        raise ExperimentError(
            f"unknown executor {executor!r}; expected one of {sorted(_EXECUTORS)}"
        )
    if ids is None:
        ids = [e.id for e in list_experiments()]
    ids = validate_ids(ids)
    if isolate or retries or timeout_s is not None or journal is not None:
        return run_all_resilient(
            ids,
            parallel=parallel,
            executor=executor,
            retries=retries,
            timeout_s=timeout_s,
            journal=journal,
        ).reports
    if parallel == 1:
        return [run_experiment(i) for i in ids]
    with _EXECUTORS[executor](max_workers=parallel) as pool:
        return list(pool.map(run_experiment, ids))


def to_markdown_report(
    reports: Sequence[ExperimentReport], max_rows: int = 25
) -> str:
    """Render a full markdown reproduction report (``repro report``).

    One section per experiment: status, the paper reference, the
    regenerated table (truncated), and the qualitative check detail.
    """
    passed = sum(1 for r in reports if r.passed)
    total_s = sum(r.wall_time_s for r in reports)
    lines = [
        "# Reproduction report",
        "",
        f"{passed}/{len(reports)} experiments reproduce the paper's "
        "qualitative shape.",
        f"Total experiment wall time: {total_s:.2f} s.",
        "",
        "| id | paper ref | status | wall time "
        "| engine (hits/misses) | title |",
        "|---|---|---|---|---|---|",
    ]
    for rep in reports:
        status = "✅" if rep.passed else "❌"
        lines.append(
            f"| `{rep.id}` | {rep.paper_ref} | {status} "
            f"| {rep.wall_time_s * 1e3:.0f} ms "
            f"| {rep.engine_hits}/{rep.engine_misses} | {rep.title} |"
        )
    lines.append("")
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        lines.append(f"## `{rep.id}` — {rep.title} [{status}]")
        lines.append("")
        lines.append(f"Paper reference: {rep.paper_ref}")
        lines.append("")
        lines.append(rep.table.to_markdown(max_rows=max_rows))
        lines.append(f"Check: {rep.check.details}")
        lines.append("")
    return "\n".join(lines)


def summary(reports: Sequence[ExperimentReport]) -> str:
    """One line per experiment plus pass/time/cache totals.

    Resilient-sweep artifacts show up inline: failure reports render as
    ``ERROR``/``TIMEOUT`` with their exception and attempt count, and
    journal-restored reports are marked ``(restored)``.
    """
    lines = []
    for rep in reports:
        if rep.error is not None:
            status = "TIMEOUT" if rep.error_type == "TaskTimeoutError" else "ERROR"
        else:
            status = "PASS" if rep.passed else "FAIL"
        note = ""
        if rep.error is not None:
            note = f"  [{rep.error_type}: {rep.error}; {rep.attempts} attempt(s)]"
        elif rep.restored:
            note = "  [restored]"
        elif rep.retries:
            note = f"  [{rep.attempts} attempts]"
        lines.append(
            f"{status:<7} {rep.id:<12} {rep.paper_ref:<22} "
            f"{rep.wall_time_s * 1e3:7.1f} ms  {rep.title}{note}"
        )
    passed = sum(1 for r in reports if r.passed)
    errors = sum(1 for r in reports if r.error is not None)
    total_s = sum(r.wall_time_s for r in reports)
    hits = sum(r.engine_hits for r in reports)
    misses = sum(r.engine_misses for r in reports)
    tail = (
        f"\n{passed}/{len(reports)} experiments reproduce the paper's shape "
        f"({total_s:.2f} s; shape cache {hits} hits / {misses} misses)"
    )
    if errors:
        tail += f"; {errors} failed with errors"
    lines.append(tail)
    return "\n".join(lines)
