"""Trace-report aggregation: phases, cache sources, retries, faults."""

from __future__ import annotations

import pytest

from repro.observability.report import TraceReport, render_trace_report, summarize
from repro.observability.tracing import Span, recording


def _span(name, start=0.0, dur=0.001, status="ok", pid=1, thread="main", **attrs):
    return Span(
        name=name,
        span_id=f"id{start:.3f}{name}",
        parent_id=None,
        trace_id="t",
        start_unix_s=100.0 + start,
        duration_s=dur,
        attrs=attrs,
        status=status,
        pid=pid,
        thread=thread,
    )


def _chaos_spans():
    """A hand-built trace shaped like a fault-injected resilient sweep."""
    return [
        _span("task.attempt", 0.0, 0.010, status="error",
              task="fig5", attempt=1, outcome="error", error_type="FaultInjectionError"),
        _span("fault.fired", 0.001, 0.0, site="runner.experiment", kind="raise"),
        _span("task.attempt", 0.02, 0.030, task="fig5", attempt=2, outcome="ok"),
        _span("task.attempt", 0.06, 0.020, task="fig1", attempt=1, outcome="ok"),
        _span("runner.experiment", 0.021, 0.028, id="fig5", passed=True),
        _span("engine.evaluate", 0.022, 0.004, source="compute", shapes=40),
        _span("engine.evaluate", 0.026, 0.0001, source="memory", shapes=40),
        _span("engine.evaluate", 0.027, 0.001, source="disk", shapes=12),
        _span("journal.append", 0.05, 0.0, unit="fig5", status="ok"),
        _span("journal.append", 0.08, 0.0, unit="fig1", status="ok"),
    ]


def test_summarize_aggregates_phases_and_names():
    report = summarize(_chaos_spans())
    assert report.spans == 10
    assert report.processes == 1 and report.threads == 1
    # task is the most expensive phase, so it leads the breakdown.
    assert report.phase_names()[0] == "task"
    assert set(report.phase_names()) == {
        "task", "runner", "engine", "fault", "journal"
    }
    task = report.phases[0]
    assert task.count == 3
    assert task.total_s == pytest.approx(0.060)
    assert task.errors == 1
    names = {n.name: n for n in report.names}
    assert names["engine.evaluate"].count == 3
    assert report.wall_span_s == pytest.approx(0.08)


def test_summarize_buckets_cache_sources_and_shapes():
    report = summarize(_chaos_spans())
    assert report.cache_sources == {"compute": 1, "memory": 1, "disk": 1}
    assert report.cache_shapes == {"compute": 40, "memory": 40, "disk": 12}


def test_summarize_counts_tasks_retries_faults_journal():
    report = summarize(_chaos_spans())
    assert report.attempt_outcomes == {"error": 1, "ok": 2}
    assert report.tasks == 2
    assert report.retried_tasks == 1  # fig5 needed two attempts
    assert report.max_attempts == 2
    assert report.fault_events == 1
    assert report.fault_sites == {"runner.experiment": 1}
    assert report.journal_appends == 2


def test_render_text_names_every_section():
    text = summarize(_chaos_spans(), dropped_lines=1).render_text()
    assert "1 torn/corrupt line(s) dropped" in text
    assert "per-phase breakdown" in text
    assert "engine cache: 3 batch evaluation(s), 2 served from cache" in text
    assert "2 task(s), 3 attempt(s)" in text
    assert "1 task(s) retried (max 2 attempts on one task)" in text
    assert "faults: 1 injected firing(s) (runner.experiment: 1)" in text
    assert "journal: 2 checkpoint append(s)" in text


def test_empty_trace_renders_without_error():
    report = summarize([])
    assert report.spans == 0
    assert "(empty trace)" in report.render_text()
    assert report.phase_names() == []


def test_multiprocess_multithread_counts():
    spans = [
        _span("a.x", 0.0, pid=1, thread="main"),
        _span("a.y", 0.1, pid=1, thread="w0"),
        _span("a.z", 0.2, pid=2, thread="main"),
    ]
    report = summarize(spans)
    assert report.processes == 2
    assert report.threads == 3


def test_render_trace_report_reads_a_streamed_file(tmp_path):
    from repro.observability.tracing import span

    path = tmp_path / "trace.jsonl"
    with recording(str(path)):
        with span("runner.experiment", id="fig2"):
            with span("engine.evaluate", shapes=7) as sp:
                sp.set(source="compute")
    text = render_trace_report(str(path))
    assert "2 span(s)" in text
    assert "runner" in text and "engine" in text
    assert "7 shape(s)" in text


def test_trace_report_is_plain_data():
    report = summarize(_chaos_spans())
    assert isinstance(report, TraceReport)
    # The report verb greps these, so keep them stable.
    assert report.phase_names() == [p.name for p in report.phases]
