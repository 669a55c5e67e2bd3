"""Tracing core: spans, nesting, streaming, torn-tail reload, zero-cost off."""

from __future__ import annotations

import json
import threading

import pytest

from repro.observability.tracing import (
    NULL_SPAN,
    TraceRecorder,
    children_of,
    current_recorder,
    event,
    install_recorder,
    load_trace,
    recording,
    roots,
    span,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    yield
    install_recorder(None)


# -- disabled path ----------------------------------------------------------------


def test_disabled_span_is_the_shared_null_singleton():
    assert not tracing_enabled()
    sp = span("engine.evaluate", shapes=4)
    assert sp is NULL_SPAN
    assert span("anything.else") is NULL_SPAN  # no per-call allocation
    with sp as inner:
        assert inner.set(source="memory") is inner  # full live surface


def test_disabled_event_is_a_noop():
    event("fault.fired", site="x")  # must not raise or record anywhere
    assert current_recorder() is None


# -- recording --------------------------------------------------------------------


def test_spans_nest_and_carry_attrs():
    with recording() as rec:
        with span("runner.experiment", id="fig2") as outer:
            with span("engine.evaluate", shapes=3) as inner:
                inner.set(source="compute")
            outer.set(passed=True)
    assert len(rec) == 2
    inner_span = rec.by_name("engine.evaluate")[0]
    outer_span = rec.by_name("runner.experiment")[0]
    assert inner_span.parent_id == outer_span.span_id
    assert outer_span.parent_id is None
    assert inner_span.attrs == {"shapes": 3, "source": "compute"}
    assert outer_span.attrs == {"id": "fig2", "passed": True}
    assert inner_span.trace_id == outer_span.trace_id == rec.trace_id
    assert inner_span.phase == "engine"
    assert rec.phases() == ["engine", "runner"]  # inner finishes first


def test_exception_marks_span_error_with_type():
    with recording() as rec:
        with pytest.raises(ValueError):
            with span("task.attempt", task="fig5"):
                raise ValueError("boom")
    (sp,) = rec.spans
    assert sp.status == "error"
    assert sp.attrs["error_type"] == "ValueError"


def test_threads_get_independent_parent_stacks():
    with recording() as rec:
        def worker(name):
            with span(f"task.{name}"):
                with span("engine.evaluate"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",), name=f"w{i}")
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert len(rec) == 8
    evals = rec.by_name("engine.evaluate")
    parents = {s.span_id: s for s in rec.spans}
    for sp in evals:
        # Each eval's parent is the task span from the SAME thread.
        assert parents[sp.parent_id].thread == sp.thread


def test_event_records_instantaneous_span():
    with recording() as rec:
        event("fault.fired", site="cache.disk_put", kind="corrupt")
    (sp,) = rec.spans
    assert sp.name == "fault.fired"
    assert sp.attrs == {"site": "cache.disk_put", "kind": "corrupt"}
    assert sp.duration_s < 0.1


# -- streaming + reload -----------------------------------------------------------


def test_streaming_writes_one_json_line_per_span(tmp_path):
    path = tmp_path / "trace.jsonl"
    with recording(str(path)) as rec:
        with span("a.one"):
            pass
        with span("b.two"):
            pass
    lines = path.read_text().splitlines()
    assert len(lines) == 2 == len(rec)
    assert all(json.loads(line)["trace_id"] == rec.trace_id for line in lines)


def test_export_then_load_roundtrips(tmp_path):
    path = tmp_path / "trace.jsonl"
    with recording() as rec:
        with span("runner.experiment", id="fig1"):
            pass
    assert rec.export_jsonl(path) == 1
    loaded = load_trace(path)
    assert loaded.dropped_lines == 0
    assert [s.to_dict() for s in loaded.spans] == [
        s.to_dict() for s in rec.spans
    ]


def test_load_trace_tolerates_torn_tail_and_garbage(tmp_path):
    path = tmp_path / "trace.jsonl"
    with recording(str(path)):
        for name in ("a.x", "a.y", "b.z"):
            with span(name):
                pass
    with open(path, "a") as fh:
        fh.write("not json at all\n")
        fh.write('{"name": "c.torn", "span_id": "ff"')  # no newline: torn
    loaded = load_trace(path)
    assert len(loaded) == 3
    assert loaded.dropped_lines == 2
    assert loaded.phases() == ["a", "b"]
    assert loaded.wall_span_s() >= 0.0


def test_load_trace_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_trace(tmp_path / "nope.jsonl")


# -- tree helpers -----------------------------------------------------------------


def test_roots_and_children_reconstruct_the_tree():
    with recording() as rec:
        with span("runner.experiment") as outer:
            with span("engine.evaluate"):
                pass
            with span("engine.evaluate"):
                pass
    assert [s.span_id for s in roots(rec.spans)] == [outer.span_id]
    assert len(children_of(rec.spans, outer.span_id)) == 2


def test_recording_accepts_existing_recorder():
    rec = TraceRecorder()
    with recording(rec) as active:
        assert active is rec is current_recorder()
        with span("x.y"):
            pass
    assert current_recorder() is None
    assert len(rec) == 1
