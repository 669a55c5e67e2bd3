"""Self-tests of the benchmark's own logic.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
from common import Outcome  # noqa: E402

# -- the percentile rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    vals = list(range(1, 101))  # 1..100
    assert stats.percentile(vals, 50.0) == 50
    assert stats.percentile(vals, 90.0) == 90
    assert stats.percentile(vals, 99.0) == 99
    assert stats.percentile(vals, 100.0) == 100
    assert stats.percentile([7.0], 99.0) == 7.0


def test_summarize_reports_count_median_and_supported_tail():
    out = stats.summarize(float(v) for v in range(1000, 0, -1))
    assert out == {"n": 1000, "p50": 500.0, "tail_q": 99.0, "tail": 990.0}
    small = stats.summarize([3.0, 1.0, 2.0])
    assert small == {"n": 3, "p50": 2.0}  # no percentile has 10 beyond it


# -- due-time accounting and refusals --------------------------------------------


def test_latency_is_timed_from_the_due_time_not_the_send_time():
    due = [0.0, 0.01, 0.02, 0.03]
    # The first reply stalls until 0.2 s; the rest come right after it.
    done = [0.2, 0.201, 0.202, 0.203]
    lat = stats.due_latencies_ms(due, done, [True] * 4)
    assert lat == pytest.approx([200.0, 191.0, 182.0, 173.0])


def test_refused_failed_or_unanswered_requests_count_as_misses():
    lat = stats.due_latencies_ms([0.0, 0.0, 0.0], [0.001, 0.001, None], [True, False, True])
    assert lat[0] == pytest.approx(1.0)
    assert lat[1] == stats.MISS_MS
    assert lat[2] == stats.MISS_MS
    # Eleven refusals in a hundred requests put p90 above any limit.
    sample = [1.0] * 89 + [stats.MISS_MS] * 11
    assert stats.summarize(sample)["tail"] == stats.MISS_MS


def test_refused_advisory_is_counted_as_failed():
    import serve
    from repro.serve.protocol import Advisory, ShapeQuery
    from serve_load import Phase

    queries = [ShapeQuery(kind="latency", m=64, n=64, k=64) for _ in range(3)]
    phase = Phase(queries)
    ok = Advisory(query=queries[0], payload={"latency_s": 1e-6})
    refused = Advisory(query=queries[1], status="rejected", error="queue full",
                       error_type="QueueFullError")
    for i, advisory in enumerate((ok, refused)):
        phase.sent[i] = 0.0
        phase.done[i] = 0.001
        phase.replies[i] = {"op": "advisory", "id": i, "advisory": advisory.to_dict()}
    phase.sent[2] = 0.0  # sent, never answered
    errors: list = []
    flags, pairs, failed = serve._outcomes(phase, errors)
    assert flags == [True, False, False]
    assert failed == 2 and len(pairs) == 1
    assert any("QueueFullError" in e for e in errors)
    assert any("no reply" in e for e in errors)


def _stalling_server(stall_s: float):
    """A wire-protocol server that holds its first reply for ``stall_s``."""
    from repro.serve import wire
    from repro.serve.protocol import Advisory, ShapeQuery

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve_one() -> None:
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as rfile:
            for n, raw in enumerate(rfile):
                msg = wire.decode_line(raw)
                if n == 0:
                    time.sleep(stall_s)
                query = ShapeQuery.from_dict(msg["query"])
                advisory = Advisory(query=query, payload={"latency_s": 1e-6})
                line = wire.encode_message("advisory", id=msg["id"], advisory=advisory.to_dict())
                conn.sendall(line.encode())

    thread = threading.Thread(target=serve_one, daemon=True)
    thread.start()
    return listener, thread


def test_a_stalled_reply_inflates_the_requests_queued_behind_it():
    from repro.serve.protocol import ShapeQuery
    from serve_load import Client

    listener, thread = _stalling_server(0.3)
    client = Client("127.0.0.1", listener.getsockname()[1])
    try:
        queries = [ShapeQuery(kind="latency", m=64, n=64, k=64 + i) for i in range(5)]
        phase, due = client.open_loop(queries, rate=50.0)  # due every 20 ms
    finally:
        client.close()
        listener.close()
    thread.join(5.0)
    assert not thread.is_alive()
    ok = [a is not None and a.ok for _, a in phase.advisories()]
    lat = stats.due_latencies_ms(due, phase.done, ok)
    # The server answers in order, so every request waits out the stall:
    # each one's latency is at least the stall minus how late it was due.
    for i, value in enumerate(lat):
        assert value >= 300.0 - 20.0 * i - 5.0
    # Timed from the send instead, the queued requests would look no
    # slower than the first; from the due time they line up behind it.
    assert lat[0] > lat[-1] > 200.0


# -- metric names -------------------------------------------------------------------


def test_metric_names_are_valid_and_unique_and_every_workload_has_a_runner():
    spec = run.load_spec()
    run.check_names(spec)
    every = [n for kind in ("end_to_end", "per_layer") for n, _ in run.metric_units(spec, kind)]
    for name in every:
        assert stats.valid_metric_name(name), name
    assert {w["name"] for w in spec["workloads"]} == set(run.RUNNERS)


def test_metric_name_rule_rejects_other_characters():
    assert stats.valid_metric_name("serve.hop.tcp_ms")
    assert not stats.valid_metric_name("p99 ms")
    assert not stats.valid_metric_name("lat/ms")
    assert not stats.valid_metric_name("")
    assert not stats.valid_metric_name("x" * 65)


def test_result_object_has_exactly_the_contract_keys():
    spec = run.load_spec()
    e2e = [n for n, _ in run.metric_units(spec, "end_to_end")]
    outcome = Outcome(attempted=3, failed=0, e2e={n: 1.5 for n in e2e})
    obj = run.result_object(spec, outcome, trace=False)
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}
    assert list(obj["metrics"]) == e2e
    traced = run.result_object(spec, outcome, trace=True)
    assert list(traced["metrics"]) == [n for n, _ in run.metric_units(spec, "per_layer")]
    failed = Outcome(attempted=3, failed=1, e2e=outcome.e2e)
    assert not run.result_object(spec, failed, False)["correct"]


# -- serve-distinct streams ----------------------------------------------------------


def test_distinct_streams_stay_within_the_shape_space(tmp_path):
    import serve
    from common import Context

    start = time.perf_counter()
    warm, sessions, hop = serve._streams(
        Context("serve-distinct", 1, 60.0, False, tmp_path), peak_s=14.0, open_s=6.0
    )
    assert time.perf_counter() - start < 30.0
    assert len(sessions) == serve.SESSIONS and len(hop) == serve.HOP_REQUESTS
    assert len(warm) == serve.WARMUP
    measured = {serve._shape_key(q) for peak, opened in sessions for q in (*peak, *opened)}
    assert not measured & {serve._shape_key(q) for q in warm}
    for peak, opened in sessions:
        assert len(peak) == int(serve.MAX_RPS * 14.0)
        assert len(opened) == int(serve.RATE * 6.0)
    with pytest.raises(ValueError, match="distinct shapes"):
        serve._streams(Context("serve-distinct", 1, 90.0, False, tmp_path), 22.5, 7.5)


# -- spans and self time -------------------------------------------------------------


def _span(sid, parent, name, start, end, shapes=0, **attrs):
    from repro.observability import Span

    if shapes:
        attrs["shapes"] = shapes
    return Span(name=name, span_id=sid, parent_id=parent, trace_id="t",
                start_unix_s=start, duration_s=end - start, attrs=attrs)


def test_self_time_subtracts_measured_children_only():
    spans = [
        _span("a", None, "task.attempt", 0.0, 10.5),  # no measured layer
        _span("b", "a", "runner.experiment", 0.0, 10.0, id="fig5"),
        _span("c", "b", "profile.module", 1.0, 9.0),  # transparent
        _span("d", "c", "engine.evaluate_grid", 2.0, 6.0, shapes=5),
        _span("e", "d", "engine.evaluate", 2.5, 5.5, shapes=5),
        _span("f", "c", "gpu.scalar", 7.0, 8.0),
        _span("g", None, "gpu.scalar", 0.0, 1.0),
    ]
    own = tracer.self_times(spans)
    assert set(own) == {"b", "d", "e", "f", "g"}
    assert own["b"] == pytest.approx(5.0)
    assert own["d"] == pytest.approx(1.0)
    assert own["e"] == pytest.approx(3.0)
    m = tracer.layer_metrics(spans, iterations=1)
    assert m["harness.self_ms"] == pytest.approx(5000.0)
    assert m["harness.experiments"] == 1
    assert m["engine.batch.ms"] == pytest.approx(4000.0)
    assert m["engine.batch.calls"] == 1 and m["engine.batch.rows"] == 5
    assert m["gpu.scalar.calls"] == 2
    assert m["gpu.scalar.ms"] == pytest.approx(2000.0)
    rids = tracer.request_ids(spans)
    assert rids["f"] == rids["e"] == "fig5" and rids["a"] is None and rids["g"] is None


def test_tracer_records_builtin_and_wrapped_spans_then_uninstalls():
    import repro.parallelism.planner as planner
    import repro.trainstep.memory as memory
    from repro.core.config import get_model
    from repro.engine import ShapeEngine, shape_array
    from repro.observability import current_recorder

    original = memory.estimate_memory
    assert planner.estimate_memory is original
    t = tracer.Tracer().install()
    try:
        assert current_recorder() is t.recorder
        assert planner.estimate_memory is not original
        assert memory.estimate_memory is planner.estimate_memory
        ShapeEngine().evaluate(shape_array(64, 64, 64), "A100")
        planner.estimate_memory(get_model("gpt3-125m"), tp=1, pipeline_stages=1)
    finally:
        t.uninstall()
    assert current_recorder() is None
    assert planner.estimate_memory is original and memory.estimate_memory is original
    names = {s.name for s in t.spans}
    assert {"engine.evaluate", "trainstep.memory"} <= names
