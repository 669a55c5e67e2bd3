"""Metrics registry: counters, gauges, fixed-bucket histograms, rendering."""

from __future__ import annotations

import json
import threading

import pytest

from repro.observability.metrics import (
    DEFAULT_LATENCY_EDGES_S,
    Histogram,
    MetricsRegistry,
    metrics,
    reset_metrics,
)


@pytest.fixture(autouse=True)
def _fresh_global_registry():
    reset_metrics()
    yield
    reset_metrics()


def test_counter_is_monotonic():
    reg = MetricsRegistry()
    c = reg.counter("tasks.retries")
    c.inc()
    c.inc(3)
    assert c.value == 4
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.value == 4


def test_gauge_sets_and_adds():
    reg = MetricsRegistry()
    g = reg.gauge("cache.entries")
    g.set(10)
    g.add(-3)
    assert g.value == 7.0


def test_histogram_buckets_by_upper_edge():
    h = Histogram("lat", edges=(0.001, 0.01, 0.1))
    for v in (0.0005, 0.001, 0.002, 0.05, 5.0):
        h.observe(v)
    assert h.count == 5
    assert h.sum == pytest.approx(5.0535)
    assert h.mean == pytest.approx(5.0535 / 5)
    assert h.bucket_counts() == [
        ("<=0.001", 2),  # upper edges are inclusive
        ("<=0.01", 1),
        ("<=0.1", 1),
        (">0.1", 1),  # overflow
    ]
    d = h.to_dict()
    assert d["min"] == 0.0005 and d["max"] == 5.0


def test_histogram_rejects_unsorted_edges():
    with pytest.raises(ValueError):
        Histogram("bad", edges=(1.0, 0.1))
    with pytest.raises(ValueError):
        Histogram("empty", edges=())


def test_default_edges_span_engine_to_sweep_latencies():
    assert DEFAULT_LATENCY_EDGES_S[0] <= 1e-4  # µs-scale engine batches
    assert DEFAULT_LATENCY_EDGES_S[-1] >= 60.0  # multi-second sweeps
    assert list(DEFAULT_LATENCY_EDGES_S) == sorted(DEFAULT_LATENCY_EDGES_S)


def test_registry_creates_on_first_use_and_refuses_type_morphing():
    reg = MetricsRegistry()
    assert reg.get("x") is None
    c = reg.counter("x")
    assert reg.counter("x") is c  # same instrument back
    with pytest.raises(ValueError, match="Counter"):
        reg.gauge("x")
    with pytest.raises(ValueError):
        reg.histogram("x")
    assert reg.names() == ["x"]


def test_registry_render_text_and_json():
    reg = MetricsRegistry()
    assert reg.render_text() == "(no metrics recorded)"
    reg.counter("engine.evaluate.computes").inc(2)
    reg.gauge("cache.entries").set(5)
    reg.histogram("tasks.attempt_s").observe(0.02)
    text = reg.render_text()
    assert "engine.evaluate.computes" in text and "counter    2" in text
    assert "gauge      5" in text
    assert "count=1" in text and "<=0.1: 1" in text
    data = json.loads(reg.to_json())
    assert data["engine.evaluate.computes"] == {"type": "counter", "value": 2}
    assert data["tasks.attempt_s"]["count"] == 1


def test_concurrent_increments_do_not_lose_counts():
    reg = MetricsRegistry()

    def bump():
        c = reg.counter("hits")
        h = reg.histogram("lat")
        for _ in range(1000):
            c.inc()
            h.observe(0.001)

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.counter("hits").value == 8000
    assert reg.histogram("lat").count == 8000


def test_global_registry_resets():
    metrics().counter("a").inc()
    assert metrics().names() == ["a"]
    reset_metrics()
    assert metrics().names() == []
    assert metrics() is metrics()  # stable singleton object
