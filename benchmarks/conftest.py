"""Shared machinery for the figure-regeneration benchmarks.

Every ``bench_figures`` case calls :func:`regenerate`, which

1. runs the registered experiment once up front and **prints the
   regenerated rows/series** (the same data the paper's figure plots),
2. asserts the qualitative paper-shape check passes, and
3. times the regeneration under pytest-benchmark.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.engine import default_engine
from repro.harness.runner import run_experiment


@pytest.fixture
def regenerate(benchmark, capsys):
    """Run + verify + time one experiment; print its table.

    All regeneration flows through the shared shape-evaluation engine
    (``repro.engine.default_engine``): the first run populates its
    caches, so the timed loop measures the warm path a user iterating
    on shapes actually pays.  The engine hit counts for the first run
    are printed alongside the table.
    """

    def _run(exp_id: str, max_rows: int = 20):
        engine_before = default_engine().memory_stats.snapshot()
        report = run_experiment(exp_id)
        engine_delta = default_engine().memory_stats.delta(engine_before)
        with capsys.disabled():
            print()
            print(report.render(max_rows=max_rows))
            print(f"[engine batches: {engine_delta.describe()}]")
        assert report.passed, f"{exp_id}: {report.check.details}"
        # Time the regeneration itself (table construction + cached
        # engine lookups), which is what a user iterating on shapes pays.
        benchmark(lambda: run_experiment(exp_id))
        return report

    return _run
