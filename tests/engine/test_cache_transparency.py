"""Caching must be invisible in the numbers.

The engine's two cache levels (in-memory LRU, on-disk ``.soa`` store)
are pure memoization: an experiment run with a cold disk cache, a warm
disk cache or no disk cache at all must produce *bit-identical*
ResultTables.  The global scalar memo behind the scalar oracle is held
to the same standard: memoized, cold and uncached scalar results match.
The same holds under a fault plan that corrupts every disk-cache
entry as it is written — quarantine changes where numbers come from,
never what they are.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.cache import (
    clear_scalar_memo,
    configure,
    scalar_memo_enabled,
    scalar_memo_stats,
)
from repro.engine.core import (
    DISK_CACHE_ENV,
    default_engine,
    random_shapes,
    reset_default_engine,
)
from repro.gpu.gemm_model import GemmModel
from repro.harness.bench import verify_against_scalar
from repro.harness.runner import run_experiment
from repro.resilience.faults import FaultPlan, FaultSpec, injected

#: The experiment under test: fig5 routes through
#: ``default_engine().evaluate`` (the full two-level cache stack).
EXPERIMENT = "fig5"


def _fingerprint(report):
    """Everything numeric an experiment produced, exactly."""
    return (
        list(report.table.columns),
        list(report.table.rows),
        report.check.passed,
    )


def _run(monkeypatch, cache_dir=None):
    """Run the experiment against a freshly-built default engine."""
    if cache_dir is None:
        monkeypatch.delenv(DISK_CACHE_ENV, raising=False)
    else:
        monkeypatch.setenv(DISK_CACHE_ENV, str(cache_dir))
    reset_default_engine()
    try:
        return run_experiment(EXPERIMENT), default_engine()
    finally:
        reset_default_engine()


def test_cold_warm_and_no_cache_are_bit_identical(tmp_path, monkeypatch):
    cache_dir = tmp_path / "engine-cache"

    baseline, engine = _run(monkeypatch)  # no disk cache at all
    assert engine.disk_stats is None

    cold, engine = _run(monkeypatch, cache_dir)
    assert engine.disk_stats is not None
    assert engine.disk_stats.misses > 0  # nothing on disk yet
    assert len(engine._disk) > 0  # ...and the run persisted entries

    warm, engine = _run(monkeypatch, cache_dir)
    assert engine.disk_stats.hits > 0  # served from the store
    assert engine.disk_stats.quarantined == 0

    assert _fingerprint(cold) == _fingerprint(baseline)
    assert _fingerprint(warm) == _fingerprint(baseline)


def test_scalar_memo_is_transparent():
    """The memo behind the scalar oracle never changes what it returns.

    Production pricing goes through the engine, so the memo's remaining
    user is the scalar ``GemmModel`` that ``verify_against_scalar`` and
    the differential walls compare against.
    """
    shapes = random_shapes(np.random.default_rng(7), 60).tolist()
    kwargs = dict(points=30, gpus=("A100", "MI250X"), dtypes=("fp16", "fp32"))

    def scalar_perfs():
        model = GemmModel("H100")
        return [model.evaluate(m, n, k, batch=b) for b, m, n, k in shapes]

    clear_scalar_memo()
    cold = (scalar_perfs(), verify_against_scalar(**kwargs))
    before = scalar_memo_stats().snapshot()
    warm = (scalar_perfs(), verify_against_scalar(**kwargs))
    assert scalar_memo_stats().delta(before).hits > 0  # served by the memo
    assert scalar_memo_enabled()
    configure(enabled=False)
    try:
        uncached = (scalar_perfs(), verify_against_scalar(**kwargs))
    finally:
        configure(enabled=True)
    assert cold == warm == uncached
    assert cold[1].mismatches == 0


def test_corrupted_cache_entries_change_nothing(tmp_path, monkeypatch):
    """Quarantine is an implementation detail, not a numeric event.

    A fault plan garbles every disk entry as it is written; the next
    warm run must quarantine each one, recompute, and still match the
    cache-free baseline bit for bit.
    """
    cache_dir = tmp_path / "engine-cache"
    baseline, _ = _run(monkeypatch)

    plan = FaultPlan(
        [FaultSpec(site="cache.disk_put", kind="corrupt", times=0)]
    )
    with injected(plan):
        corrupted_cold, _ = _run(monkeypatch, cache_dir)
    assert plan.fired("cache.disk_put") > 0

    # Corruption happened *after* results were served from memory.
    assert _fingerprint(corrupted_cold) == _fingerprint(baseline)

    # The warm run now finds only garbage on disk.
    warm, engine = _run(monkeypatch, cache_dir)
    assert engine.disk_stats.quarantined == plan.fired("cache.disk_put")
    assert engine.disk_stats.hits == 0
    assert len(engine._disk.quarantined_files()) > 0
    assert _fingerprint(warm) == _fingerprint(baseline)

    # And the quarantined entries were replaced by good ones: a third
    # run is a clean warm start.
    healed, engine = _run(monkeypatch, cache_dir)
    assert engine.disk_stats.hits > 0
    assert engine.disk_stats.quarantined == 0
    assert _fingerprint(healed) == _fingerprint(baseline)


def test_conftest_isolates_any_inherited_cache_dir(tmp_path):
    """The autouse fixture must never let tests share a real cache dir.

    conftest redirects an externally-exported REPRO_ENGINE_CACHE_DIR to
    a per-test tmpdir (and otherwise unsets it), so the default engine
    a test builds can only ever write under pytest's tmp tree.
    """
    import os

    value = os.environ.get(DISK_CACHE_ENV)
    if value is not None:
        assert "pytest" in value or str(tmp_path.parent.parent) in value
    engine = default_engine()
    if engine._disk is not None:
        assert DISK_CACHE_ENV in os.environ
