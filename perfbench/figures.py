"""The ``figures`` workload: the full experiment registry, cold and warm.

One cycle is two fresh interpreters sharing a fresh
``REPRO_ENGINE_CACHE_DIR``:

1. ``figures-first`` runs ``run_all()`` over every registered experiment
   with empty caches (the cold pass), then repeats it in the same
   process (the warm passes: engine memory LRU, scalar memo and the
   harness ``lru_cache`` grids all hot).
2. ``figures-restart`` runs it once more in a new process over the
   ``.soa`` files the first one wrote (the restart pass).

Fresh processes, not ``harness.bench._clear_shape_caches``, because that
clear leaves the ``lru_cache`` grids in ``harness/figures.py`` and
``harness/sweep.py`` warm.  The seed fixes the order the experiments
run in, which is the only input a user can vary here.

Every pass is timed without the time blocked in ``os.fsync``: the cold
pass fsyncs each ``.soa`` entry it writes (59 of them), and how long a
flush waits depends on what else the host's shared disk is doing, not on
the program.  On a 2-vCPU VM with a shared virtual disk, the 59 flushes
of one cold pass took from 16 to 120 ms, next to 210-310 ms for the
rest of the pass.  The wait is reported on its own line and, in the
traced run, as ``engine.disk.fsync_ms``.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List

import common
import tracer as tr
from common import Context, Outcome

#: In-process repeats after the cold pass; the warm time is their median.
WARM_REPEATS = 5

#: Fewest cycles a run makes, whatever ``--seconds`` says.
MIN_CYCLES = 3


def child(role: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.engine import cache as engine_cache
    from repro.engine.core import default_engine
    from repro.harness import golden
    from repro.harness.figures import list_experiments
    from repro.harness.runner import run_all

    ready = common.ready_stamp()
    ids = [e.id for e in list_experiments()]
    random.Random(payload["seed"]).shuffle(ids)
    golden_dir = common.ROOT / "tests" / "golden"
    stored = {
        i: golden.load_snapshot(i, golden_dir)
        for i in ids
        if golden.snapshot_path(i, golden_dir).exists()
    }
    tracer = tr.Tracer().install() if payload["trace"] else None
    engine = default_engine()
    out: Dict[str, Any] = {
        "ready": ready, "times": {}, "fsync": {}, "stats": {}, "attempted": 0,
        "failed": 0, "errors": [], "goldens": len(stored),
    }
    fsync_s = [0.0]
    real_fsync = os.fsync

    def timed_fsync(fd: int) -> None:
        start = time.perf_counter()
        try:
            real_fsync(fd)
        finally:
            fsync_s[0] += time.perf_counter() - start

    os.fsync = timed_fsync

    def timed(kind: str) -> None:
        memo0 = engine_cache.scalar_memo_stats().snapshot()
        mem0 = engine.memory_stats.snapshot()
        disk = engine.disk_stats
        disk0 = disk.snapshot() if disk is not None else None
        fsync_s[0] = 0.0
        start = time.perf_counter()
        reports = run_all(ids)
        elapsed = time.perf_counter() - start
        out["times"].setdefault(kind, []).append(elapsed - fsync_s[0])
        out["fsync"].setdefault(kind, []).append(fsync_s[0])
        deltas = {
            "memo": engine_cache.scalar_memo_stats().delta(memo0),
            "memory": engine.memory_stats.delta(mem0),
        }
        if disk is not None and disk0 is not None:
            deltas["disk"] = disk.delta(disk0)
        acc = out["stats"].setdefault(kind, {})
        for name, d in deltas.items():
            hits, lookups = acc.get(name, (0, 0))
            acc[name] = (hits + d.hits, lookups + d.lookups)
        for report in reports:
            out["attempted"] += 1
            problems = [] if report.passed else [f"{report.id}: check failed"]
            if report.id in stored:
                problems += golden.compare_snapshot(stored[report.id], report)
            if problems:
                out["failed"] += 1
                out["errors"].extend(f"{kind} {report.id}: {p}" for p in problems[:3])

    if role == "figures-first":
        timed("cold")
        for _ in range(WARM_REPEATS):
            timed("warm")
    else:
        timed("restart")
    os.fsync = real_fsync
    if tracer is not None:
        tracer.uninstall()
        tr.dump(tracer.spans, Path(payload["trace_path"]))
    out["rss_mb"] = common.peak_rss_mb()
    return out


def _cycle_total(first: Dict[str, Any], restart: Dict[str, Any]) -> float:
    return (
        first["times"]["cold"][0]
        + statistics.median(first["times"]["warm"])
        + restart["times"]["restart"][0]
    )


def run(ctx: Context) -> Outcome:
    out = Outcome()
    cycles: List[Dict[str, Any]] = []
    deadline = time.monotonic() + ctx.seconds
    last = 0.0
    i = 0
    min_cycles = 2 * MIN_CYCLES if ctx.trace else MIN_CYCLES
    while i < min_cycles or time.monotonic() + last < deadline:
        began = time.monotonic()
        traced = ctx.trace and i % 2 == 1
        cache = ctx.work / f"soa-{i}"
        cache.mkdir()
        trace_path = ctx.work / f"spans-{i}.jsonl"
        payload = {"seed": ctx.seed, "trace": traced, "trace_path": str(trace_path)}
        first = common.run_child("figures-first", payload, cache)
        restart = common.run_child("figures-restart", payload, cache)
        shutil.rmtree(cache)
        cycles.append({"first": first, "restart": restart, "traced": traced,
                       "spans": trace_path if traced else None})
        last = time.monotonic() - began
        i += 1

    for c in cycles:
        for child_out in (c["first"], c["restart"]):
            out.attempted += child_out["attempted"]
            out.failed += child_out["failed"]
            out.errors.extend(child_out["errors"])
    plain = [c for c in cycles if not c["traced"]]
    cold = [c["first"]["times"]["cold"][0] for c in plain]
    warm = [w for c in plain for w in c["first"]["times"]["warm"]]
    restart = [c["restart"]["times"]["restart"][0] for c in plain]
    setups = [c[k]["setup_s"] for c in plain for k in ("first", "restart")]
    out.e2e = {
        "setup_s": statistics.median(setups),
        "phase1_ms": statistics.median(cold) * 1e3,
        "phase2_ms": statistics.median(restart) * 1e3,
        "phase3_ms": statistics.median(warm) * 1e3,
        "rss_peak_mb": max(c[k]["rss_mb"] for c in plain for k in ("first", "restart")),
    }
    ctx.note(
        f"figures: {len(plain)} cycles x {plain[0]['first']['attempted'] // (1 + WARM_REPEATS)} "
        f"experiments, {plain[0]['first']['goldens']} golden snapshots compared per pass"
    )
    cold_fsync = [c["first"]["fsync"]["cold"][0] for c in plain]
    ctx.note(f"figures_cold_s {statistics.median(cold):.4f} s (phase1_ms; "
             f"{statistics.median(cold_fsync):.4f} s more blocked in fsync, not counted)")
    ctx.note(f"figures_restart_s {statistics.median(restart):.4f} s (phase2_ms)")
    ctx.note(f"figures_warm_s {statistics.median(warm):.4f} s (phase3_ms)")

    if ctx.trace:
        traced = [c for c in cycles if c["traced"]]
        spans = [s for c in traced for s in tr.load(c["spans"])]
        out.layers.update(tr.layer_metrics(spans, len(traced)))

        def ratio(kind: str, cache: str) -> float:
            hits = sum(c[k]["stats"].get(kind, {}).get(cache, (0, 0))[0]
                       for c in traced for k in ("first", "restart"))
            looks = sum(c[k]["stats"].get(kind, {}).get(cache, (0, 0))[1]
                        for c in traced for k in ("first", "restart"))
            return hits / looks if looks else 0.0

        out.layers["engine.memory.hit_ratio"] = ratio("warm", "memory")
        out.layers["engine.disk.hit_ratio"] = ratio("restart", "disk")
        out.layers["engine.scalar_memo.hit_ratio"] = ratio("cold", "memo")
        out.layers["engine.disk.fsync_ms"] = statistics.median(
            c["first"]["fsync"]["cold"][0] for c in traced) * 1e3
        out.layers["bench.trace_overhead_ratio"] = (
            statistics.median(_cycle_total(c["first"], c["restart"]) for c in traced)
            / statistics.median(_cycle_total(c["first"], c["restart"]) for c in plain)
        )
        rids = tr.request_ids(spans)
        by_exp: Dict[str, float] = {}
        for s in spans:
            rid = rids[s.span_id]
            if s.name == "gpu.scalar" and rid:
                by_exp[rid] = by_exp.get(rid, 0.0) + s.duration_s * 1e3 / len(traced)
        top = sorted(by_exp.items(), key=lambda kv: -kv[1])[:6]
        ctx.note("scalar-path experiments (gpu.scalar ms per cycle): "
                 + ", ".join(f"{k} {v:.2f}" for k, v in top))
        out.spans = spans
    return out
