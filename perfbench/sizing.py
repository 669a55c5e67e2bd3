"""The ``sizing`` workload: estimate, plan and tune, as users size runs.

One pass has three parts, each on a fresh ``ShapeEngine`` and an empty
scalar memo, as in a fresh ``repro`` process:

1. ``TrainStepEstimator.estimate`` for every ``list_models()`` config on
   A100 and H100, without and with full checkpointing.
2. ``ParallelPlanner.plan(cfg, 64)`` for every config on three Table III
   systems.  Planning prices layers through the scalar ``GemmModel``.
3. ``tune_table`` for A100 and H100 fp16 over the full tuning grid.

A run starts a few fresh interpreters one after another (so set-up is
measured several times) and each repeats passes for its share of the
time.  The seed fixes the order of configs and systems.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import common
import tracer as tr
from common import Context, Outcome

GPUS = ("A100", "H100")
CHECKPOINTING = ("none", "full")
SYSTEMS = ("aws-p4d", "ornl-summit", "sdsc-expanse")
PLAN_GPUS = 64

#: Fresh interpreters per run; set-up is their median.
CHILDREN = 3

#: Fewest passes each child makes, whatever its time share.
MIN_PASSES = 2


def child(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.config import list_models
    from repro.engine import ShapeEngine, reset_default_engine
    from repro.engine import cache as engine_cache
    from repro.kernels import search
    from repro.kernels.table import KernelTable
    from repro.parallelism.planner import ParallelPlanner
    from repro.trainstep import TrainStepEstimator, estimate_memory

    ready = common.ready_stamp()
    rng = random.Random(payload["seed"])
    models = list(list_models())
    rng.shuffle(models)
    systems = list(SYSTEMS)
    rng.shuffle(systems)
    golden_dir = common.ROOT / "tests" / "golden" / "kernels"
    goldens = {
        gpu: KernelTable.from_json((golden_dir / f"{gpu}-FP16.json").read_text())
        for gpu in GPUS
    }
    out: Dict[str, Any] = {
        "ready": ready, "passes": [], "attempted": 0, "failed": 0, "errors": [],
        "stats": {"memo": [0, 0], "memory": [0, 0]},
    }

    def fail(what: str) -> None:
        out["failed"] += 1
        if len(out["errors"]) < 10:
            out["errors"].append(what)

    def attempt(what: str, fn: Any, *args: Any, **kwargs: Any) -> Any:
        out["attempted"] += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - count and keep measuring
            fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def one_pass() -> Tuple[Dict[str, float], Dict[str, Any]]:
        engine_cache.clear_scalar_memo()
        reset_default_engine()
        times: Dict[str, float] = {}
        start = time.perf_counter()
        engine = ShapeEngine()
        estimates = {}
        for cfg in models:
            for gpu in GPUS:
                est = TrainStepEstimator(gpu, engine=engine)
                for ck in CHECKPOINTING:
                    estimates[(cfg.name, gpu, ck)] = attempt(
                        f"estimate {cfg.name} {gpu} {ck}", est.estimate, cfg, checkpointing=ck
                    )
        times["estimate"] = time.perf_counter() - start
        mem = engine.memory_stats

        reset_default_engine()
        memo0 = engine_cache.scalar_memo_stats().snapshot()
        start = time.perf_counter()
        plans = {}
        planners = {}
        for system in systems:
            planner = planners[system] = ParallelPlanner(system)
            for cfg in models:
                plans[(system, cfg.name)] = attempt(
                    f"plan {cfg.name} {system}", planner.plan, cfg, PLAN_GPUS
                )
        times["plan"] = time.perf_counter() - start
        memo = engine_cache.scalar_memo_stats().delta(memo0)

        reset_default_engine()
        start = time.perf_counter()
        engine = ShapeEngine()
        tables = {gpu: attempt(f"tune {gpu}", search.tune_table, gpu, "fp16", engine=engine) for gpu in GPUS}
        times["tune"] = time.perf_counter() - start
        mem_hits = mem.hits + engine.memory_stats.hits
        mem_looks = mem.lookups + engine.memory_stats.lookups
        return times, {
            "estimates": estimates, "plans": plans, "planners": planners,
            "tables": tables, "memo": (memo.hits, memo.lookups),
            "memory": (mem_hits, mem_looks),
        }

    def check(result: Dict[str, Any], first: Dict[str, Any]) -> None:
        """Outputs are sane, fit in memory, match the goldens, repeat exactly."""
        cfgs = {cfg.name: cfg for cfg in models}
        for key, est in result["estimates"].items():
            if est is None:
                continue
            total = est.total_s
            if not (math.isfinite(total) and total > 0):
                fail(f"estimate {key}: total_s {total}")
            elif first["estimates"].get(key) is not None and first["estimates"][key].total_s != total:
                fail(f"estimate {key}: {total} differs from the first pass")
        for (system, name), plans in result["plans"].items():
            if plans is None:
                continue
            budget = result["planners"][system].budget()
            for plan in plans:
                memory = estimate_memory(
                    cfgs[name], tp=plan.tp, pipeline_stages=plan.pp,
                    checkpointing=plan.checkpointing,
                )
                if not memory.fits(budget):
                    fail(f"plan {name} {system} t={plan.tp} p={plan.pp}: does not fit")
            before = first["plans"].get((system, name))
            if before is not None and before != plans:
                fail(f"plan {name} {system}: differs from the first pass")
        for gpu, table in result["tables"].items():
            if table is None:
                continue
            tuned = {e.bucket(): e for e in table.entries}
            for entry in goldens[gpu].entries:
                if tuned.get(entry.bucket()) != entry:
                    fail(f"tune {gpu}: entry {entry.bucket()} differs from the golden table")
                    break
            before = first["tables"].get(gpu)
            if before is not None and before.checksum() != table.checksum():
                fail(f"tune {gpu}: checksum differs from the first pass")

    deadline = time.monotonic() + payload["seconds"]
    first = None
    tracer = None
    n = 0
    while n < MIN_PASSES * (2 if payload["trace"] else 1) or time.monotonic() < deadline:
        traced = payload["trace"] and n % 2 == 1
        if traced:
            tracer = tracer or tr.Tracer()
            tracer.install()
        times, result = one_pass()
        if traced:
            tracer.uninstall()
        first = first or result
        check(result, first)
        out["passes"].append({"times": times, "traced": traced})
        if traced:
            for name in ("memo", "memory"):
                out["stats"][name][0] += result[name][0]
                out["stats"][name][1] += result[name][1]
        n += 1

    # The committed goldens are tuned on the quick grid their provenance
    # records; retune exactly that grid and compare checksums.
    for gpu, stored in goldens.items():
        prov = dict(stored.provenance)
        fresh = attempt(
            f"tune {gpu} golden grid", search.tune_table, gpu, "fp16",
            engine=ShapeEngine(), dims=prov["dims"], batches=prov["batches"],
        )
        if fresh is not None and fresh.checksum() != stored.checksum():
            fail(f"tune {gpu}: {fresh.checksum()} != golden {stored.checksum()}")
    if tracer is not None:
        tr.dump(tracer.spans, Path(payload["trace_path"]))
    out["rss_mb"] = common.peak_rss_mb()
    return out


def _pass_total(p: Dict[str, Any]) -> float:
    return sum(p["times"].values())


def run(ctx: Context) -> Outcome:
    out = Outcome()
    children: List[Dict[str, Any]] = []
    for i in range(CHILDREN):
        trace_path = ctx.work / f"spans-{i}.jsonl"
        payload = {
            "seed": ctx.seed, "trace": ctx.trace, "trace_path": str(trace_path),
            "seconds": ctx.seconds / CHILDREN,
        }
        children.append(common.run_child("sizing", payload, ctx.work / f"engine-{i}"))
        children[-1]["spans"] = trace_path
    passes = [p for c in children for p in c["passes"]]
    plain = [p for p in passes if not p["traced"]]
    for c in children:
        out.attempted += c["attempted"]
        out.failed += c["failed"]
        out.errors.extend(c["errors"])

    def med(part: str) -> float:
        return statistics.median(p["times"][part] for p in plain)

    out.e2e = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "phase1_ms": med("estimate") * 1e3,
        "phase2_ms": med("plan") * 1e3,
        "phase3_ms": med("tune") * 1e3,
        "rss_peak_mb": max(c["rss_mb"] for c in children),
    }
    ctx.note(f"sizing: {len(plain)} untraced passes over {CHILDREN} processes")
    ctx.note(f"estimate_s {med('estimate'):.4f} s (phase1_ms)")
    ctx.note(f"plan_s {med('plan'):.4f} s (phase2_ms)")
    ctx.note(f"tune_s {med('tune'):.4f} s (phase3_ms)")

    if ctx.trace:
        traced = [p for p in passes if p["traced"]]
        spans = [s for c in children for s in tr.load(c["spans"])]
        out.layers.update(tr.layer_metrics(spans, len(traced)))
        memo = [sum(c["stats"]["memo"][j] for c in children) for j in (0, 1)]
        memory = [sum(c["stats"]["memory"][j] for c in children) for j in (0, 1)]
        out.layers["engine.scalar_memo.hit_ratio"] = memo[0] / memo[1] if memo[1] else 0.0
        out.layers["engine.memory.hit_ratio"] = memory[0] / memory[1] if memory[1] else 0.0
        out.layers["bench.trace_overhead_ratio"] = (
            statistics.median(_pass_total(p) for p in traced)
            / statistics.median(_pass_total(p) for p in plain)
        )
        out.spans = spans
    return out
