"""Engine benchmark: parity gate plus cold/warm cache timings.

Backs the ``repro bench`` CLI verb.  One invocation:

1. verifies the vectorized engine against the scalar oracle on a
   randomized grid (any bitwise mismatch fails the benchmark),
2. times a **cold** ``run_all`` of the experiment registry (all shape
   caches cleared first),
3. times a **warm** ``run_all`` (caches left hot from the cold run),
   optionally across a worker pool,

and emits a JSON record (``BENCH_engine.json``) so successive PRs have
a perf trajectory to compare against.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import cache as engine_cache
from repro.engine.core import ShapeEngine, default_engine, random_shapes
from repro.engine.vectorized import evaluate_batch
from repro.errors import GPUModelError
from repro.gpu.gemm_model import GemmModel
from repro.gpu.occupancy import blocks_per_sm
from repro.gpu.specs import get_gpu
from repro.gpu.tiles import default_tile
from repro.harness.runner import ExperimentReport, run_all
from repro.types import DType

#: Parity-grid sizes: full mode satisfies the ≥500-point acceptance bar
#: per (gpu, dtype) combo family; quick mode is the CI smoke setting.
_FULL_POINTS = 200
_QUICK_POINTS = 40


@dataclass(frozen=True)
class ParityReport:
    """Outcome of a vectorized-vs-scalar verification sweep."""

    points: int
    mismatches: int
    combos: Tuple[Tuple[str, str], ...]

    @property
    def passed(self) -> bool:
        return self.mismatches == 0

    def describe(self) -> str:
        status = "OK" if self.passed else "MISMATCH"
        combos = ", ".join(f"{g}/{d}" for g, d in self.combos)
        return (
            f"parity {status}: {self.points} points, "
            f"{self.mismatches} mismatches ({combos})"
        )


def verify_against_scalar(
    points: int = 200,
    gpus: Sequence[str] = ("A100", "V100", "H100", "MI250X"),
    dtypes: Sequence[str] = ("fp16", "fp32"),
    seed: int = 0,
    pinned_tile: bool = True,
) -> ParityReport:
    """Exact-equality check of the engine against the scalar model.

    Compares latency, TFLOP/s, selected tile, and bound for ``points``
    random shapes on every (gpu, dtype) combo; any bitwise difference
    counts as a mismatch.
    """
    rng = np.random.default_rng(seed)
    mismatches = 0
    total = 0
    combos: List[Tuple[str, str]] = []
    for gpu in gpus:
        for dtype in dtypes:
            combos.append((gpu, dtype))
            shapes = random_shapes(rng, points)
            configs = [(None, GemmModel(gpu, dtype))]
            if pinned_tile:
                tile = default_tile()
                spec = get_gpu(gpu)
                try:
                    blocks_per_sm(spec, tile.m, tile.n, tile.k_stage, tile.threads, DType.parse(dtype))
                except GPUModelError:
                    pass  # tile infeasible here; both paths raise identically
                else:
                    configs.append((tile, GemmModel(gpu, dtype, tile=tile)))
            for tile, scalar in configs:
                batch = evaluate_batch(shapes, gpu, dtype, tile=tile)
                for i, (bb, mm, nn, kk) in enumerate(shapes):
                    perf = scalar.evaluate(int(mm), int(nn), int(kk), int(bb))
                    total += 1
                    if (
                        perf.latency_s != float(batch.latency_s[i])
                        or perf.tflops != float(batch.tflops[i])
                        or perf.tile != batch.tile(i)
                        or perf.bound != str(batch.bound[i])
                    ):
                        mismatches += 1
    return ParityReport(points=total, mismatches=mismatches, combos=tuple(combos))


def _clear_shape_caches() -> None:
    engine_cache.clear_scalar_memo()
    default_engine().clear()


#: Warm runs must not be slower than cold ones beyond timing noise:
#: ``warm_ms <= cold_ms * REGRESSION_FACTOR + REGRESSION_SLACK_MS``.
REGRESSION_FACTOR = 1.5
REGRESSION_SLACK_MS = 0.25


def _report_record(
    cold: ExperimentReport,
    warm: ExperimentReport,
    *extra_warm: ExperimentReport,
) -> dict:
    # Sub-millisecond single-shot timings are noisy enough to invert
    # the cold/warm ordering (the committed fig8 record once did);
    # keep the minimum over the warm samples.
    warm_ms = min(w.wall_time_s * 1e3 for w in (warm, *extra_warm))
    return {
        "id": cold.id,
        "passed": bool(cold.passed and warm.passed),
        "cold_ms": round(cold.wall_time_s * 1e3, 3),
        "warm_ms": round(warm_ms, 3),
        "cold_engine_hits": cold.engine_hits,
        "cold_engine_misses": cold.engine_misses,
        "warm_engine_hits": warm.engine_hits,
        "warm_engine_misses": warm.engine_misses,
    }


def warm_regressions(experiments: Sequence[dict]) -> List[str]:
    """Experiment ids whose warm run is slower than cold beyond noise."""
    return [
        e["id"]
        for e in experiments
        if e["warm_ms"] > e["cold_ms"] * REGRESSION_FACTOR + REGRESSION_SLACK_MS
    ]


def _scalar_reference_s(ids: Optional[Sequence[str]]) -> float:
    """Time a serial ``run_all`` through the pre-engine scalar path.

    Temporarily routes every engine batch call through one-shape-at-a-
    time uncached scalar evaluation (and disables the scalar memo), so
    this measures what regenerating the registry cost before the
    vectorized engine existed — the committed record carries its own
    serial baseline.
    """

    def scalar_perfs(shapes, gpu, dtype, tile, candidates):
        model = GemmModel(gpu, dtype, tile=tile, candidates=candidates)
        return [
            model.evaluate(int(m), int(n), int(k), int(b))  # lint: allow(scalar-eval-in-loop)
            for b, m, n, k in np.asarray(shapes, dtype=np.int64).reshape(-1, 4)
        ]

    def scalar_latency(self, shapes, gpu, dtype="fp16", tile=None, candidates=None, **kw):
        return np.array(
            [p.latency_s for p in scalar_perfs(shapes, gpu, dtype, tile, candidates)]
        )

    def scalar_tflops(self, shapes, gpu, dtype="fp16", tile=None, candidates=None, **kw):
        return np.array(
            [p.tflops for p in scalar_perfs(shapes, gpu, dtype, tile, candidates)]
        )

    orig_latency, orig_tflops = ShapeEngine.latency, ShapeEngine.tflops
    engine_cache.configure(enabled=False)
    ShapeEngine.latency, ShapeEngine.tflops = scalar_latency, scalar_tflops
    try:
        t0 = time.perf_counter()
        run_all(ids)
        return time.perf_counter() - t0
    finally:
        ShapeEngine.latency, ShapeEngine.tflops = orig_latency, orig_tflops
        engine_cache.configure(enabled=True)


def run_bench(
    ids: Optional[Sequence[str]] = None,
    parallel: int = 1,
    quick: bool = False,
    gpus: Sequence[str] = ("A100", "V100", "H100", "MI250X"),
    dtypes: Sequence[str] = ("fp16", "fp32"),
    retries: int = 0,
    timeout_s: Optional[float] = None,
) -> dict:
    """Run the full engine benchmark; returns the JSON-able record.

    ``retries`` / ``timeout_s`` flow through to every ``run_all`` the
    benchmark performs (the resilient path), so long unattended bench
    runs tolerate transient per-experiment failures; the record then
    counts failure reports as failed checks rather than aborting.
    """
    points = _QUICK_POINTS if quick else _FULL_POINTS
    parity = verify_against_scalar(points=points, gpus=gpus, dtypes=dtypes)

    def timed_run_all(run_parallel: int = 1):
        t0 = time.perf_counter()
        reports = run_all(
            ids, parallel=run_parallel, retries=retries, timeout_s=timeout_s
        )
        return reports, time.perf_counter() - t0

    _clear_shape_caches()
    cold_reports, cold_s = timed_run_all()

    # Three warm samples (min-of-3): see _report_record.  On a loaded
    # 1-core CI box a single warm pass jitters by 2x at sub-ms scale.
    warm_reports, warm_s = timed_run_all()
    warm2_reports, warm2_s = timed_run_all()
    warm3_reports, warm3_s = timed_run_all()
    warm_s = min(warm_s, warm2_s, warm3_s)

    scalar_ref_s = _scalar_reference_s(ids)

    record: dict = {
        "benchmark": "repro bench",
        "model_version": engine_cache.model_version(),
        "parity": {
            "points": parity.points,
            "mismatches": parity.mismatches,
            "passed": parity.passed,
            "combos": [list(c) for c in parity.combos],
        },
        "experiments": [
            _report_record(c, w, w2, w3)
            for c, w, w2, w3 in zip(
                cold_reports, warm_reports, warm2_reports, warm3_reports
            )
        ],
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
        "scalar_reference_s": round(scalar_ref_s, 4),
        "warm_vs_scalar_speedup": round(scalar_ref_s / warm_s, 2)
        if warm_s > 0
        else None,
        "checks_passed": sum(1 for r in warm_reports if r.passed),
        "checks_total": len(warm_reports),
        "scalar_memo": {
            "entries": len(engine_cache.scalar_memo()),
            "stats": engine_cache.scalar_memo_stats().describe(),
        },
        "engine_memory": default_engine().describe(),
    }

    if parallel > 1:
        par_reports, par_s = timed_run_all(parallel)
        record["parallel"] = {
            "workers": parallel,
            "warm_wall_s": round(par_s, 4),
            "matches_serial": [r.id for r in par_reports]
            == [r.id for r in warm_reports]
            and [r.passed for r in par_reports] == [r.passed for r in warm_reports],
        }

    # Correctness only: a warm run slower than cold is a wall-time
    # comparison, listed here and gated by benchmarks/perf_gate.py.
    record["warm_regressions"] = warm_regressions(record["experiments"])
    record["passed"] = bool(
        parity.passed
        and record["checks_passed"] == record["checks_total"]
        and record.get("parallel", {}).get("matches_serial", True)
    )
    return record


def render_bench(record: dict) -> str:
    """Human summary of a benchmark record."""
    parity = record["parity"]
    lines: List[str] = [
        f"parity: {'OK' if parity['passed'] else 'MISMATCH'} "
        f"({parity['points']} points, {parity['mismatches']} mismatches)",
        f"cold run: {record['cold_s'] * 1e3:.0f} ms   "
        f"warm run: {record['warm_s'] * 1e3:.0f} ms   "
        f"speedup: {record['warm_speedup']}x",
        f"scalar (pre-engine) reference: {record['scalar_reference_s'] * 1e3:.0f} ms "
        f"-> warm is {record['warm_vs_scalar_speedup']}x faster",
        f"checks: {record['checks_passed']}/{record['checks_total']} pass",
        f"scalar memo: {record['scalar_memo']['stats']} "
        f"({record['scalar_memo']['entries']} entries)",
        f"engine: {record['engine_memory']}",
        "warm regressions: "
        + (", ".join(record["warm_regressions"]) if record.get("warm_regressions") else "none"),
    ]
    if "parallel" in record:
        par = record["parallel"]
        lines.append(
            f"parallel x{par['workers']}: {par['warm_wall_s'] * 1e3:.0f} ms "
            f"(matches serial: {par['matches_serial']})"
        )
    lines.append("benchmark: " + ("PASS" if record["passed"] else "FAIL"))
    return "\n".join(lines)


def write_bench(record: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=False)
        fh.write("\n")
