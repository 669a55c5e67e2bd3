"""Kernel-level experiments: the paper's Figs 5, 6, 7, 8, 9, 14, 21-47.

These sweep raw GEMM/BMM shapes through the GPU substrate, reproducing
the plots of Sec V and the attention-BMM appendix family.  All sweeps
evaluate through the vectorized engine (:mod:`repro.engine`) — one
batched call per series instead of a Python loop of scalar model calls —
which is bit-identical to the scalar path and hits the shared cache on
regeneration.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.core import default_engine
from repro.engine.vectorized import shape_array
from repro.gpu.bmm_model import BmmShape
from repro.gpu.tiles import default_tile
from repro.harness import sweep
from repro.harness.compare import (
    CheckResult,
    check_all_equal,
    check_monotone_rise,
    check_sawtooth,
    check_series_ordered,
)
from repro.harness.results import ResultTable

#: Attention-head counts of the appendix family (Figs 21-33 / 35-47).
APPENDIX_HEAD_COUNTS = (8, 12, 16, 20, 24, 32, 40, 64, 80, 96, 128, 256, 512)

# Default workload parameters shared by the attention sweeps (paper
# Sec IV: GPT-NeoX-style layers at s=2048).
_B, _S = 4, 2048


# -- Fig 5: plain GEMM sweeps -------------------------------------------------


def run_fig5() -> ResultTable:
    """Square GEMM throughput on V100 and A100, fixed vs auto tiles.

    Three series: (a) V100 auto, (b) A100 with the 128x256 tile pinned
    (raw wave quantization), (c) A100 with auto tile selection
    (quantization lessened).
    """
    table = ResultTable(
        "Fig 5: GEMM throughput vs size",
        ["series", "size", "tflops"],
        notes="m=n=k sweep; series b pins the 128x256 tile, series c "
        "lets the model pick (PyTorch-like).",
    )
    sizes = sweep.arange_steps(1024, 9216, 256)
    engine = default_engine()
    square = shape_array(sizes, sizes, sizes)
    v100 = engine.tflops(square, "V100")
    a100_fixed = engine.tflops(square, "A100", tile=default_tile())
    a100_auto = engine.tflops(square, "A100")
    for i, n in enumerate(sizes):
        table.add("v100-auto", n, float(v100[i]))
        table.add("a100-fixed", n, float(a100_fixed[i]))
        table.add("a100-auto", n, float(a100_auto[i]))
    return table


def check_fig5(table: ResultTable) -> CheckResult:
    series = table.series("size", "tflops", group="series")
    rising = check_monotone_rise(series["a100-fixed"], min_fraction=0.55)
    saw = check_sawtooth(series["a100-fixed"], min_drops=3)
    # Auto selection should never lose to the pinned tile by more than
    # rounding, and should win somewhere.
    fixed = dict(series["a100-fixed"])
    auto = dict(series["a100-auto"])
    never_worse = all(auto[n] >= fixed[n] * 0.999 for n in fixed)
    wins = sum(1 for n in fixed if auto[n] > fixed[n] * 1.001)
    lessened = CheckResult(
        never_worse and wins >= 1,
        f"auto >= fixed everywhere: {never_worse}; strict wins: {wins}",
    )
    return CheckResult.all_of([rising, saw, lessened])


# -- Fig 6: BMM sweeps --------------------------------------------------------


def run_fig6() -> ResultTable:
    """BMM throughput vs matrix size for several batch counts."""
    table = ResultTable(
        "Fig 6: BMM throughput",
        ["batch", "size", "k", "tflops"],
        notes="batch x (size, k) x (k, size) — the attention-score "
        "shape family at s=size, k=head dim.",
    )
    combos = [
        BmmShape(batch=batch, m=size, k=k, n=size)
        for batch in (16, 64, 128, 256)
        for size in (256, 512, 1024, 2048, 4096)
        for k in (64, 128)
    ]
    tflops = default_engine().tflops(sweep.bmm_shape_array(combos), "A100")
    for shape, tf in zip(combos, tflops):
        table.add(shape.batch, shape.m, shape.k, float(tf))
    return table


def check_fig6(table: ResultTable) -> CheckResult:
    checks = []
    by_key: dict = {}
    for batch, size, k, tflops in table.rows:
        by_key.setdefault((batch, k), []).append((size, tflops))
    for pts in by_key.values():
        checks.append(check_monotone_rise(pts, min_fraction=0.6))
    return CheckResult.all_of(checks)


# -- Figs 7 / 21-33 / 35-47: attention BMMs split by pow2(h/a) -----------------


def _attention_sweep(
    kind: str, heads: int, gpu: str = "A100", max_hidden: "int | None" = None
) -> ResultTable:
    """Throughput vs h for one head count, keyed by pow2(h/a).

    ``kind``: ``score`` for KQ^T, ``aov`` for attention-over-value.
    Walks h in steps of 8*a so the pow-2 series from 8 to 64+ all
    appear, exactly like the appendix figures.  The range extends with
    the head count so every pow-2 bucket gets comparable-h neighbours.
    """
    table = ResultTable(
        f"Attention {kind} BMM, a={heads}",
        ["hidden", "head_dim", "pow2", "tflops"],
        notes="series key: largest power of two dividing h/a, capped at 64",
    )
    grid = sweep.attention_grid(kind, heads, b=_B, s=_S, max_hidden=max_hidden)
    result = default_engine().evaluate_grid(grid, gpu)
    table.add_columns(
        **result.columns(("hidden", "head_dim", "pow2", "tflops"))
    )
    return table


def make_attention_experiment(kind: str, heads: int) -> "Callable[[], ResultTable]":
    """Bind an appendix-family sweep for one head count."""

    def run() -> ResultTable:
        return _attention_sweep(kind, heads)

    return run


def check_pow2_ordering(table: ResultTable) -> CheckResult:
    """Higher pow2(h/a) series lie above lower ones (Figs 7/21-47)."""
    series = table.series("hidden", "tflops", group="pow2")
    keys = sorted(series)
    return check_series_ordered(series, keys, min_fraction=0.7)


def run_fig7() -> ResultTable:
    """Fig 7: score and AOV sweeps at a=32, keyed by pow2(h/a)."""
    score = _attention_sweep("score", 32)
    aov = _attention_sweep("aov", 32)
    table = ResultTable(
        "Fig 7: attention BMM throughput (a=32) by pow2(h/a)",
        ["kind", "hidden", "head_dim", "pow2", "tflops"],
    )
    for row in score.rows:
        table.add("score", *row)
    for row in aov.rows:
        table.add("aov", *row)
    return table


def check_fig7(table: ResultTable) -> CheckResult:
    checks = []
    for kind in ("score", "aov"):
        sub = ResultTable("sub", ["hidden", "head_dim", "pow2", "tflops"])
        for row in table.rows:
            if row[0] == kind:
                sub.add(*row[1:])
        checks.append(check_pow2_ordering(sub))
    return CheckResult.all_of(checks)


# -- Figs 8 / 9 / 34: fixed h/a = 64 sweeps -----------------------------------


def _fixed_head_dim_sweep(kind: str, gpu: str = "A100") -> ResultTable:
    # Pin the default 128x256 kernel: cuBLAS strided-batched GEMM does
    # not re-tune the tile per batch count, and letting our oracle
    # selector re-optimize at every point would hide the very wave
    # cliffs this figure exists to show.
    table = ResultTable(
        f"Attention {kind} BMM at fixed h/a=64",
        ["hidden", "heads", "tflops"],
        notes="h = 64a as a sweeps; sawtooth period differs per a "
        "(wave quantization).",
    )
    grid = sweep.head_dim_preserving_grid(kind, 64, b=_B, s=_S, max_hidden=12288)
    result = default_engine().evaluate_grid(grid, gpu, tile=default_tile())
    table.add_columns(**result.columns(("hidden", "heads", "tflops")))
    return table


def run_fig8() -> ResultTable:
    return _fixed_head_dim_sweep("score")


def run_fig9() -> ResultTable:
    return _fixed_head_dim_sweep("aov")


def check_fig8_9(table: ResultTable) -> CheckResult:
    pts = table.series("hidden", "tflops")[None]
    return CheckResult.all_of(
        [
            check_monotone_rise(pts, min_fraction=0.55),
            # Wave-quantization ripple: its amplitude decays as the
            # block count grows (these BMMs launch hundreds of blocks
            # per point, so the tail wave is a small fraction); require
            # a pervasive >=0.2% sawtooth rather than deep cliffs.
            check_sawtooth(pts, min_drops=5, drop_rel=0.002),
        ]
    )


# -- Fig 14: dimension ordering -----------------------------------------------


def run_fig14() -> ResultTable:
    """(2048,4,n)x(n,3n) vs (4,2048,n)x(n,3n) vs (8192,n)x(n,3n).

    The 3-D orderings collapse to the same 2-D GEMM (8192, n) x (n, 3n)
    because the batched dimension is just row blocking; all three must
    therefore model identically.
    """
    table = ResultTable(
        "Fig 14: GEMM dimension-ordering invariance",
        ["ordering", "n", "tflops"],
    )
    ns = (512, 1024, 2048, 4096)
    tflops = default_engine().tflops(
        shape_array(8192, [3 * n for n in ns], list(ns)), "A100"
    )
    for n, flat in zip(ns, tflops):
        # Both 3-D layouts flatten the leading two dims into m=8192, so
        # all three orderings are the same (8192, n) x (n, 3n) GEMM.
        table.add("(2048,4,n)", n, float(flat))
        table.add("(4,2048,n)", n, float(flat))
        table.add("(8192,n)", n, float(flat))
    return table


def check_fig14(table: ResultTable) -> CheckResult:
    checks = []
    for n in sorted(set(table.column("n"))):
        vals = {
            row[0]: row[2] for row in table.rows if row[1] == n
        }
        checks.append(check_all_equal(vals, tolerance=0.01))
    return CheckResult.all_of(checks)
