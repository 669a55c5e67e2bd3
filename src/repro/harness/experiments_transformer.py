"""Transformer-level experiments: Figs 1, 2, 10, 11, 12, 15-20, Table II.

These run the Table II operators and whole layers through the latency
model, plus the Table II mapping validation against the traced NumPy
transformer.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from repro.core.breakdown import (
    LARGE_CONFIG,
    MEDIUM_CONFIG,
    component_proportions,
    gemm_shares,
    share_sweep_config,
)
from repro.core.config import TransformerConfig, get_model
from repro.core.gemms import layer_gemms, logit_gemm
from repro.core.latency import LayerLatencyModel
from repro.engine.core import default_engine
from repro.engine.grid import ShapeGrid
from repro.engine.vectorized import shape_array
from repro.harness import sweep
from repro.harness.compare import (
    CheckResult,
    check_monotone_rise,
    check_ratio,
    check_saturates,
    check_series_ordered,
    check_winner,
)
from repro.harness.results import ResultTable
from repro.transformer.flash import FlashAttentionModel
from repro.transformer.model import DecoderModel
from repro.transformer.trace import OpTrace
from repro.types import teraflops

_B, _S = 4, 2048


# -- Fig 1: 2.7B-class shape comparison ----------------------------------------


FIG1_SHAPES = ("gpt3-2.7b", "c1", "c2", "gpt3-2.7b/a20", "gpt3-2.7b/a16")


def _fig1_config(name: str) -> TransformerConfig:
    if name.endswith("/a20"):
        return get_model("gpt3-2.7b").with_overrides(name=name, num_heads=20)
    if name.endswith("/a16"):
        return get_model("gpt3-2.7b").with_overrides(name=name, num_heads=16)
    return get_model(name)


def run_fig1() -> ResultTable:
    """Single-layer throughput of equal-parameter 2.7B shapes on A100.

    Includes the paper's Fig 1 C1/C2 definitions plus the a=20 retune
    its Sec VI-B text recommends.
    """
    table = ResultTable(
        "Fig 1: single-layer throughput of 2.7B-class shapes",
        ["shape", "heads", "head_dim", "tflops", "layer_ms", "params_b"],
    )
    cfgs = [_fig1_config(name) for name in FIG1_SHAPES]
    layers = LayerLatencyModel("A100").layer_breakdowns(cfgs)
    for name, cfg, bd in zip(FIG1_SHAPES, cfgs, layers):
        table.add(
            name,
            cfg.num_heads,
            cfg.head_dim,
            teraflops(bd.flops, bd.total_s),
            bd.total_s * 1e3,
            cfg.param_count() / 1e9,
        )
    return table


def check_fig1(table: ResultTable) -> CheckResult:
    rows = {r[0]: r[3] for r in table.rows}
    latencies = {r[0]: r[4] for r in table.rows}
    checks = [
        # The misaligned small-head-dim variant (C1, h/a=40) is worst.
        check_winner(rows, "c1", higher_is_better=False),
        # The paper's recommended retune beats the default by >= ~1.15x
        # (paper: 1.18x end-to-end, up to 39% single-layer).
        check_ratio(
            latencies["gpt3-2.7b"],
            latencies["gpt3-2.7b/a20"],
            1.10,
            1.60,
            "a=20 retune speedup",
        ),
        # C2 (h/a=64) is at least on par with the default h/a=80 shape.
        check_ratio(latencies["gpt3-2.7b"], latencies["c2"], 0.95, 1.40, "c2 vs default"),
    ]
    return CheckResult.all_of(checks)


# -- Fig 2 / Fig 11 / gemm share ------------------------------------------------


def run_fig2() -> ResultTable:
    """Latency share of each component in one medium-model layer."""
    props = component_proportions(MEDIUM_CONFIG)
    table = ResultTable(
        "Fig 2: latency proportion per component (medium model)",
        ["component", "fraction"],
        notes=f"config: {MEDIUM_CONFIG.describe()}",
    )
    for name, frac in sorted(props.items(), key=lambda kv: -kv[1]):
        table.add(name, frac)
    return table


def check_fig2(table: ResultTable) -> CheckResult:
    fractions = dict(zip(table.column("component"), table.column("fraction")))
    total = sum(fractions.values())
    gemms = sum(
        v
        for k, v in fractions.items()
        if k
        in (
            "qkv_transform",
            "attention_score",
            "attention_over_value",
            "attention_projection",
            "mlp_h_to_4h",
            "mlp_4h_to_h",
        )
    )
    return CheckResult.all_of(
        [
            check_ratio(total, 1.0, 0.999, 1.001, "fractions sum to 1"),
            check_ratio(gemms, 1.0, 0.55, 0.80, "GEMM share (paper: 68.3%)"),
        ]
    )


def run_gemm_share() -> ResultTable:
    """GEMM share of layer latency: medium vs large model (Sec I)."""
    table = ResultTable(
        "GEMM share of layer latency vs model size",
        ["model", "hidden", "gemm_share"],
        notes="paper: 68.3% (medium) and 94.9% (large)",
    )
    hiddens = [1024, 2048, 4096, 8192, 12288]
    medium, large, *sweep_shares = gemm_shares(
        [MEDIUM_CONFIG, LARGE_CONFIG] + [share_sweep_config(h) for h in hiddens]
    )
    table.add("medium", MEDIUM_CONFIG.hidden_size, medium)
    table.add("large", LARGE_CONFIG.hidden_size, large)
    for h, share in zip(hiddens, sweep_shares):
        table.add(f"h{h}", h, share)
    return table


def check_gemm_share(table: ResultTable) -> CheckResult:
    shares = dict(zip(table.column("model"), table.column("gemm_share")))
    return CheckResult.all_of(
        [
            check_ratio(shares["medium"], 1.0, 0.55, 0.80, "medium share"),
            check_ratio(shares["large"], 1.0, 0.80, 0.99, "large share"),
            CheckResult(
                shares["large"] > shares["medium"],
                f"share grows with size: {shares['medium']:.3f} -> {shares['large']:.3f}",
            ),
        ]
    )


def run_fig11() -> ResultTable:
    """Per-GEMM latency proportions across model sizes."""
    table = ResultTable(
        "Fig 11: proportion of GEMM latency per module",
        ["hidden", "module", "fraction"],
    )
    hiddens = (1024, 2048, 4096, 8192, 12288)
    cfgs = [
        TransformerConfig(
            name=f"h{h}", hidden_size=h, num_heads=max(1, h // 128), num_layers=1
        )
        for h in hiddens
    ]
    for h, bd in zip(hiddens, LayerLatencyModel("A100").layer_breakdowns(cfgs)):
        for module, frac in bd.gemm_proportions().items():
            table.add(h, module, frac)
    return table


def check_fig11(table: ResultTable) -> CheckResult:
    # At the largest size: QKV + MLP dominate; attention-over-value is
    # the smallest GEMM (paper Sec VI-A).
    biggest = max(table.column("hidden"))
    fractions = {
        row[1]: row[2] for row in table.rows if row[0] == biggest
    }
    mlp_qkv = (
        fractions.get("qkv_transform", 0)
        + fractions.get("mlp_h_to_4h", 0)
        + fractions.get("mlp_4h_to_h", 0)
    )
    checks = [
        check_ratio(mlp_qkv, 1.0, 0.55, 1.0, "QKV+MLP dominate at large h"),
        check_winner(fractions, "attention_over_value", higher_is_better=False),
    ]
    return CheckResult.all_of(checks)


# -- Fig 10 and the appendix single-GEMM sweeps (Figs 15-19) --------------------


@lru_cache(maxsize=16)
def _operator_grid(modules: Tuple[str, ...], tps: Tuple[int, ...]) -> ShapeGrid:
    """Table II operators ``modules`` x TP degrees ``tps`` as h sweeps (a=128).

    One frozen grid per sweep (``module``, ``tp`` and ``hidden``
    annotate each row), memoized so warm runs rebuild no configs.
    """
    rows = []
    for module in modules:
        for tp in tps:
            for h in sweep.hidden_sweep_for_heads(
                128, min_head_dim=8, max_hidden=16384, points=40
            ):
                cfg = TransformerConfig(
                    name=f"h{h}",
                    hidden_size=h,
                    num_heads=128,
                    num_layers=1,
                    microbatch=_B,
                    seq_len=_S,
                    tp_degree=tp,
                )
                for op in layer_gemms(cfg):
                    if op.module == module:
                        rows.append((module, tp, h, op.batch, op.m, op.n, op.k))
    module_col, tp_col, hidden, batch, m, n, k = zip(*rows)
    return sweep._frozen(
        ShapeGrid.from_columns(
            batch=batch, m=m, n=n, k=k, module=module_col, tp=tp_col, hidden=hidden
        )
    )


def _operator_columns(
    modules: Tuple[str, ...], tps: Tuple[int, ...] = (1,)
) -> Dict[str, list]:
    """The sweep's annotation and ``tflops`` columns from one engine call."""
    result = default_engine().evaluate_grid(_operator_grid(modules, tps), "A100")
    return result.columns(("module", "tp", "hidden", "tflops"))


def _operator_sweep(module: str) -> ResultTable:
    """Throughput of one Table II operator as h sweeps (a=128 fixed)."""
    table = ResultTable(
        f"{module} throughput vs hidden size (a=128, t=1)",
        ["hidden", "tflops"],
    )
    cols = _operator_columns((module,))
    table.add_columns(hidden=cols["hidden"], tflops=cols["tflops"])
    return table


def run_fig10() -> ResultTable:
    """MLP h->4h and 4h->h throughput vs h (a=128)."""
    table = ResultTable(
        "Fig 10: MLP GEMM throughput vs hidden size",
        ["direction", "hidden", "tflops"],
    )
    cols = _operator_columns(("mlp_h_to_4h", "mlp_4h_to_h"))
    table.add_columns(
        direction=[module[len("mlp_"):] for module in cols["module"]],
        hidden=cols["hidden"],
        tflops=cols["tflops"],
    )
    return table


def check_fig10(table: ResultTable) -> CheckResult:
    checks = []
    for direction, pts in table.series("hidden", "tflops", group="direction").items():
        checks.append(check_monotone_rise(pts, min_fraction=0.6))
        checks.append(check_saturates(pts, spread=0.35))
    return CheckResult.all_of(checks)


def run_fig15() -> ResultTable:
    """QKV transform vs h, including tensor-parallel sizes (Figs 15/16)."""
    table = ResultTable(
        "Fig 15/16: QKV transform throughput vs h and TP degree",
        ["tp", "hidden", "tflops"],
    )
    cols = _operator_columns(("qkv_transform",), tps=(1, 2, 4, 8))
    table.add_columns(tp=cols["tp"], hidden=cols["hidden"], tflops=cols["tflops"])
    return table


def check_fig15(table: ResultTable) -> CheckResult:
    series = table.series("hidden", "tflops", group="tp")
    # Smaller t -> larger per-GPU GEMM -> higher throughput ("t should
    # be as small as possible").
    keys = sorted(series, reverse=True)  # [8, 4, 2, 1]: ordered ascending
    return check_series_ordered(series, keys, min_fraction=0.75)


def run_fig17() -> ResultTable:
    """KQ^T sweep at a=128 (appendix Fig 17)."""
    return _operator_sweep("attention_score")


def run_fig18() -> ResultTable:
    """Scores x values sweep at a=128 (appendix Fig 18)."""
    return _operator_sweep("attention_over_value")


def run_fig19() -> ResultTable:
    """Post-attention linear projection sweep (appendix Fig 19)."""
    return _operator_sweep("attention_projection")


def check_rises(table: ResultTable) -> CheckResult:
    return check_monotone_rise(table.series("hidden", "tflops")[None], min_fraction=0.6)


# -- Fig 20: vocabulary / logit layer -------------------------------------------


def run_fig20() -> ResultTable:
    """Logit GEMM throughput: coarse v sweep plus the 50257 zoom."""
    h = 2560
    table = ResultTable(
        "Fig 20: logit layer throughput vs vocabulary size",
        ["zoom", "vocab", "tflops"],
        notes="zoomed region brackets GPT-2's 50257 (padded: 50304)",
    )
    coarse = list(sweep.arange_steps(8192, 57344, 2048))
    zoom = list(sweep.vocab_sweep(center=50257, span=64, step=1))
    tflops = default_engine().tflops(shape_array(_B * _S, coarse + zoom, h), "A100")
    for v, t in zip(coarse, tflops[: len(coarse)]):
        table.add("coarse", v, float(t))
    for v, t in zip(zoom, tflops[len(coarse) :]):
        table.add("zoom", v, float(t))
    return table


def check_fig20(table: ResultTable) -> CheckResult:
    zoom = {v: t for z, v, t in table.rows if z == "zoom"}
    aligned = [t for v, t in zoom.items() if v % 64 == 0]
    odd = [t for v, t in zoom.items() if v % 2 == 1]
    checks = [
        CheckResult(
            min(aligned) > max(odd),
            f"all v%64==0 points ({min(aligned):.0f}+ TFLOP/s) beat all "
            f"odd-v points ({max(odd):.0f} TFLOP/s max)",
        ),
        check_ratio(zoom[50304], zoom[50257], 1.05, 5.0, "padding 50257 -> 50304"),
    ]
    return CheckResult.all_of(checks)


# -- Fig 12: FlashAttention ------------------------------------------------------


def run_fig12() -> ResultTable:
    """FlashAttention-2 throughput vs h at a=128: a clean roofline."""
    model = FlashAttentionModel("A100")
    heads = 128
    table = ResultTable(
        "Fig 12: FlashAttention throughput vs hidden size (a=128)",
        ["hidden", "head_dim", "tflops"],
    )
    for h in sweep.hidden_sweep_for_heads(heads, min_head_dim=8, max_hidden=16384, points=40):
        perf = model.evaluate(_B * heads, _S, h // heads)
        table.add(h, h // heads, perf.tflops)
    return table


def check_fig12(table: ResultTable) -> CheckResult:
    pts = table.series("hidden", "tflops")[None]
    return CheckResult.all_of(
        [
            check_monotone_rise(pts, min_fraction=0.75),
            check_saturates(pts, spread=0.25),
        ]
    )


# -- Table II: mapping validation -------------------------------------------------


def run_table2() -> ResultTable:
    """Diff the analytic Table II mapping against the traced transformer.

    Executes a real (small) NumPy forward pass and compares every
    recorded matmul shape to the analytic ``layer_gemms`` prediction.
    """
    cfg = TransformerConfig(
        name="table2",
        hidden_size=128,
        num_heads=8,
        num_layers=2,
        vocab_size=512,
        seq_len=32,
        microbatch=2,
    )

    def traced_columns() -> dict:
        model = DecoderModel(
            vocab_size=cfg.vocab_size,
            max_seq=cfg.seq_len,
            hidden_size=cfg.hidden_size,
            num_heads=cfg.num_heads,
            num_layers=cfg.num_layers,
            rng=np.random.default_rng(0),
        )
        trace = OpTrace()
        ids = np.random.default_rng(1).integers(
            0, cfg.vocab_size, size=(cfg.seq_len, cfg.microbatch)
        )
        model.forward(ids, trace)
        return trace.to_columns()

    # The traced mapping is a pure function of (config, weight seed 0,
    # input seed 1): cache its columnar form in the engine warm store so
    # regeneration skips the NumPy forward pass entirely.
    cols = default_engine().memo_columns(
        "table2.trace",
        (
            "v1",
            cfg.hidden_size,
            cfg.num_heads,
            cfg.num_layers,
            cfg.vocab_size,
            cfg.seq_len,
            cfg.microbatch,
            0,
            1,
        ),
        traced_columns,
    )

    expected = {op.module: op.shape_tuple() for op in layer_gemms(cfg)}
    expected["logit"] = logit_gemm(cfg).shape_tuple()

    table = ResultTable(
        "Table II: analytic GEMM mapping vs executed matmul shapes",
        ["module", "analytic", "traced", "match"],
    )
    traced = {
        module: tuple(shape)
        for module, shape in zip(
            cols["module"].tolist(), cols["shape"].tolist()
        )
    }
    for module, shape in expected.items():
        got = traced.get(module)
        table.add(module, str(shape), str(got), shape == got)
    return table


def check_table2(table: ResultTable) -> CheckResult:
    ok = all(table.column("match"))
    return CheckResult(ok, f"{sum(table.column('match'))}/{len(table)} modules match")
