"""Ablations and extensions beyond the paper's figures.

Ablations quantify the GPU model's own design choices:

- ``ablation_tile`` — auto tile selection vs the pinned 128x256 kernel,
- ``ablation_dtype`` — how the alignment breakpoints move with element
  size (the 128-byte rule is *bytes*, so fp32 saturates at 32 elements).

Extensions probe territory the paper motivates but leaves open:

- ``ext_seqlen`` — the attention share of layer compute as s grows
  (the ``24bsh^2(1 + s/6h)`` structure made visible),
- ``ext_flash_e2e`` — end-to-end layer latency with/without
  FlashAttention across hidden sizes (Sec VI-C3's recommendation),
- ``ext_training`` — the Fig 1 comparison under a full training step
  (fwd + bwd + optimizer), confirming the retunes speed up *training*,
- ``ext_gqa`` — grouped-query attention's decode-time effect.
"""

from __future__ import annotations

from typing import cast

from repro.core.config import TransformerConfig, get_model
from repro.core.formulas import forward_flops_per_layer
from repro.core.gemms import layer_gemms
from repro.core.latency import LayerLatencyModel
from repro.engine.core import default_engine
from repro.engine.vectorized import shape_array
from repro.gpu.alignment import gemm_alignment_efficiency
from repro.gpu.specs import get_gpu
from repro.gpu.tiles import default_tile
from repro.harness import sweep
from repro.harness.compare import CheckResult, check_monotone_rise, check_ratio
from repro.harness.results import ResultTable
from repro.inference.batching import BatchingAnalyzer
from repro.inference.latency import InferenceModel
from repro.inference.quantization import QuantizedInferenceModel
from repro.parallelism.pipeline import bubble_fraction
from repro.parallelism.schedule import simulate_pipeline
from repro.parallelism.sequence_parallel import SequenceParallelLayer, SPLayerCost
from repro.parallelism.tensor_parallel import TensorParallelLayer
from repro.trainstep.step import TrainStepEstimator
from repro.transformer.flash import FlashAttentionModel, sum_attended_pairs
from repro.types import DType, teraflops

_B, _S = 4, 2048


# -- ablation: tile selection -----------------------------------------------------


def run_ablation_tile() -> ResultTable:
    """Auto tile selection vs pinned 128x256 on the Table II GEMM set."""
    cfg = get_model("gpt3-2.7b")
    table = ResultTable(
        "Ablation: cuBLAS-like tile selection vs pinned 128x256",
        ["gemm", "auto_us", "pinned_us", "gain"],
        notes="gain = pinned / auto latency (>= 1 by construction)",
    )
    # The Table II GEMM set plus a skinny decode GEMM where selection
    # matters most, both policies through one engine batch each.
    ops = list(layer_gemms(cfg))
    names = [op.module for op in ops] + ["decode_gemv"]
    shapes = shape_array(
        [op.m for op in ops] + [1],
        [op.n for op in ops] + [10240],
        [op.k for op in ops] + [2560],
        [op.batch for op in ops] + [1],
    )
    auto = default_engine().latency(shapes, "A100")
    pinned = default_engine().latency(shapes, "A100", tile=default_tile())
    for name, a, p in zip(names, auto, pinned):
        table.add(name, float(a) * 1e6, float(p) * 1e6, float(p) / float(a))
    return table


def check_ablation_tile(table: ResultTable) -> CheckResult:
    gains = dict(zip(table.column("gemm"), table.column("gain")))
    checks = [
        CheckResult(
            all(g >= 0.999 for g in gains.values()),
            "auto selection never loses to the pinned tile",
        ),
        CheckResult(
            gains["decode_gemv"] == max(gains.values())
            and gains["decode_gemv"] > 1.2,
            f"the skinny GEMV gains most ({gains['decode_gemv']:.2f}x)",
        ),
    ]
    return CheckResult.all_of(checks)


# -- ablation: dtype alignment breakpoints -------------------------------------------


def run_ablation_dtype() -> ResultTable:
    """Alignment efficiency of k across dtypes.

    The 128-byte A100 rule translates to 64 fp16 / 32 fp32 elements, so
    the same element count can be fully aligned in fp32 yet partially
    aligned in fp16's terms — and the INT8 grain is coarser still.
    """
    table = ResultTable(
        "Ablation: alignment breakpoints by dtype (A100, k sweep)",
        ["dtype", "k", "pow2", "alignment_eff"],
    )
    spec = get_gpu("A100")
    for dtype in (DType.FP16, DType.FP32, DType.INT8):
        for k in (8, 16, 32, 64, 128, 256):
            eff = gemm_alignment_efficiency(4096, 4096, k, dtype, spec)
            table.add(dtype.name, k, k & -k, eff)
    return table


def check_ablation_dtype(table: ResultTable) -> CheckResult:
    rows = {(r[0], r[1]): r[3] for r in table.rows}
    checks = [
        CheckResult(rows[("FP32", 32)] == 1.0, "fp32 saturates at 32 elements"),
        CheckResult(rows[("FP16", 32)] < 1.0, "fp16 not yet saturated at 32"),
        CheckResult(rows[("FP16", 64)] == 1.0, "fp16 saturates at 64 elements"),
        CheckResult(rows[("INT8", 64)] < 1.0, "int8 needs 128 elements"),
        CheckResult(rows[("INT8", 128)] == 1.0, "int8 saturates at 128"),
    ]
    return CheckResult.all_of(checks)


# -- extension: sequence length --------------------------------------------------------


def run_ext_seqlen() -> ResultTable:
    """Attention share of layer compute and latency as s grows.

    The paper's per-layer FLOPs are 24bsh^2 (1 + s/6h): the attention
    BMM term grows linearly in s relative to the dense GEMMs, which is
    the regime where FlashAttention and sequence parallelism start to
    matter (future work the paper points at).
    """
    h, a = 2048, 16
    model = LayerLatencyModel("A100")
    table = ResultTable(
        "Extension: attention share vs sequence length (h=2048)",
        ["seq_len", "flops_share", "latency_share"],
        notes="flops_share = (s/6h)/(1+s/6h), the paper's formula term",
    )
    seq_lens = (512, 1024, 2048, 4096, 8192)
    cfgs = [
        TransformerConfig(
            name=f"s{s}",
            hidden_size=h,
            num_heads=a,
            num_layers=1,
            seq_len=s,
            microbatch=2,
        )
        for s in seq_lens
    ]
    for s, bd in zip(seq_lens, model.layer_breakdowns(cfgs)):
        flops_share = (s / (6 * h)) / (1 + s / (6 * h))
        attn = sum(
            v
            for k, v in bd.components.items()
            if k in ("attention_score", "attention_over_value", "softmax")
        )
        table.add(s, flops_share, attn / bd.total_s)
    return table


def check_ext_seqlen(table: ResultTable) -> CheckResult:
    checks = [
        check_monotone_rise(table.series("seq_len", "flops_share")[None], 1.0),
        check_monotone_rise(table.series("seq_len", "latency_share")[None], 0.9),
    ]
    # The formula term must match 24bsh^2 + 4bs^2h exactly.
    s, h, b = 4096, 2048, 2
    total = forward_flops_per_layer(b, s, h)
    attn = 4 * b * s * s * h
    row = {r[0]: r[1] for r in table.rows}[4096]
    checks.append(check_ratio(row, attn / total, 0.999, 1.001, "formula identity"))
    return CheckResult.all_of(checks)


# -- extension: FlashAttention end-to-end -----------------------------------------------


def run_ext_flash() -> ResultTable:
    """Layer latency with vs without FlashAttention across h."""
    plain = LayerLatencyModel("A100")
    flash = LayerLatencyModel("A100", flash_attention=True)
    table = ResultTable(
        "Extension: FlashAttention end-to-end layer speedup",
        ["hidden", "plain_ms", "flash_ms", "speedup"],
    )
    hiddens = (1024, 2048, 4096, 8192)
    cfgs = [
        TransformerConfig(
            name=f"h{h}",
            hidden_size=h,
            num_heads=max(1, h // 128),
            num_layers=1,
            microbatch=_B,
            seq_len=_S,
        )
        for h in hiddens
    ]
    for h, p, f in zip(
        hiddens, plain.layer_breakdowns(cfgs), flash.layer_breakdowns(cfgs)
    ):
        table.add(h, p.total_s * 1e3, f.total_s * 1e3, p.total_s / f.total_s)
    return table


def check_ext_flash(table: ResultTable) -> CheckResult:
    speedups = table.column("speedup")
    checks = [
        CheckResult(all(s > 1.0 for s in speedups), "flash always helps"),
        CheckResult(
            speedups[0] > speedups[-1],
            "flash helps small models most (paper: 'use FlashAttention "
            "for small models')",
        ),
    ]
    return CheckResult.all_of(checks)


# -- extension: training-step comparison ---------------------------------------------------


def run_ext_training() -> ResultTable:
    """Fig 1's shape comparison under a full training step (forward and
    backward GEMMs plus the Adam update, per :mod:`repro.trainstep`)."""
    estimator = TrainStepEstimator("A100")
    base = get_model("gpt3-2.7b")
    table = ResultTable(
        "Extension: training-step throughput of 2.7B shapes",
        ["shape", "head_dim", "tokens_per_s", "speedup_vs_default"],
    )
    shapes = (
        ("default", base),
        ("c1", get_model("c1")),
        ("c2", get_model("c2")),
        ("a20", base.with_overrides(num_heads=20)),
    )
    rates = [estimator.estimate(cfg).tokens_per_second for _, cfg in shapes]
    for (name, cfg), tps in zip(shapes, rates):
        table.add(name, cfg.head_dim, tps, tps / rates[0])
    return table


def check_ext_training(table: ResultTable) -> CheckResult:
    rows = {r[0]: r[3] for r in table.rows}
    checks = [
        check_ratio(rows["a20"], 1.0, 1.08, 1.6, "a=20 trains faster (paper: 1.18x)"),
        CheckResult(rows["c1"] < 1.0, "c1 trains slower than default"),
    ]
    return CheckResult.all_of(checks)


# -- extension: grouped-query attention ------------------------------------------------------


def run_ext_gqa() -> ResultTable:
    """Decode latency of Llama-2-70B-shaped models vs KV head count."""
    model = InferenceModel("A100-80GB")
    base = get_model("llama2-70b", microbatch=1)
    table = ResultTable(
        "Extension: GQA decode effect (Llama-2-70B shape, ctx 4096)",
        ["kv_heads", "kv_cache_ms", "latency_ms", "params_b"],
    )
    kv_heads = (64, 8, 1)
    cfgs = [base.with_overrides(num_kv_heads=kv) for kv in kv_heads]
    # Every KV-head variant's decode step in one engine call.
    steps = model.decode_steps([(cfg, 4096, 1) for cfg in cfgs])
    for kv, cfg, step in zip(kv_heads, cfgs, steps):
        table.add(kv, step.kv_cache_s * 1e3, step.latency_s * 1e3, cfg.param_count() / 1e9)
    return table


def run_ext_moe() -> ResultTable:
    """MoE expert-count sweep: per-expert rows vs GEMM efficiency.

    At a fixed token budget, more experts means fewer rows per expert
    GEMM — the MoE face of the paper's shape rules.  The sweep holds the
    Mixtral trunk fixed and varies E (top-2 routing).
    """
    model = LayerLatencyModel("A100-80GB")
    base = get_model("mixtral-8x7b", microbatch=1)
    table = ResultTable(
        "Extension: MoE expert count vs expert-GEMM efficiency",
        ["experts", "tokens_per_expert", "expert_gemm_tflops", "mlp_ms"],
        notes="Mixtral trunk, 8192 tokens, top-2 routing",
    )
    # Up to E=512 the per-expert rows fall from 2048 to 32 — into tile-
    # quantization territory; E=48 adds a ragged (non-dividing) case.
    experts = (8, 32, 48, 64, 128, 256, 512)
    cfgs = [base.with_overrides(num_experts=E) for E in experts]
    names = ("moe_mlp_gate", "moe_mlp_up", "moe_mlp_down")
    ops = []
    for cfg in cfgs:
        by_module = {op.module: op for op in layer_gemms(cfg)}
        ops += [by_module[name] for name in names]
    # Every expert count's gate/up/down GEMMs in one engine call.
    perfs = model.gemm_perfs(ops)
    latency = perfs.latency_s.tolist()
    tflops = perfs.tflops.tolist()
    k = len(names)
    for i, (E, cfg) in enumerate(zip(experts, cfgs)):
        mlp_s = sum(latency[k * i : k * (i + 1)])
        table.add(E, cfg.tokens_per_expert, tflops[k * i], mlp_s * 1e3)
    return table


def check_ext_moe(table: ResultTable) -> CheckResult:
    rows = table.rows_as_dicts()
    by_e = {r["experts"]: r for r in rows}
    checks = [
        CheckResult(
            by_e[8]["expert_gemm_tflops"] >= by_e[512]["expert_gemm_tflops"] * 1.15,
            f"E=8 beats E=512 by "
            f"{by_e[8]['expert_gemm_tflops'] / by_e[512]['expert_gemm_tflops']:.2f}x "
            "(tiny per-expert rows waste tiles)",
        ),
        CheckResult(
            by_e[8]["mlp_ms"] <= by_e[512]["mlp_ms"],
            "few large experts never slower than many tiny ones at equal FLOPs",
        ),
        CheckResult(
            all(
                r["tokens_per_expert"] * r["experts"] >= 2 * 8192 for r in rows
            ),
            "capacity padding covers the token budget at every E",
        ),
    ]
    return CheckResult.all_of(checks)


def run_ext_batching() -> ResultTable:
    """Decode batching curve (Pythia-2.8B on A100-80GB).

    Batching amortizes the per-token weight stream; throughput climbs
    near-linearly until per-sequence KV traffic takes over.
    """
    analyzer = BatchingAnalyzer("A100-80GB")
    cfg = get_model("pythia-2.8b", microbatch=1)
    table = ResultTable(
        "Extension: decode batching curve (Pythia-2.8B, ctx 1024)",
        ["batch", "per_token_ms", "tokens_per_s", "fits_memory"],
        notes=f"knee at batch {analyzer.knee(cfg)}",
    )
    # The knee's default sweep, cut at 128: its rows are already priced.
    for pt in analyzer.sweep(cfg):
        if pt.batch <= 128:
            table.add(pt.batch, pt.per_token_ms, pt.tokens_per_s, pt.fits_memory)
    return table


def check_ext_batching(table: ResultTable) -> CheckResult:
    pts = table.series("batch", "tokens_per_s")[None]
    rows = {r[0]: r for r in table.rows}
    checks = [
        check_monotone_rise(pts, min_fraction=0.99),
        check_ratio(rows[2][2], rows[1][2], 1.6, 2.01, "first doubling near-2x"),
        CheckResult(
            rows[128][2] / rows[64][2] < rows[2][2] / rows[1][2],
            "diminishing returns at large batch",
        ),
    ]
    return CheckResult.all_of(checks)


def run_ext_window() -> ResultTable:
    """Sliding-window attention (Mistral-7B shape) at long context.

    Two effects: the fused attention kernel skips masked tiles (FLOPs
    follow the attended-pair count), and the decode-time KV cache is
    bounded at the window.
    """
    flash = FlashAttentionModel("A100-80GB")
    infer = InferenceModel("A100-80GB")
    cfg = get_model("mistral-7b", microbatch=1)
    full = cfg.with_overrides(attention_window=None)
    table = ResultTable(
        "Extension: sliding-window attention (Mistral-7B, w=4096)",
        ["context", "pair_fraction", "flash_speedup", "kv_ms_windowed", "kv_ms_full"],
    )
    for s in (4096, 8192, 16384, 32768):
        pairs_w = sum_attended_pairs(s, 4096)
        pairs_f = sum_attended_pairs(s, s)
        batch = cfg.num_heads
        fw = flash.evaluate(batch, s, cfg.head_dim, window=4096).latency_s
        ff = flash.evaluate(batch, s, cfg.head_dim).latency_s
        table.add(
            s,
            pairs_w / pairs_f,
            ff / fw,
            infer.decode_streaming(cfg, s).kv_cache_s * 1e3,
            infer.decode_streaming(full, s).kv_cache_s * 1e3,
        )
    return table


def check_ext_window(table: ResultTable) -> CheckResult:
    rows = table.rows_as_dicts()
    by_ctx = {r["context"]: r for r in rows}
    checks = [
        check_ratio(
            by_ctx[4096]["flash_speedup"], 1.0, 0.99, 1.01, "no benefit at ctx == window"
        ),
        CheckResult(
            by_ctx[32768]["flash_speedup"] > 3.0,
            f"big win at 8x window ({by_ctx[32768]['flash_speedup']:.2f}x)",
        ),
        CheckResult(
            by_ctx[32768]["kv_ms_windowed"] == by_ctx[4096]["kv_ms_windowed"],
            "KV cost plateaus at the window",
        ),
        CheckResult(
            all(
                r["kv_ms_windowed"] <= r["kv_ms_full"] + 1e-12 for r in rows
            ),
            "windowed KV never costlier than full",
        ),
    ]
    return CheckResult.all_of(checks)


def run_ext_quant() -> ResultTable:
    """Weight-only quantization at decode time (Pythia-2.8B on A100).

    Decode is weight-streaming-bound, so INT8/INT4 weights cut latency
    nearly proportionally until the (fp16) KV cache and launch
    overheads dominate.
    """
    model = QuantizedInferenceModel("A100")
    cfg = get_model("pythia-2.8b", microbatch=1)
    table = ResultTable(
        "Extension: weight-only quantized decode (Pythia-2.8B)",
        ["scheme", "context", "latency_ms", "speedup_vs_fp16"],
    )
    for ctx in (512, 8192):
        fp16 = model.decode_step(cfg, ctx, "fp16").latency_s
        for scheme in ("fp16", "int8", "int4"):
            step = model.decode_step(cfg, ctx, scheme)
            table.add(scheme, ctx, step.latency_s * 1e3, fp16 / step.latency_s)
    return table


def check_ext_quant(table: ResultTable) -> CheckResult:
    rows = {(r[0], r[1]): r[3] for r in table.rows}
    checks = [
        check_ratio(rows[("int8", 512)], 1.0, 1.2, 2.0, "int8 speedup at short ctx"),
        CheckResult(
            rows[("int4", 512)] > rows[("int8", 512)], "int4 beats int8"
        ),
        CheckResult(
            rows[("int8", 8192)] < rows[("int8", 512)],
            "fp16 KV cache dilutes the win at long context",
        ),
    ]
    return CheckResult.all_of(checks)


def run_ext_pipeline_sim() -> ResultTable:
    """Event-simulated 1F1B/GPipe bubbles vs the closed form.

    Grounds the paper's 'L divisible by pipeline stages' rule in an
    actual schedule: uniform stages reproduce (p-1)/m exactly, and 1F1B
    caps in-flight activations at p - stage.
    """
    table = ResultTable(
        "Extension: pipeline schedule simulation",
        ["schedule", "stages", "microbatches", "bubble", "closed_form", "peak_acts_s0"],
    )
    combos = [
        (schedule, p, m)
        for schedule in ("1f1b", "gpipe")
        for p, m in ((4, 4), (4, 16), (8, 8))
    ]

    def simulate() -> dict:
        import numpy as np

        bubbles, closed, peaks = [], [], []
        for schedule, p, m in combos:
            res = simulate_pipeline(p, m, schedule=schedule)
            bubbles.append(res.bubble_fraction)
            closed.append(bubble_fraction(p, m))
            peaks.append(res.peak_activations(0))
        return {
            "bubble": np.array(bubbles, dtype=np.float64),
            "closed_form": np.array(closed, dtype=np.float64),
            "peak_acts_s0": np.array(peaks, dtype=np.int64),
        }

    # Schedule simulation is pure in (combos, sim version): its columns
    # live in the engine warm store alongside the GEMM batches.
    sim = default_engine().memo_columns(
        "pipeline.sim", ("v1", tuple(combos)), simulate
    )
    table.add_columns(
        schedule=[c[0] for c in combos],
        stages=[c[1] for c in combos],
        microbatches=[c[2] for c in combos],
        bubble=sim["bubble"].tolist(),
        closed_form=sim["closed_form"].tolist(),
        peak_acts_s0=sim["peak_acts_s0"].tolist(),
    )
    return table


def check_ext_pipeline_sim(table: ResultTable) -> CheckResult:
    checks = []
    for row in table.rows_as_dicts():
        checks.append(
            check_ratio(
                row["bubble"] + 1,
                row["closed_form"] + 1,
                0.999,
                1.001,
                f"{row['schedule']} p={row['stages']} m={row['microbatches']}",
            )
        )
        if row["schedule"] == "1f1b":
            checks.append(
                CheckResult(
                    row["peak_acts_s0"] <= row["stages"],
                    "1F1B caps stage-0 in-flight activations at p",
                )
            )
    return CheckResult.all_of(checks)


def run_ext_seqpar() -> ResultTable:
    """Sequence parallelism on top of TP (the paper's deferred analysis).

    Per TP degree: layer latency with plain TP vs TP+SP, the pointwise
    time SP shards away, and the norm-region activation saving.
    """
    tp = TensorParallelLayer("aws-p4d")
    sp = SequenceParallelLayer("aws-p4d")
    cfg = get_model("gpt3-6.7b")
    table = ResultTable(
        "Extension: sequence parallelism on top of TP (GPT-3 6.7B)",
        ["tp", "tp_ms", "sp_ms", "pointwise_saved_ms", "activation_saving"],
    )
    degrees = (2, 4, 8)
    tp_costs = tp.layer_costs(cfg, degrees)
    sp_costs = sp.layer_costs(cfg, degrees)
    for t in degrees:
        tc = tp_costs[t]
        sc = cast(SPLayerCost, sp_costs[t])
        table.add(
            t,
            tc.total_s * 1e3,
            sc.total_s * 1e3,
            sc.pointwise_saved_s * 1e3,
            sp.activation_savings_fraction(cfg, t),
        )
    return table


def check_ext_seqpar(table: ResultTable) -> CheckResult:
    rows = table.rows_as_dicts()
    checks = [
        CheckResult(
            all(r["sp_ms"] <= r["tp_ms"] for r in rows),
            "SP never slower than plain TP",
        ),
        CheckResult(
            all(r["pointwise_saved_ms"] > 0 for r in rows),
            "SP shards away positive pointwise time",
        ),
        check_ratio(
            rows[-1]["activation_saving"], 1.0, 0.87, 0.88, "1 - 1/8 saving at t=8"
        ),
    ]
    return CheckResult.all_of(checks)


def run_ext_gpus() -> ResultTable:
    """The GPT-3 2.7B retune across the whole GPU zoo (Table III + H100).

    The guidelines are claimed to be first-principles, so the same
    equal-parameter retune must win on every architecture — including
    AMD's MI250X, whose matrix cores follow the same byte-alignment
    logic.
    """
    base = get_model("gpt3-2.7b")
    retuned = base.with_overrides(num_heads=20)
    table = ResultTable(
        "Extension: the 2.7B retune across GPUs",
        ["gpu", "base_tflops", "retuned_tflops", "speedup"],
    )
    for gpu in ("V100", "A100", "A100-80GB", "H100", "MI250X"):
        # One grid per GPU: both configs' layer and logit GEMMs.
        (base_layer, b), (retuned_layer, r) = LayerLatencyModel(
            gpu
        ).layer_and_model_breakdowns([base, retuned])
        table.add(
            gpu,
            teraflops(base_layer.flops, base_layer.total_s),
            teraflops(retuned_layer.flops, retuned_layer.total_s),
            b.total_s / r.total_s,
        )
    return table


def check_ext_gpus(table: ResultTable) -> CheckResult:
    speedups = dict(zip(table.column("gpu"), table.column("speedup")))
    checks = [
        CheckResult(
            all(s > 1.02 for s in speedups.values()),
            "the retune wins on every GPU: "
            + ", ".join(f"{g}={s:.2f}x" for g, s in speedups.items()),
        ),
        # H100 vs A100 absolute throughput ratio ~3:1 (Sec VIII).
        check_ratio(
            {r[0]: r[1] for r in table.rows}["H100"],
            {r[0]: r[1] for r in table.rows}["A100"],
            2.0,
            3.8,
            "H100:A100 layer throughput",
        ),
    ]
    return CheckResult.all_of(checks)


def check_ext_gqa(table: ResultTable) -> CheckResult:
    rows = {r[0]: r for r in table.rows}
    checks = [
        check_ratio(rows[64][1], rows[8][1], 7.9, 8.1, "kv cache shrinks 8x at kv=8"),
        CheckResult(
            rows[8][2] < rows[64][2], "GQA reduces decode latency"
        ),
        CheckResult(
            rows[8][3] < rows[64][3], "GQA also sheds parameters"
        ),
    ]
    return CheckResult.all_of(checks)
