"""Differential wall for the decode sweep path.

``InferenceModel.decode_steps`` prices every point of a decode sweep in
one engine call.  It must answer exactly what pricing each point on its
own answers, and exactly what the per-step implementation it replaced
answered (restated below as the reference).  Readers of the streaming
terms alone (KV cache, weight stream, launch overhead) and the memory
question of the batching analyzer must price no GEMM at all; the
experiment budgets at the bottom hold the engine-call counts of the
decode experiments.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import get_model, list_models
from repro.core.formulas import kv_cache_bytes
from repro.core.gemms import layer_gemms, logit_gemm
from repro.engine.core import default_engine, reset_default_engine
from repro.engine.vectorized import shape_array
from repro.errors import ConfigError
from repro.harness.figures import get_experiment
from repro.harness.runner import preflight_lint, run_experiment
from repro.inference.batching import BatchingAnalyzer
from repro.inference.latency import DecodePerf, InferenceModel
from repro.inference.quantization import QuantizedInferenceModel
from repro.observability.metrics import metrics

CONTEXTS = (1, 7, 128, 512, 2048, 4096, 5000, 16384)
BATCHES = (1, 2, 3, 8, 64)


def _computes() -> int:
    return metrics().counter("engine.evaluate.computes").value


def reference_decode_step(model, cfg, context_len, batch=1) -> DecodePerf:
    """The per-step implementation ``decode_steps`` replaced: one engine
    call per decode step."""
    bw = model.spec.mem_bw_bytes_per_s() * 0.82
    weight_s = float(cfg.param_count()) * model.dtype.bytes / bw
    if cfg.attention_window is not None:
        context_len = min(context_len, cfg.attention_window)
    kv_s = (
        kv_cache_bytes(batch, context_len, cfg.kv_dim, cfg.num_layers, model.dtype.bytes)
        / bw
    )
    overhead_s = (cfg.num_layers * 12 + 2) * model.spec.kernel_overhead_s
    decode_cfg = cfg.with_overrides(microbatch=batch, seq_len=1)
    shapes = []
    for op in layer_gemms(decode_cfg):
        if op.module == "attention_score":
            shapes.append((1, context_len, op.k, op.batch))
        elif op.module == "attention_over_value":
            shapes.append((1, cfg.head_dim, context_len, op.batch))
        else:
            shapes.append((op.m, op.n, op.k, 1))
    logit = logit_gemm(decode_cfg)
    shapes.append((logit.m, logit.n, logit.k, 1))
    latencies = default_engine().latency(
        shape_array(
            [s[0] for s in shapes],
            [s[1] for s in shapes],
            [s[2] for s in shapes],
            [s[3] for s in shapes],
        ),
        model.spec,
        model.dtype,
    )
    gemm_s = float(latencies[:-1].sum()) * cfg.num_layers + float(latencies[-1])
    return DecodePerf(
        weight_s=weight_s, kv_cache_s=kv_s, overhead_s=overhead_s, gemm_s=gemm_s
    )


def _grid(seed: int, size: int):
    """Seeded (cfg, context, batch) points over the zoo, always holding
    a GQA, a sliding-window and a batch > 1 point."""
    rng = random.Random(seed)
    zoo = list_models()
    points = [
        (get_model("llama2-70b"), 4096, 1),
        (get_model("mistral-7b"), 16384, 4),
        (get_model("mixtral-8x7b"), 512, 8),
    ]
    points += [
        (rng.choice(zoo), rng.choice(CONTEXTS), rng.choice(BATCHES))
        for _ in range(size)
    ]
    rng.shuffle(points)
    return points


@pytest.mark.parametrize(
    "gpu,dtype,seed", [("A100", "fp16", 0), ("H100", "fp16", 1), ("V100", "fp32", 2)]
)
def test_sweep_equals_points_priced_alone(gpu, dtype, seed):
    model = InferenceModel(gpu, dtype)
    points = _grid(seed, 40)
    swept = model.decode_steps(points)
    reset_default_engine()
    alone = [model.decode_step(*p) for p in points]
    reset_default_engine()
    reference = [reference_decode_step(model, *p) for p in points]
    assert len(swept) == len(points)
    for point, got, one, want in zip(points, swept, alone, reference):
        assert got == one == want, (point[0].name, point[1], point[2])


def test_sweep_order_and_duplicates_do_not_matter():
    model = InferenceModel("A100")
    points = _grid(3, 20)
    forward = model.decode_steps(points)
    backward = model.decode_steps(points[::-1])
    assert forward == backward[::-1]
    doubled = model.decode_steps(points + points)
    assert doubled == forward + forward


def test_sweep_is_one_engine_compute():
    model = InferenceModel("A100")
    points = _grid(4, 30)
    before = _computes()
    model.decode_steps(points)
    assert _computes() == before + 1


def test_empty_sweep_prices_nothing():
    before = _computes()
    assert InferenceModel("A100").decode_steps([]) == []
    assert _computes() == before


@pytest.mark.parametrize("position", [0, 5, -1])
@pytest.mark.parametrize("bad", [(0, 1), (512, 0), (-3, 2), (512, -1)])
def test_invalid_point_raises_before_any_compute(position, bad):
    model = InferenceModel("A100")
    points = _grid(5, 10)
    cfg = points[0][0]
    points.insert(position if position >= 0 else len(points), (cfg, *bad))
    before = _computes()
    with pytest.raises(ConfigError):
        model.decode_steps(points)
    assert _computes() == before
    assert default_engine().memory_stats.misses == 0


def test_streaming_terms_match_the_step_and_price_no_gemm():
    model = InferenceModel("A100-80GB")
    points = _grid(6, 30)
    steps = model.decode_steps(points)
    before = _computes()
    for (cfg, ctx, batch), step in zip(points, steps):
        terms = model.decode_streaming(cfg, ctx, batch)
        assert terms == (step.weight_s, step.kv_cache_s, step.overhead_s)
    assert _computes() == before
    with pytest.raises(ConfigError):
        model.decode_streaming(points[0][0], 0)


def test_streaming_clips_context_at_the_window():
    model = InferenceModel("A100-80GB")
    cfg = get_model("mistral-7b")
    at_window = model.decode_streaming(cfg, cfg.attention_window)
    assert model.decode_streaming(cfg, 4 * cfg.attention_window) == at_window
    full = cfg.with_overrides(attention_window=None)
    assert model.decode_streaming(full, 4 * cfg.attention_window).kv_cache_s == (
        4 * at_window.kv_cache_s
    )


def test_quantized_decode_prices_no_gemm():
    model = QuantizedInferenceModel("A100")
    cfg = get_model("pythia-2.8b")
    before = _computes()
    for scheme in ("fp16", "int8", "int4"):
        model.decode_step(cfg, 512, scheme)
    model.speedup_vs_fp16(cfg, 8192, "int4")
    assert _computes() == before


def test_batching_sweep_is_one_compute_and_feasibility_prices_none():
    analyzer = BatchingAnalyzer("A100-80GB")
    cfg = get_model("pythia-2.8b")
    before = _computes()
    assert analyzer.max_feasible_batch(cfg) > 0
    assert _computes() == before
    points = analyzer.sweep(cfg, max_batch=128)
    assert _computes() == before + 1
    assert points == [analyzer.point(cfg, p.batch) for p in points]


#: Cold engine computes each decode experiment makes beyond its
#: preflight shape lint: one decode sweep each (ext_batching's table
#: reuses its knee's sweep), none for the experiments that read only
#: streaming terms.
DECODE_BUDGETS = {
    "fig13": 1,
    "ext_gqa": 1,
    "ext_batching": 1,
    "ext_window": 0,
    "ext_quant": 0,
}


@pytest.mark.parametrize("exp_id", sorted(DECODE_BUDGETS))
def test_cold_engine_compute_budget(exp_id):
    reset_default_engine()
    before = _computes()
    preflight_lint(get_experiment(exp_id))
    lint = _computes() - before
    reset_default_engine()
    before = _computes()
    report = run_experiment(exp_id)
    assert report.passed
    assert _computes() - before == lint + DECODE_BUDGETS[exp_id]
