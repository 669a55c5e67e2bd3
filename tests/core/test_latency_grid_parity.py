"""Differential wall: grid-priced latencies vs the scalar oracle.

Every forward-latency caller prices its GEMMs through the engine grid
(``LayerLatencyModel._priced_layers``): sweeps via ``layer_breakdowns``
/ ``model_breakdowns`` / ``gemm_perfs``, single configs via the
one-config views ``layer_breakdown`` / ``model_breakdown`` and the
methods built on them.  The references below price the same configs
one GEMM at a time through the scalar ``GemmModel.evaluate`` and
compose them with ``compose_rows`` / ``compose_model``.  Every
comparison is ``==``: the engine agrees with the scalar model
bit-for-bit and both paths compose components in the same order, so
any drift is a bug, not noise.

The what-if analyzer and the trace profiler are walled the same way:
a copy of the analyzer's former one-candidate-at-a-time scalar loop
(over the shared neighbourhood's moves) and a per-record scalar sum are
the references.
"""

from functools import lru_cache
from typing import List, Optional

import numpy as np
import pytest

import repro.core.latency as latency_module
from repro.analysis.whatif import Sensitivity, WhatIfAnalyzer
from repro.core.advisor import ShapeAdvisor, moves
from repro.core.config import TransformerConfig, list_models
from repro.core.gemms import (
    TransformerGemm,
    backward_gemms_for,
    layer_gemms,
    logit_gemm,
)
from repro.core.latency import LatencyBreakdown, LayerLatencyModel
from repro.core.memory import MemoryBudget
from repro.core.profile import ProfiledModule, TraceProfiler
from repro.gpu.gemm_model import GemmModel
from repro.trainstep.memory import estimate_memory
from repro.transformer.backward import loss_and_gradients
from repro.transformer.model import DecoderModel
from repro.transformer.trace import OpTrace

GPUS = ("A100", "V100", "H100", "MI250X")
FLASH = (False, True)
CONFIGS = list_models()
MODELS = [cfg.name for cfg in CONFIGS]


def _same(grid: LatencyBreakdown, scalar: LatencyBreakdown) -> None:
    assert list(grid.components.items()) == list(scalar.components.items())
    assert grid.flops == scalar.flops
    assert grid.total_s == scalar.total_s


# -- the scalar oracle -------------------------------------------------------------


@lru_cache(maxsize=None)
def _oracle(gpu: str, dtype) -> GemmModel:
    return GemmModel(gpu, dtype)


def _scalar_s(model: LayerLatencyModel, op: TransformerGemm) -> float:
    gemm = _oracle(model.spec.name, model.dtype)
    return gemm.evaluate(op.m, op.n, op.k, batch=op.batch).latency_s


#: The BMMs FlashAttention fuses into one kernel that ``compose_rows``
#: prices itself.
_FLASH_FUSED = ("attention_score", "attention_over_value")


def scalar_layer(model: LayerLatencyModel, cfg: TransformerConfig) -> LatencyBreakdown:
    """One layer priced one GEMM at a time through ``GemmModel``."""
    ops = [
        op
        for op in layer_gemms(cfg)
        if not (model.flash and op.module in _FLASH_FUSED)
    ]
    labels = [op.module for op in ops]
    rows = [(op.batch, op.m, op.n, op.k) for op in ops]
    seconds = [_scalar_s(model, op) for op in ops]
    return model.compose_rows(cfg, cfg.tp_degree, labels, rows, seconds)


def scalar_model(model: LayerLatencyModel, cfg: TransformerConfig) -> LatencyBreakdown:
    """The whole model priced one GEMM at a time through ``GemmModel``."""
    layer = scalar_layer(model, cfg)
    return model.compose_model(cfg, layer, _scalar_s(model, logit_gemm(cfg)))


def _peak_tflops(model: LayerLatencyModel) -> float:
    spec, dtype = model.spec, model.dtype
    if spec.supports_matrix(dtype):
        return spec.matrix_peak_tflops(dtype)
    return spec.vector_peak_tflops(dtype)


# -- breakdowns --------------------------------------------------------------------


@lru_cache(maxsize=None)
def _grid_priced(gpu: str, flash: bool):
    """Every zoo config priced in one call per batched method."""
    model = LayerLatencyModel(gpu, flash_attention=flash)
    return (
        model.layer_breakdowns(CONFIGS),
        model.model_breakdowns(CONFIGS),
        model.layer_and_model_breakdowns(CONFIGS),
    )


@pytest.mark.parametrize("flash", FLASH)
@pytest.mark.parametrize("gpu", GPUS)
@pytest.mark.parametrize("index", range(len(CONFIGS)), ids=MODELS)
class TestBreakdowns:
    def test_layer_breakdowns_match_scalar(self, gpu, flash, index):
        model = LayerLatencyModel(gpu, flash_attention=flash)
        layers, _, _ = _grid_priced(gpu, flash)
        _same(layers[index], scalar_layer(model, CONFIGS[index]))

    def test_model_breakdowns_match_scalar(self, gpu, flash, index):
        model = LayerLatencyModel(gpu, flash_attention=flash)
        _, models, _ = _grid_priced(gpu, flash)
        _same(models[index], scalar_model(model, CONFIGS[index]))

    def test_layer_and_model_pairs_match_scalar(self, gpu, flash, index):
        model = LayerLatencyModel(gpu, flash_attention=flash)
        _, _, pairs = _grid_priced(gpu, flash)
        layer, whole = pairs[index]
        _same(layer, scalar_layer(model, CONFIGS[index]))
        _same(whole, scalar_model(model, CONFIGS[index]))

    def test_one_config_methods_match_scalar(self, gpu, flash, index):
        model = LayerLatencyModel(gpu, flash_attention=flash)
        cfg = CONFIGS[index]
        layer, whole = scalar_layer(model, cfg), scalar_model(model, cfg)
        _same(model.layer_breakdown(cfg), layer)
        _same(model.model_breakdown(cfg), whole)
        assert model.layer_latency(cfg) == layer.total_s
        assert model.layer_throughput_tflops(cfg) == layer.tflops
        assert model.model_latency(cfg) == whole.total_s
        assert model.tokens_per_second(cfg) == cfg.tokens_per_microbatch / whole.total_s
        assert model.mfu(cfg) == whole.tflops / _peak_tflops(model)


@pytest.mark.parametrize("gpu", GPUS)
def test_gemm_perfs_match_scalar(gpu):
    model = LayerLatencyModel(gpu)
    gemm = GemmModel(gpu)
    ops = []
    for cfg in CONFIGS:
        forward = layer_gemms(cfg) + [logit_gemm(cfg)]
        ops += forward + [bop for op in forward for bop in backward_gemms_for(op)]
    perfs = model.gemm_perfs(ops)
    assert len(perfs) == len(ops)
    latency = perfs.latency_s.tolist()
    tflops = perfs.tflops.tolist()
    for i, op in enumerate(ops):
        perf = gemm.evaluate(op.m, op.n, op.k, batch=op.batch)
        assert (latency[i], tflops[i]) == (perf.latency_s, perf.tflops), op


# -- the advisor -------------------------------------------------------------------


class _ScalarPricedModel(LayerLatencyModel):
    """Prices each config one GEMM at a time through ``GemmModel``."""

    def model_breakdowns(self, cfgs) -> List[LatencyBreakdown]:
        return [scalar_model(self, cfg) for cfg in cfgs]


@pytest.mark.parametrize("flash", FLASH)
@pytest.mark.parametrize("gpu", GPUS)
@pytest.mark.parametrize("index", range(len(CONFIGS)), ids=MODELS)
def test_advisor_matches_scalar_reference(gpu, flash, index):
    reference = ShapeAdvisor(gpu, flash_attention=flash)
    reference.model = _ScalarPricedModel(gpu, flash_attention=flash)
    cfg = CONFIGS[index]
    got = ShapeAdvisor(gpu, flash_attention=flash).propose(cfg)
    assert got == reference.propose(cfg)
    # Each proposal carries its own and the baseline's scalar latency.
    scalar = reference.model
    for proposal in got:
        assert proposal.latency_s == scalar_model(scalar, proposal.config).total_s
        assert proposal.baseline_latency_s == scalar_model(scalar, cfg).total_s


# -- the what-if analyzer ----------------------------------------------------------


class ScalarWhatIf:
    """The analyzer's former per-knob loop, one scalar model per candidate.

    Each knob's moves come from the shared neighbourhood
    (:func:`repro.core.advisor.moves`); the pricing and the decisions are
    kept verbatim: each knob prices its candidates one at a time, keeps
    the first strictly larger speedup, and the microbatch knob reports
    its per-token ratio whenever the doubled config fits the memory
    budget.
    """

    def __init__(self, gpu: str) -> None:
        self.model = LayerLatencyModel(gpu)
        self.budget = MemoryBudget.for_gpu(self.model.spec)

    def _latency(self, cfg: TransformerConfig) -> float:
        return scalar_model(self.model, cfg).total_s

    @staticmethod
    def _moves(cfg: TransformerConfig, knob: str):
        return [(m.label, m.config) for m in moves(cfg) if m.knob == knob]

    def _explore(self, base_latency, candidates, knob) -> Sensitivity:
        best_speedup, best_move, best_cfg = 1.0, "keep as is", None
        for move, cand in candidates:
            speedup = base_latency / self._latency(cand)
            if speedup > best_speedup:
                best_speedup, best_move, best_cfg = speedup, move, cand
        return Sensitivity(
            knob=knob, best_move=best_move, speedup=best_speedup, config=best_cfg
        )

    def heads(self, cfg, base) -> Sensitivity:
        return self._explore(base, self._moves(cfg, "heads"), "heads")

    def vocabulary(self, cfg, base) -> Sensitivity:
        return self._explore(base, self._moves(cfg, "vocabulary"), "vocabulary")

    def microbatch(self, cfg, base) -> Sensitivity:
        ((move, doubled),) = self._moves(cfg, "microbatch")
        if not estimate_memory(doubled).fits(self.budget):
            return Sensitivity(
                knob="microbatch",
                best_move=f"b={2 * cfg.microbatch} exceeds the memory budget",
                speedup=1.0,
                config=None,
            )
        per_token_base = base / cfg.tokens_per_microbatch
        per_token_new = self._latency(doubled) / doubled.tokens_per_microbatch
        return Sensitivity(
            knob="microbatch",
            best_move=move,
            speedup=per_token_base / per_token_new,
            config=doubled,
        )

    def hidden(self, cfg, base) -> Sensitivity:
        return self._explore(base, self._moves(cfg, "hidden"), "hidden")

    def swiglu_width(self, cfg, base) -> Sensitivity:
        if cfg.mlp_kind != "swiglu":
            return Sensitivity(
                knob="swiglu_width",
                best_move="not a SwiGLU model",
                speedup=1.0,
                config=None,
            )
        return self._explore(base, self._moves(cfg, "swiglu_width"), "swiglu_width")

    def rank(self, cfg) -> List[Sensitivity]:
        base = self._latency(cfg)
        results = [
            self.heads(cfg, base),
            self.vocabulary(cfg, base),
            self.microbatch(cfg, base),
            self.hidden(cfg, base),
            self.swiglu_width(cfg, base),
        ]
        return sorted(results, key=lambda s: -s.speedup)


@lru_cache(maxsize=None)
def _whatif(gpu: str):
    return WhatIfAnalyzer(gpu), ScalarWhatIf(gpu)


@pytest.mark.parametrize("microbatch", (None, 1), ids=("preset", "b1"))
@pytest.mark.parametrize("gpu", GPUS)
@pytest.mark.parametrize("index", range(len(CONFIGS)), ids=MODELS)
def test_whatif_matches_scalar_reference(gpu, index, microbatch: Optional[int]):
    cfg = CONFIGS[index]
    if microbatch is not None:
        cfg = cfg.with_overrides(microbatch=microbatch)
    analyzer, reference = _whatif(gpu)
    assert analyzer.rank(cfg) == reference.rank(cfg)


# -- the trace profiler ------------------------------------------------------------


@pytest.fixture(scope="module")
def training_trace() -> OpTrace:
    model = DecoderModel(
        vocab_size=96,
        max_seq=16,
        hidden_size=48,
        num_heads=4,
        num_layers=2,
        rng=np.random.default_rng(0),
    )
    trace = OpTrace()
    loss_and_gradients(model, np.random.default_rng(1).integers(0, 96, (16, 2)), trace)
    return trace


@pytest.mark.parametrize("gpu", GPUS)
def test_profiler_matches_per_record_scalar_sum(training_trace, gpu):
    gemm = GemmModel(gpu)
    modules = {}
    for rec in training_trace:
        calls, flops, latency = modules.get(rec.module, (0, 0, 0.0))
        modules[rec.module] = (
            calls + 1,
            flops + rec.flops,
            latency + gemm.evaluate(rec.m, rec.n, rec.k, batch=rec.batch).latency_s,
        )
    reference = sorted(
        (ProfiledModule(name, *agg) for name, agg in modules.items()),
        key=lambda p: -p.latency_s,
    )
    assert TraceProfiler(gpu).profile(training_trace) == reference


# -- edge cases --------------------------------------------------------------------


def test_empty_sweeps_make_no_engine_call(monkeypatch):
    def no_engine():
        raise AssertionError("an empty sweep must not reach the engine")

    monkeypatch.setattr(latency_module, "default_engine", no_engine)
    model = LayerLatencyModel("A100")
    assert model.layer_breakdowns([]) == []
    assert model.model_breakdowns([]) == []
    assert model.layer_and_model_breakdowns([]) == []


@pytest.mark.parametrize("flash", FLASH)
def test_duplicate_configs_price_identically(flash):
    model = LayerLatencyModel("H100", flash_attention=flash)
    a, b = CONFIGS[0], CONFIGS[-1]
    cfgs = [a, b, a, a, b]
    layers = model.layer_breakdowns(cfgs)
    models = model.model_breakdowns(cfgs)
    for cfg, layer, whole in zip(cfgs, layers, models):
        _same(layer, scalar_layer(model, cfg))
        _same(whole, scalar_model(model, cfg))
