"""Differential wall: grid-priced layer/model latencies vs the scalar path.

``LayerLatencyModel.layer_breakdowns`` / ``model_breakdowns`` /
``gemm_perfs`` price a whole sweep's GEMMs in one engine grid; the
references below price the same configs one GEMM at a time through the
scalar ``layer_breakdown`` / ``model_breakdown`` / ``gemm_perf``.  Every
comparison is ``==`` on the ordered component list: the engine agrees
with the scalar model bit-for-bit and both paths compose components in
the same order, so any drift is a bug, not noise.
"""

from functools import lru_cache
from typing import List

import pytest

import repro.core.latency as latency_module
from repro.core.advisor import ShapeAdvisor
from repro.core.config import list_models
from repro.core.gemms import backward_gemms_for, layer_gemms, logit_gemm
from repro.core.latency import LatencyBreakdown, LayerLatencyModel

GPUS = ("A100", "V100", "H100", "MI250X")
FLASH = (False, True)
CONFIGS = list_models()
MODELS = [cfg.name for cfg in CONFIGS]


def _same(grid: LatencyBreakdown, scalar: LatencyBreakdown) -> None:
    assert list(grid.components.items()) == list(scalar.components.items())
    assert grid.flops == scalar.flops
    assert grid.total_s == scalar.total_s


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
        scalar = LayerLatencyModel(gpu, flash_attention=flash)
        layers, _, _ = _grid_priced(gpu, flash)
        _same(layers[index], scalar.layer_breakdown(CONFIGS[index]))

    def test_model_breakdowns_match_scalar(self, gpu, flash, index):
        scalar = LayerLatencyModel(gpu, flash_attention=flash)
        _, models, _ = _grid_priced(gpu, flash)
        _same(models[index], scalar.model_breakdown(CONFIGS[index]))

    def test_layer_and_model_pairs_match_scalar(self, gpu, flash, index):
        scalar = LayerLatencyModel(gpu, flash_attention=flash)
        _, _, pairs = _grid_priced(gpu, flash)
        layer, model = pairs[index]
        _same(layer, scalar.layer_breakdown(CONFIGS[index]))
        _same(model, scalar.model_breakdown(CONFIGS[index]))


@pytest.mark.parametrize("gpu", GPUS)
def test_gemm_perfs_match_scalar(gpu):
    model = LayerLatencyModel(gpu)
    ops = []
    for cfg in CONFIGS:
        forward = layer_gemms(cfg) + [logit_gemm(cfg)]
        ops += forward + [bop for op in forward for bop in backward_gemms_for(op)]
    perfs = model.gemm_perfs(ops)
    assert len(perfs) == len(ops)
    latency = perfs.latency_s.tolist()
    tflops = perfs.tflops.tolist()
    for i, op in enumerate(ops):
        perf = model.gemm_perf(op)
        assert (latency[i], tflops[i]) == (perf.latency_s, perf.tflops), op


class _ScalarPricedModel(LayerLatencyModel):
    """Prices each config through the scalar ``model_breakdown``."""

    def model_breakdowns(self, cfgs) -> List[LatencyBreakdown]:
        return [self.model_breakdown(cfg) for cfg in cfgs]


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
        assert proposal.latency_s == scalar.model_latency(proposal.config)
        assert proposal.baseline_latency_s == scalar.model_latency(cfg)


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
        _same(layer, model.layer_breakdown(cfg))
        _same(whole, model.model_breakdown(cfg))
