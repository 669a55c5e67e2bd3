"""Tests for the trace profiler (executed ops -> modelled kernel time)."""

import numpy as np
import pytest

from repro.core.profile import TraceProfiler
from repro.errors import ExperimentError
from repro.transformer.backward import loss_and_gradients
from repro.transformer.model import DecoderModel
from repro.transformer.trace import OpTrace


@pytest.fixture(scope="module")
def traced_forward():
    model = DecoderModel(
        vocab_size=512,
        max_seq=32,
        hidden_size=128,
        num_heads=8,
        num_layers=2,
        rng=np.random.default_rng(0),
    )
    trace = OpTrace()
    ids = np.random.default_rng(1).integers(0, 512, size=(32, 2))
    model.forward(ids, trace)
    return model, trace


class TestProfile:
    def test_covers_every_module(self, traced_forward):
        _, trace = traced_forward
        profiler = TraceProfiler("A100")
        modules = {p.module for p in profiler.profile(trace)}
        assert modules == set(trace.modules())

    def test_calls_and_flops_aggregate(self, traced_forward):
        _, trace = traced_forward
        profiles = {p.module: p for p in TraceProfiler("A100").profile(trace)}
        assert profiles["qkv_transform"].calls == 2  # one per layer
        assert profiles["logit"].calls == 1
        total_flops = sum(p.flops for p in profiles.values())
        assert total_flops == trace.flops()

    def test_sorted_by_latency(self, traced_forward):
        _, trace = traced_forward
        profiles = TraceProfiler("A100").profile(trace)
        lats = [p.latency_s for p in profiles]
        assert lats == sorted(lats, reverse=True)

    def test_total_latency_positive(self, traced_forward):
        _, trace = traced_forward
        assert TraceProfiler("A100").total_latency_s(trace) > 0

    def test_empty_trace_raises(self):
        with pytest.raises(ExperimentError):
            TraceProfiler("A100").profile(OpTrace())

    def test_faster_gpu_profiles_faster(self, traced_forward):
        _, trace = traced_forward
        a100 = TraceProfiler("A100").total_latency_s(trace)
        h100 = TraceProfiler("H100").total_latency_s(trace)
        assert h100 < a100


class TestTrainingProfile:
    def test_backward_modules_appear(self):
        model = DecoderModel(
            vocab_size=64,
            max_seq=8,
            hidden_size=16,
            num_heads=2,
            num_layers=1,
            rng=np.random.default_rng(0),
        )
        trace = OpTrace()
        loss_and_gradients(model, np.random.default_rng(1).integers(0, 64, (8, 2)), trace)
        modules = {p.module for p in TraceProfiler("A100").profile(trace)}
        assert "qkv_transform.dgrad" in modules
        assert "mlp_h_to_4h.wgrad" in modules
