"""Cross-validation between the independent subsystems.

These tests tie the reproduction together: the analytic Table II
mapping, the executed NumPy transformer and the closed-form formulas
must all agree with each other.
"""

import numpy as np
import pytest

from repro.core import formulas
from repro.core.config import TransformerConfig
from repro.core.gemms import layer_gemms, logit_gemm
from repro.transformer.model import DecoderModel
from repro.transformer.trace import OpTrace


def build_and_trace(cfg: TransformerConfig, **model_kw):
    model = DecoderModel(
        vocab_size=cfg.vocab_size,
        max_seq=cfg.seq_len,
        hidden_size=cfg.hidden_size,
        num_heads=cfg.num_heads,
        num_layers=cfg.num_layers,
        tp_degree=cfg.tp_degree,
        mlp_kind=cfg.mlp_kind,
        intermediate_size=cfg.intermediate_size,
        positional=cfg.positional,
        rng=np.random.default_rng(0),
        **model_kw,
    )
    trace = OpTrace()
    ids = np.random.default_rng(1).integers(
        0, cfg.vocab_size, size=(cfg.seq_len, cfg.microbatch)
    )
    model.forward(ids, trace)
    return model, trace


SMALL_CONFIGS = [
    TransformerConfig(
        name="classic", hidden_size=64, num_heads=4, num_layers=2,
        vocab_size=128, seq_len=16, microbatch=2,
    ),
    TransformerConfig(
        name="tp2", hidden_size=64, num_heads=4, num_layers=2,
        vocab_size=128, seq_len=16, microbatch=2, tp_degree=2,
    ),
    TransformerConfig(
        name="swiglu", hidden_size=64, num_heads=4, num_layers=2,
        vocab_size=128, seq_len=16, microbatch=2, mlp_kind="swiglu",
        intermediate_size=176,
    ),
    TransformerConfig(
        name="rotary", hidden_size=64, num_heads=4, num_layers=1,
        vocab_size=128, seq_len=16, microbatch=3, positional="rotary",
    ),
]


@pytest.mark.parametrize("cfg", SMALL_CONFIGS, ids=lambda c: c.name)
class TestMappingGroundTruth:
    """Analytic Table II mapping == shapes the real computation executes."""

    def test_traced_shapes_equal_analytic(self, cfg):
        _, trace = build_and_trace(cfg)
        expected_per_layer = layer_gemms(cfg)
        traced = list(trace)

        # Per layer: t shards x operators; then the logit GEMM.
        per_layer_expected = []
        for op in expected_per_layer:
            per_layer_expected += [op.shape_tuple()] * 1
        # Group traced records per module occurrence and compare sets
        # per layer slice.
        ops_per_layer = len(expected_per_layer) * cfg.tp_degree
        body = traced[:-1]
        assert len(body) == ops_per_layer * cfg.num_layers
        for layer in range(cfg.num_layers):
            chunk = body[layer * ops_per_layer : (layer + 1) * ops_per_layer]
            got = {(r.module, r.shape_tuple()) for r in chunk}
            want = {(op.module, op.shape_tuple()) for op in expected_per_layer}
            assert got == want

    def test_logit_gemm_matches(self, cfg):
        _, trace = build_and_trace(cfg)
        last = trace.records[-1]
        assert last.module == "logit"
        assert last.shape_tuple() == logit_gemm(cfg).shape_tuple()

    def test_traced_flops_match_formula(self, cfg):
        _, trace = build_and_trace(cfg)
        expected = formulas.forward_flops_model(
            b=cfg.microbatch,
            s=cfg.seq_len,
            h=cfg.hidden_size,
            L=cfg.num_layers,
            v=cfg.vocab_size,
            d_ff=cfg.d_ff,
            mlp_matrices=cfg.mlp_matrices,
        )
        assert trace.flops() == expected

    def test_param_formula_matches_arrays(self, cfg):
        model, _ = build_and_trace(cfg)
        assert cfg.param_count() == model.param_count(include_final_norm=False)
