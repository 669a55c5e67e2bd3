"""Tests for the mixture-of-experts substrate."""

import numpy as np
import pytest

from repro.core.config import TransformerConfig, get_model
from repro.core.gemms import layer_gemms
from repro.core.latency import LayerLatencyModel
from repro.errors import ConfigError
from repro.transformer.moe import MoEMLP
from repro.transformer.model import DecoderModel
from repro.transformer.trace import OpTrace

H, E, K = 32, 4, 2


def make_moe(rng, top_k=K, expert_kind="swiglu", d_ff=64, num_experts=E):
    return MoEMLP(
        H,
        rng,
        num_experts=num_experts,
        top_k=top_k,
        intermediate_size=d_ff,
        expert_kind=expert_kind,
    )


class TestConstruction:
    def test_param_count(self, rng):
        moe = make_moe(rng)
        # Router h*E + E SwiGLU experts of 3*h*d_ff each.
        assert moe.param_count() == H * E + E * 3 * H * 64

    def test_classic_experts(self, rng):
        moe = make_moe(rng, expert_kind="classic")
        assert moe.n_matrices == 2

    def test_invalid_args_raise(self, rng):
        with pytest.raises(ConfigError):
            make_moe(rng, num_experts=1)
        with pytest.raises(ConfigError):
            make_moe(rng, top_k=5)
        with pytest.raises(ConfigError):
            MoEMLP(H, rng, num_experts=4, expert_kind="dense")


class TestForward:
    def test_shape_and_finite(self, rng):
        moe = make_moe(rng)
        x = rng.normal(size=(8, 2, H))
        out = moe.forward(x, OpTrace())
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))

    def test_routed_token_conservation(self, rng):
        """Expert GEMM rows must sum to exactly tokens * top_k."""
        moe = make_moe(rng)
        trace = OpTrace()
        s, b = 16, 3
        moe.forward(rng.normal(size=(s, b, H)), trace)
        gate_rows = sum(r.m for r in trace if r.module == "moe_mlp_gate")
        assert gate_rows == s * b * K

    def test_router_gemm_traced(self, rng):
        moe = make_moe(rng)
        trace = OpTrace()
        moe.forward(rng.normal(size=(8, 2, H)), trace)
        router = [r for r in trace if r.module == "moe_router"]
        assert len(router) == 1
        assert router[0].shape_tuple() == (1, 16, H, E)

    def test_top1_equals_single_expert_on_winner_tokens(self, rng):
        """With k=1 each token's output is exactly its expert's output."""
        moe = make_moe(np.random.default_rng(0), top_k=1)
        x = rng.normal(size=(6, 1, H))
        out = moe.forward(x, OpTrace()).reshape(6, H)
        x2 = x.reshape(6, H)
        winners = (x2 @ moe.router).argmax(axis=-1)
        for i in range(6):
            expert_out = moe.experts[winners[i]].forward(
                x2[i][None, None, :], OpTrace()
            ).reshape(H)
            np.testing.assert_allclose(out[i], expert_out, rtol=1e-10)

    def test_combination_weights_convex(self, rng):
        """If every expert were the identity, the MoE output would be x
        (weights sum to 1)."""
        moe = make_moe(np.random.default_rng(1), expert_kind="classic")
        # Force identity experts: w1 @ w2 = I with zero biases and a
        # linear region — easier: make all experts identical; then the
        # output equals that single expert's output regardless of
        # routing, because the combination weights sum to one.
        for e in moe.experts[1:]:
            e.w1[0][...] = moe.experts[0].w1[0]
            e.b1[0][...] = moe.experts[0].b1[0]
            e.w2[0][...] = moe.experts[0].w2[0]
            e.b2[...] = moe.experts[0].b2
        x = rng.normal(size=(5, 2, H))
        out = moe.forward(x, OpTrace())
        ref = moe.experts[0].forward(x, OpTrace())
        np.testing.assert_allclose(out, ref, rtol=1e-10)


class TestFullModel:
    def test_moe_model_trains_signal(self, rng):
        model = DecoderModel(
            vocab_size=64,
            max_seq=8,
            hidden_size=H,
            num_heads=4,
            num_layers=2,
            num_experts=E,
            moe_top_k=K,
            rng=rng,
        )
        ids = rng.integers(0, 64, size=(8, 2))
        loss = model.loss(ids)
        assert np.isfinite(loss)
        assert loss == pytest.approx(np.log(64), rel=0.1)

    def test_param_count_matches_formula(self, rng):
        cfg = TransformerConfig(
            name="moe",
            hidden_size=H,
            num_heads=4,
            num_layers=2,
            vocab_size=64,
            seq_len=8,
            mlp_kind="swiglu",
            intermediate_size=64,
            num_experts=E,
            moe_top_k=K,
        )
        model = DecoderModel(
            vocab_size=64,
            max_seq=8,
            hidden_size=H,
            num_heads=4,
            num_layers=2,
            mlp_kind="swiglu",
            intermediate_size=64,
            num_experts=E,
            moe_top_k=K,
            rng=rng,
        )
        assert cfg.param_count() == model.param_count(include_final_norm=False)


class TestAnalyticMapping:
    def test_layer_gemms_moe_branch(self):
        cfg = get_model("mixtral-8x7b", microbatch=1)
        ops = {op.module: op for op in layer_gemms(cfg)}
        assert ops["moe_router"].n == 8
        assert ops["moe_mlp_gate"].batch == 8
        assert ops["moe_mlp_gate"].m == cfg.tokens_per_expert
        assert "mlp_gate" not in ops

    def test_tokens_per_expert(self):
        cfg = get_model("mixtral-8x7b", microbatch=1)  # 8192 tokens, k=2, E=8
        assert cfg.tokens_per_expert == 8192 * 2 // 8

    def test_moe_flops_exceed_dense_trunk(self):
        cfg = get_model("mixtral-8x7b", microbatch=1)
        dense = cfg.with_overrides(num_experts=None)
        moe_flops = sum(op.flops for op in layer_gemms(cfg))
        dense_flops = sum(op.flops for op in layer_gemms(dense))
        # top-2 routing runs ~2x the dense MLP FLOPs.
        assert moe_flops > 1.5 * dense_flops

    def test_latency_model_handles_moe(self):
        cfg = get_model("mixtral-8x7b", microbatch=1)
        bd = LayerLatencyModel("A100-80GB").layer_breakdown(cfg)
        assert "moe_mlp_gate" in bd.components
        assert "moe_dispatch" in bd.components
        assert bd.total_s > 0

    def test_mixtral_params(self):
        assert get_model("mixtral-8x7b").param_count() == pytest.approx(
            46.6e9, rel=0.01
        )

    def test_rules_flag_small_expert_batches(self):
        from repro.analysis.diagnostics import Severity
        from repro.analysis.shape_rules import ShapeLinter

        tiny = get_model("mixtral-8x7b", microbatch=1, seq_len=512)
        diags = [
            d
            for d in ShapeLinter("A100").diagnose(tiny)
            if d.rule_id == "shape/moe-tokens"
        ]
        assert diags and diags[0].severity == Severity.WARNING

    def test_invalid_moe_config_rejected(self):
        with pytest.raises(ConfigError):
            TransformerConfig(
                name="x", hidden_size=64, num_heads=4, num_layers=1, num_experts=1
            )
        with pytest.raises(ConfigError):
            TransformerConfig(
                name="x",
                hidden_size=64,
                num_heads=4,
                num_layers=1,
                num_experts=4,
                moe_top_k=8,
            )
