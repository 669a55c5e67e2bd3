"""Tests for the Table II operator -> GEMM mapping."""

import pytest

from repro.core.config import get_model
from repro.core.gemms import (
    backward_gemms_for,
    layer_gemms,
    layer_rows,
    logit_gemm,
    logit_row,
    training_gemms,
)
from repro.errors import ParallelismError


@pytest.fixture
def cfg():
    return get_model("gpt3-2.7b")  # b=4, s=2048, h=2560, a=32


def _layer_flops(cfg, t=None):
    """Matmul FLOPs of one layer's rows at t, times t (all ranks)."""
    t = cfg.tp_degree if t is None else t
    return sum(2 * b * m * n * k for b, m, n, k in layer_rows(cfg, t)[1]) * t


class TestLayerGemms:
    def test_classic_layer_has_six_operators(self, cfg):
        ops = layer_gemms(cfg)
        assert [op.module for op in ops] == [
            "qkv_transform",
            "attention_score",
            "attention_over_value",
            "attention_projection",
            "mlp_h_to_4h",
            "mlp_4h_to_h",
        ]

    def test_table2_shapes(self, cfg):
        shapes = {op.module: op for op in layer_gemms(cfg)}
        bs, h, a, s = 8192, 2560, 32, 2048
        assert shapes["qkv_transform"].shape_tuple() == (1, bs, h, 3 * h)
        assert shapes["attention_score"].shape_tuple() == (4 * a, s, h // a, s)
        assert shapes["attention_over_value"].shape_tuple() == (4 * a, s, s, h // a)
        assert shapes["attention_projection"].shape_tuple() == (1, bs, h, h)
        assert shapes["mlp_h_to_4h"].shape_tuple() == (1, bs, h, 4 * h)
        assert shapes["mlp_4h_to_h"].shape_tuple() == (1, bs, 4 * h, h)

    def test_tp_divides_per_gpu_shapes(self, cfg):
        sharded = cfg.with_overrides(tp_degree=4)
        shapes = {op.module: op for op in layer_gemms(sharded)}
        assert shapes["qkv_transform"].n == 3 * 2560 // 4
        assert shapes["attention_score"].batch == 4 * 32 // 4
        assert shapes["attention_projection"].k == 2560 // 4
        assert shapes["mlp_h_to_4h"].n == 4 * 2560 // 4

    def test_swiglu_layer_has_seven_operators(self):
        cfg = get_model("llama2-7b")
        mods = [op.module for op in layer_gemms(cfg)]
        assert mods[-3:] == ["mlp_gate", "mlp_up", "mlp_down"]
        assert len(mods) == 7

    def test_infeasible_tp_raises(self, cfg):
        with pytest.raises(ParallelismError):
            layer_gemms(cfg.with_overrides(tp_degree=3))

    def test_rows_take_t_as_an_argument(self, cfg):
        sharded = cfg.with_overrides(tp_degree=4)
        assert layer_rows(cfg, 4) == layer_rows(sharded)
        assert [op.module for op in layer_gemms(sharded)] == layer_rows(cfg, 4)[0]
        with pytest.raises(ParallelismError):
            layer_rows(cfg, 3)


class TestFlopsConsistency:
    def test_layer_gemm_flops_match_paper_formula(self, cfg):
        # GEMM flops of one layer must equal 24bsh^2 + 4bs^2h.
        from repro.core.formulas import forward_flops_per_layer

        got = _layer_flops(cfg)
        expected = forward_flops_per_layer(
            cfg.microbatch, cfg.seq_len, cfg.hidden_size
        )
        assert got == expected

    def test_tp_conserves_total_flops(self, cfg):
        base = _layer_flops(cfg)
        for t in (2, 4, 8):
            assert _layer_flops(cfg, t) == base

    def test_score_and_aov_equal_flops(self, cfg):
        ops = {op.module: op for op in layer_gemms(cfg)}
        assert ops["attention_score"].flops == ops["attention_over_value"].flops


class TestModelGemms:
    def test_count(self, cfg):
        assert len(layer_rows(cfg)[1]) == 6

    def test_logit_last(self, cfg):
        assert training_gemms(cfg)[-3].module == "logit"

    def test_logit_shape(self, cfg):
        op = logit_gemm(cfg)
        assert op.shape_tuple() == (1, 8192, 2560, 50304)
        assert logit_row(cfg) == (1, 8192, 50304, 2560)
        assert not op.is_bmm


class TestBackwardGemms:
    def test_shapes_are_transposes(self):
        op = layer_gemms(get_model("gpt3-2.7b"))[0]  # QKV (bs, h)x(h, 3h)
        dgrad, wgrad = backward_gemms_for(op)
        assert (dgrad.m, dgrad.k, dgrad.n) == (op.m, op.n, op.k)
        assert (wgrad.m, wgrad.k, wgrad.n) == (op.k, op.m, op.n)

    def test_equal_flops(self):
        for op in layer_gemms(get_model("gpt3-2.7b")):
            for bop in backward_gemms_for(op):
                assert bop.flops == op.flops

    def test_training_gemms_3x_count_and_flops(self, cfg):
        fwd_ops = layer_gemms(cfg) * cfg.num_layers
        train_ops = training_gemms(cfg)
        assert len(train_ops) == 3 * (len(fwd_ops) + 1)
        fwd_flops = sum(op.flops for op in fwd_ops)
        train_flops = sum(op.flops for op in train_ops)
        logit_flops = train_ops[-3].flops
        assert train_flops == 3 * (fwd_flops + logit_flops)
