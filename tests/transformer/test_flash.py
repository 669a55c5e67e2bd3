"""Tests for FlashAttention: algorithmic equivalence and perf model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.transformer.flash import FlashAttentionModel, flash_attention


def naive_attention(q, k, v, causal=True):
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = np.matmul(q, k.transpose(0, 2, 1)) * scale
    if causal:
        s = q.shape[1]
        mask = np.triu(np.ones((s, s), dtype=bool), 1)
        scores = np.where(mask[None], -np.inf, scores)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    p = np.exp(shifted)
    p /= p.sum(axis=-1, keepdims=True)
    return np.matmul(p, v)


class TestAlgorithm:
    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("block", [4, 8, 32, 100])
    def test_matches_naive(self, rng, causal, block):
        q, k, v = (rng.normal(size=(3, 32, 8)) for _ in range(3))
        out = flash_attention(q, k, v, causal=causal, block_q=block, block_k=block)
        np.testing.assert_allclose(out, naive_attention(q, k, v, causal), rtol=1e-9)

    def test_asymmetric_blocks(self, rng):
        q, k, v = (rng.normal(size=(2, 24, 4)) for _ in range(3))
        out = flash_attention(q, k, v, block_q=8, block_k=16)
        np.testing.assert_allclose(out, naive_attention(q, k, v), rtol=1e-9)

    def test_sequence_not_multiple_of_block(self, rng):
        q, k, v = (rng.normal(size=(1, 17, 4)) for _ in range(3))
        out = flash_attention(q, k, v, block_q=8, block_k=8)
        np.testing.assert_allclose(out, naive_attention(q, k, v), rtol=1e-9)

    def test_mismatched_shapes_raise(self, rng):
        q = rng.normal(size=(2, 8, 4))
        k = rng.normal(size=(2, 8, 8))
        with pytest.raises(ShapeError):
            flash_attention(q, k, k)

    def test_bad_block_size_raises(self, rng):
        q = rng.normal(size=(1, 8, 4))
        with pytest.raises(ShapeError):
            flash_attention(q, q, q, block_q=0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=33),
        st.sampled_from([2, 4, 8]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_equivalence(self, batch, s, d, seed):
        rng = np.random.default_rng(seed)
        q, k, v = (rng.normal(size=(batch, s, d)) for _ in range(3))
        out = flash_attention(q, k, v, block_q=8, block_k=8)
        np.testing.assert_allclose(out, naive_attention(q, k, v), rtol=1e-8, atol=1e-12)


class TestPerfModel:
    def test_roofline_shape(self):
        # Fig 12: throughput rises with head dim then saturates.
        model = FlashAttentionModel("A100")
        tputs = [model.tflops(512, 2048, d) for d in (8, 16, 32, 64, 128, 160)]
        assert tputs == sorted(tputs)
        assert tputs[-1] == pytest.approx(tputs[-2], rel=0.25)

    def test_insensitive_to_pow2_of_head_dim(self):
        # The fused kernel pads internally: d=80 vs d=96 vs d=64 show no
        # pow-2 ordering, unlike the unfused BMMs.
        model = FlashAttentionModel("A100")
        t80 = model.tflops(512, 2048, 80)
        t64 = model.tflops(512, 2048, 64)
        assert t80 > t64  # strictly more work per byte, no alignment cliff

    def test_causal_halves_flops(self):
        model = FlashAttentionModel("A100")
        causal = model.evaluate(8, 1024, 64, causal=True)
        full = model.evaluate(8, 1024, 64, causal=False)
        # s^2 vs s(s+1)/2 attended pairs: ratio 2s/(s+1).
        assert full.flops == pytest.approx(2 * causal.flops, rel=2e-3)

    def test_memory_floor_for_tiny_seq(self):
        model = FlashAttentionModel("A100")
        perf = model.evaluate(1, 32, 64)
        assert perf.bound == "memory"

    def test_large_seq_compute_bound(self):
        model = FlashAttentionModel("A100")
        perf = model.evaluate(128, 4096, 128)
        assert perf.bound == "compute"

    def test_nonpositive_raises(self):
        model = FlashAttentionModel("A100")
        with pytest.raises(ShapeError):
            model.evaluate(0, 128, 64)

    def test_faster_than_unfused_path(self):
        # The reason FlashAttention is recommended for small models: it
        # removes the memory-bound score materialization.
        from repro.engine.core import default_engine
        from repro.engine.vectorized import shape_array

        flash = FlashAttentionModel("A100")
        b, s, h, a = 4, 2048, 2560, 32
        # Table II: b*a BMMs of (s, h/a) x (h/a, s), then (s, s) x (s, h/a).
        score_and_aov = shape_array([s, s], [s, h // a], [h // a, s], b * a)
        unfused = default_engine().latency(score_and_aov, "A100").sum()
        fused = flash.latency(b * a, s, h // a)
        assert fused < unfused
