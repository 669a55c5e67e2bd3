"""Tests for the BMM shape type and the attention BMMs of Table II.

The attention score and attention-over-value BMMs come from
:func:`repro.core.gemms.layer_gemms` and are priced by the shape engine.
"""

import pytest

from repro.core.config import TransformerConfig
from repro.core.gemms import layer_gemms
from repro.engine.core import default_engine
from repro.engine.vectorized import shape_array
from repro.errors import ConfigError, ParallelismError, ShapeError
from repro.gpu.bmm_model import BmmShape
from repro.gpu.gemm_model import GemmPerf
from repro.types import DType


def _attention(b, s, h, a, t=1):
    """The (score, attention-over-value) BMM shapes of one layer."""
    cfg = TransformerConfig(
        name="attn", hidden_size=h, num_heads=a, num_layers=1,
        seq_len=s, microbatch=b, tp_degree=t,
    )
    ops = {
        op.module: BmmShape(batch=op.batch, m=op.m, k=op.k, n=op.n)
        for op in layer_gemms(cfg)
    }
    return ops["attention_score"], ops["attention_over_value"]


def _evaluate(*shapes: BmmShape):
    """Price the shapes in one engine batch on A100."""
    batch, m, k, n = zip(*((s.batch, s.m, s.k, s.n) for s in shapes))
    return default_engine().evaluate(shape_array(m, n, k, batch), "A100", DType.FP16)


class TestBmmShape:
    def test_flops(self):
        s = BmmShape(batch=4, m=8, k=16, n=32)
        assert s.flops == 2 * 4 * 8 * 16 * 32

    def test_bytes(self):
        s = BmmShape(batch=2, m=4, k=8, n=16)
        assert s.bytes(DType.FP16) == 2 * (4 * 8 + 8 * 16 + 4 * 16) * 2

    def test_nonpositive_raises(self):
        with pytest.raises(ShapeError):
            BmmShape(batch=0, m=4, k=8, n=16)


class TestAttentionConstructors:
    def test_score_shape_matches_table2(self):
        # b*a/t BMMs of (s, h/a) x (h/a, s).
        score, _ = _attention(b=4, s=2048, h=2560, a=32, t=2)
        assert score == BmmShape(batch=4 * 32 // 2, m=2048, k=80, n=2048)

    def test_aov_shape_matches_table2(self):
        _, aov = _attention(b=4, s=2048, h=2560, a=32)
        assert aov == BmmShape(batch=128, m=2048, k=2048, n=80)

    def test_h_not_divisible_by_a_raises(self):
        with pytest.raises(ConfigError, match="not divisible by num_heads"):
            _attention(4, 2048, 2560, 48)

    def test_ba_not_divisible_by_t_raises(self):
        # The paper's rule: (b*a)/t must be an integer.
        with pytest.raises(ParallelismError, match="not divisible by t=5"):
            _attention(1, 2048, 2560, 32, t=5)

    def test_score_and_aov_have_equal_flops(self):
        sc, av = _attention(4, 2048, 4096, 32)
        assert sc.flops == av.flops


class TestEvaluation:
    def test_attention_bmms_memory_bound(self):
        # Sec VI-A: "these two GEMMs are memory bound".
        perfs = _evaluate(*_attention(4, 2048, 2048, 32))
        assert list(perfs.bound) == ["memory", "memory"]

    def test_head_dim_raises_throughput(self):
        # Decreasing a (increasing h/a) makes the BMMs more efficient.
        scores = [_attention(4, 2048, 4096, a)[0] for a in (64, 32, 16)]
        t64, t32, t16 = _evaluate(*scores).tflops.tolist()
        assert t64 < t32 < t16

    def test_aligned_head_dim_beats_misaligned(self):
        # h=2560: a=40 (h/a=64) beats a=32 (h/a=80) per unit time.
        perfs = _evaluate(
            _attention(4, 2048, 2560, 40)[0], _attention(4, 2048, 2560, 32)[0]
        )
        aligned = GemmPerf.from_batch(perfs, 0)
        misaligned = GemmPerf.from_batch(perfs, 1)
        # Same total flops (2*b*s^2*h), so latency comparison is fair.
        assert aligned.flops == misaligned.flops
        assert aligned.latency_s < misaligned.latency_s
