"""Tests for repro.types: dtypes, time estimates, throughput math."""

import pytest

from repro.errors import ConfigError
from repro.types import DType, TimeEstimate, teraflops


class TestDType:
    def test_bytes(self):
        assert DType.FP16.bytes == 2
        assert DType.BF16.bytes == 2
        assert DType.FP32.bytes == 4
        assert DType.FP64.bytes == 8
        assert DType.INT8.bytes == 1

    def test_bits(self):
        assert DType.FP16.bits == 16
        assert DType.FP32.bits == 32

    def test_is_half(self):
        assert DType.FP16.is_half
        assert DType.BF16.is_half
        assert not DType.FP32.is_half
        assert not DType.INT8.is_half

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("fp16", DType.FP16),
            ("FP16", DType.FP16),
            ("half", DType.FP16),
            ("float16", DType.FP16),
            ("bfloat16", DType.BF16),
            ("bf16", DType.BF16),
            ("float", DType.FP32),
            ("single", DType.FP32),
            ("float32", DType.FP32),
            ("double", DType.FP64),
            ("float64", DType.FP64),
            ("int8", DType.INT8),
            ("tf32", DType.TF32),
            ("  fp16  ", DType.FP16),
        ],
    )
    def test_parse_strings(self, name, expected):
        assert DType.parse(name) is expected

    def test_parse_passthrough(self):
        assert DType.parse(DType.BF16) is DType.BF16

    def test_parse_unknown_raises(self):
        with pytest.raises(ConfigError, match="unknown dtype"):
            DType.parse("fp13")


class TestTimeEstimate:
    def test_bound_compute(self):
        t = TimeEstimate(total_s=2.0, compute_s=1.5, memory_s=0.5)
        assert t.bound == "compute"

    def test_bound_memory(self):
        t = TimeEstimate(total_s=2.0, compute_s=0.5, memory_s=1.5)
        assert t.bound == "memory"

    def test_add_accumulates_fields(self):
        a = TimeEstimate(1.0, 0.6, 0.4, 0.1)
        b = TimeEstimate(2.0, 1.0, 1.0, 0.2)
        c = a + b
        assert c.total_s == pytest.approx(3.0)
        assert c.compute_s == pytest.approx(1.6)
        assert c.memory_s == pytest.approx(1.4)
        assert c.overhead_s == pytest.approx(0.3)


class TestTeraflops:
    def test_conversion(self):
        assert teraflops(2e12, 1.0) == pytest.approx(2.0)
        assert teraflops(1e12, 0.5) == pytest.approx(2.0)

    def test_nonpositive_duration_raises(self):
        with pytest.raises(ValueError):
            teraflops(1e12, 0.0)
        with pytest.raises(ValueError):
            teraflops(1e12, -1.0)
