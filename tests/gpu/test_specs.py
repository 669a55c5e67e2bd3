"""Tests for the GPU spec registry (paper Table III / Sec III-B facts)."""

import pytest

from repro.errors import GPUModelError
from repro.gpu.specs import get_gpu, list_gpus, register_gpu
from repro.types import DType


class TestRegistry:
    def test_lookup_by_name_case_insensitive(self):
        assert get_gpu("a100").name == "A100"
        assert get_gpu("A100").name == "A100"
        assert get_gpu(" h100 ").name == "H100"

    def test_aliases(self):
        assert get_gpu("a100-40gb").name == "A100"
        assert get_gpu("v100-16gb").name == "V100"
        assert get_gpu("mi250").name == "MI250X"

    def test_passthrough(self, a100):
        assert get_gpu(a100) is a100

    def test_unknown_raises_with_known_list(self):
        with pytest.raises(GPUModelError, match="known:"):
            get_gpu("TPUv4")

    def test_list_gpus_distinct_and_sorted(self):
        gpus = list_gpus()
        names = [g.name for g in gpus]
        assert names == sorted(names)
        assert len(names) == len(set(names))
        assert {"V100", "A100", "H100", "MI250X"} <= set(names)


class TestPaperFacts:
    """The microarchitectural facts the paper's rules quote verbatim."""

    def test_sm_counts(self):
        # Sec VI-B: 80 for V100, 108 for A100, 144 for H100.
        assert get_gpu("V100").num_sms == 80
        assert get_gpu("A100").num_sms == 108
        assert get_gpu("H100").num_sms == 144

    def test_tc_alignment_bytes(self):
        # Sec III-B: 16 bytes on V100, 128 bytes on A100.
        assert get_gpu("V100").tc_align_bytes == 16
        assert get_gpu("A100").tc_align_bytes == 128

    def test_tc_align_elems_fp16(self):
        # 128 bytes = 64 FP16 elements (Sec VI-B).
        assert get_gpu("A100").tc_align_elems(DType.FP16) == 64
        assert get_gpu("V100").tc_align_elems(DType.FP16) == 8

    def test_tc_align_elems_depends_on_dtype(self, a100):
        assert a100.tc_align_elems(DType.FP32) == 32
        assert a100.tc_align_elems(DType.INT8) == 128

    def test_h100_a100_peak_ratio(self):
        # Sec VIII: ~3:1 between H100 and A100 systems.
        ratio = get_gpu("H100").matrix_peak_tflops(DType.FP16) / get_gpu(
            "A100"
        ).matrix_peak_tflops(DType.FP16)
        assert 2.5 <= ratio <= 3.6


class TestGPUSpec:
    def test_matrix_peak_missing_raises(self, v100):
        with pytest.raises(GPUModelError, match="no matrix-engine path"):
            v100.matrix_peak_tflops(DType.FP64)

    def test_vector_peak_missing_raises(self, a100):
        with pytest.raises(GPUModelError, match="no vector-unit rate"):
            a100.vector_peak_tflops(DType.INT8)

    def test_supports_matrix(self, a100, v100):
        assert a100.supports_matrix(DType.BF16)
        assert not v100.supports_matrix(DType.BF16)

    def test_mem_bw_conversion(self, a100):
        assert a100.mem_bw_bytes_per_s() == pytest.approx(1555e9)

    def test_with_overrides(self, a100):
        fat = a100.with_overrides(mem_bw_gbs=2039.0, name="A100-fat")
        assert fat.mem_bw_gbs == 2039.0
        assert fat.num_sms == a100.num_sms
        assert a100.mem_bw_gbs == 1555.0  # original untouched

    def test_invalid_sms_rejected(self, a100):
        with pytest.raises(GPUModelError):
            a100.with_overrides(num_sms=0)

    def test_invalid_alignment_rejected(self, a100):
        with pytest.raises(GPUModelError):
            a100.with_overrides(tc_min_bytes=256)

    def test_register_custom(self, a100):
        register_gpu(a100.with_overrides(name="TestChip"), aliases=("tc1",))
        assert get_gpu("tc1").name == "TestChip"
