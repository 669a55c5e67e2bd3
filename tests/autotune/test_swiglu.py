"""Tests for the SwiGLU intermediate-size search (Sec VII-B)."""

import pytest

from repro.autotune.swiglu import (
    LLAMA2_CHOICES,
    candidate_for,
    swiglu_intermediate_search,
)
from repro.errors import ConfigError
from repro.gpu.gemm_model import GemmModel


@pytest.fixture(scope="module")
def candidates():
    # step=8 samples every alignment class from pow2=8 up (odd values
    # are hopeless on every count); 11008 and the naive rounding are
    # force-included.
    return swiglu_intermediate_search(
        h=4096, window=0.06, step=8, must_include=[10923]
    )


def _block_latency(tp_degree: int = 1) -> float:
    """The search's SwiGLU block latency for d_ff = 11008 at h = 4096."""
    ranked = swiglu_intermediate_search(
        h=4096, window=0.01, step=64, tp_degree=tp_degree, must_include=[11008]
    )
    return candidate_for(ranked, 11008).latency_s


class TestBlockLatency:
    def test_three_matmuls(self):
        model = GemmModel("A100")
        d = 11008
        up = model.latency(8192, d, 4096)
        down = model.latency(8192, 4096, d)
        assert _block_latency() == pytest.approx(2 * up + down)

    def test_tp_shard(self):
        assert _block_latency(tp_degree=2) < _block_latency(tp_degree=1)

    def test_indivisible_tp_raises(self):
        # 11008 is not divisible by t=3, so it is never a candidate.
        with pytest.raises(ConfigError):
            _block_latency(tp_degree=3)


class TestLlamaCaseStudy:
    def test_llama2_7b_top_decile(self, candidates):
        # Sec VII-B: 11008 "is indeed one of the best performing sizes
        # in its range".
        llama = candidate_for(candidates, 11008)
        assert llama.percentile >= 0.9

    def test_naive_rounding_much_slower(self, candidates):
        naive = candidate_for(candidates, 10923)  # round(8*4096/3), odd
        llama = candidate_for(candidates, 11008)
        assert naive.latency_s > 1.5 * llama.latency_s

    def test_results_sorted_by_efficiency(self, candidates):
        # Ranking is by per-FLOP latency; percentiles must descend.
        pcts = [c.percentile for c in candidates]
        assert pcts == sorted(pcts, reverse=True)

    def test_top_candidates_well_aligned(self, candidates):
        # Every candidate in the top decile should have a pow-2 factor
        # of at least 64 (the Tensor Core full-alignment grain).
        top = [c for c in candidates if c.percentile >= 0.9]
        assert top and all(c.pow2 >= 64 for c in top)

    def test_coefficient_near_8_thirds(self, candidates):
        llama = candidate_for(candidates, 11008)
        assert llama.coefficient == pytest.approx(8 / 3, rel=0.02)

    def test_llama2_choices_table(self):
        assert LLAMA2_CHOICES[4096] == 11008
        assert LLAMA2_CHOICES[8192] == 28672


class TestValidation:
    def test_bad_window_raises(self):
        with pytest.raises(ConfigError):
            swiglu_intermediate_search(h=4096, window=1.5)

    def test_missing_candidate_raises(self, candidates):
        with pytest.raises(ConfigError):
            candidate_for(candidates, 1)

    def test_describe(self, candidates):
        assert "d_ff=" in candidates[0].describe()
