"""Tests for the shape advisor (the paper's case-study methodology)."""

import pytest

from repro.core.advisor import ShapeAdvisor, head_counts_near, padded_vocab
from repro.core.config import get_model
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def advisor():
    return ShapeAdvisor("A100")


class TestNeighbourhood:
    """The head and vocab candidates the advisor and whatif share."""

    def test_head_counts_are_divisors_within_2x(self):
        # h = 2560: the divisors in [a/2, 2a] = [16, 64] other than 32.
        assert head_counts_near(get_model("gpt3-2.7b")) == [16, 20, 40, 64]

    def test_head_counts_floor_at_one(self):
        cfg = get_model("gpt3-2.7b").with_overrides(num_heads=1)
        assert head_counts_near(cfg) == [2]

    def test_padded_vocab(self):
        assert padded_vocab(get_model("gpt-neo-2.7b")) == 50304  # v = 50257
        assert padded_vocab(get_model("gpt3-2.7b")) is None  # v = 50304


class TestGPT3Retune:
    """The Sec VI-B marquee case: fixing GPT-3 2.7B's h/a = 80."""

    def test_best_proposal_speedup_in_paper_band(self, advisor):
        best = advisor.best(get_model("gpt3-2.7b"))
        assert best is not None
        # Paper claims 1.18x end-to-end, up to 39% single-layer.
        assert 1.10 <= best.speedup <= 1.60

    def test_best_proposal_reduces_heads(self, advisor):
        best = advisor.best(get_model("gpt3-2.7b"))
        assert best.config.num_heads < 32
        assert best.config.head_dim > 80

    def test_head_retunes_keep_params_exact(self, advisor):
        for prop in advisor.propose(get_model("gpt3-2.7b")):
            if "retune heads" in prop.rationale:
                assert prop.param_ratio == pytest.approx(1.0)

    def test_paper_suggested_a20_is_proposed(self, advisor):
        heads = {p.config.num_heads for p in advisor.propose(get_model("gpt3-2.7b"))}
        assert 20 in heads  # the fix the paper's text recommends

    def test_proposals_sorted_fastest_first(self, advisor):
        props = advisor.propose(get_model("gpt3-2.7b"))
        lats = [p.latency_s for p in props]
        assert lats == sorted(lats)


class TestVocabPadding:
    def test_unaligned_vocab_gets_padding_proposal(self, advisor):
        props = advisor.propose(get_model("gpt-neo-2.7b"))  # v = 50257
        vocab_props = [p for p in props if "pad vocabulary" in p.rationale]
        assert len(vocab_props) == 1
        assert vocab_props[0].config.vocab_size == 50304
        assert vocab_props[0].speedup > 1.0

    def test_aligned_vocab_gets_none(self, advisor):
        props = advisor.propose(get_model("gpt3-2.7b"))  # v = 50304
        assert not any("pad vocabulary" in p.rationale for p in props)


class TestSwiGLUCandidates:
    def test_swiglu_model_gets_dff_proposals(self, advisor):
        props = advisor.propose(get_model("llama2-7b"), max_param_increase=0.02)
        assert any("SwiGLU" in p.rationale for p in props)

    def test_classic_model_gets_no_dff_proposals(self, advisor):
        props = advisor.propose(get_model("gpt3-2.7b"))
        assert not any("SwiGLU" in p.rationale for p in props)


class TestConstraints:
    def test_param_budget_enforced(self, advisor):
        for prop in advisor.propose(get_model("gpt-neo-2.7b"), max_param_increase=0.01):
            assert prop.param_ratio <= 1.01 + 1e-9

    def test_negative_budget_raises(self, advisor):
        with pytest.raises(ConfigError):
            advisor.propose(get_model("gpt3-2.7b"), max_param_increase=-0.1)

    def test_top_limits_count(self, advisor):
        assert len(advisor.propose(get_model("gpt3-2.7b"), top=2)) <= 2

    def test_widen_candidate_controllable(self, advisor):
        cfg = get_model("gpt3-2.7b").with_overrides(hidden_size=2500, num_heads=20)
        # Rounding h up to 2560 with a 32 -> 31 layer compensation still
        # grows params ~1.6%, so allow a wider budget here.
        with_widen = advisor.propose(
            cfg, include_widen=True, top=20, max_param_increase=0.05
        )
        without = advisor.propose(
            cfg, include_widen=False, top=20, max_param_increase=0.05
        )
        assert any("widen h" in p.rationale for p in with_widen)
        assert not any("widen h" in p.rationale for p in without)

    def test_proposal_describe(self, advisor):
        best = advisor.best(get_model("gpt3-2.7b"))
        text = best.describe()
        assert "speedup" in text and "params" in text
