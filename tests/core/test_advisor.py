"""Tests for the shape advisor (the paper's case-study methodology)."""

import pytest

from repro.analysis.whatif import WhatIfAnalyzer
from repro.core.advisor import ShapeAdvisor, head_counts_near, moves, padded_vocab
from repro.core.config import get_model
from repro.core.gemms import layer_gemms
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

    def test_head_counts_keep_gqa_groups(self):
        # h = 5120, kv = 8: a = 20 divides h but is no multiple of 8.
        cfg = get_model("mistral-7b").with_overrides(hidden_size=5120, num_heads=40)
        assert head_counts_near(cfg) == [32, 64, 80]
        assert WhatIfAnalyzer("A100").rank(cfg)

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

    def test_unaligned_width_tries_its_floor_multiples(self):
        cfg = get_model("llama2-7b").with_overrides(intermediate_size=5000)
        widths = {m.config.d_ff for m in moves(cfg) if m.knob == "swiglu_width"}
        assert {4864, 4992} <= widths
        assert 5000 not in widths
        # An aligned width's floor multiple is itself, so it is dropped.
        aligned = get_model("llama2-7b")
        widths = [m.config.d_ff for m in moves(aligned) if m.knob == "swiglu_width"]
        assert aligned.d_ff not in widths
        assert len(widths) == len(set(widths)) == 8


class TestConstraints:
    def test_param_budget_enforced(self, advisor):
        for prop in advisor.propose(get_model("gpt-neo-2.7b"), max_param_increase=0.01):
            assert prop.param_ratio <= 1.01 + 1e-9

    def test_negative_budget_raises(self, advisor):
        with pytest.raises(ConfigError):
            advisor.propose(get_model("gpt3-2.7b"), max_param_increase=-0.1)

    def test_top_limits_count(self, advisor):
        assert len(advisor.propose(get_model("gpt3-2.7b"), top=2)) <= 2

    def test_proposal_describe(self, advisor):
        best = advisor.best(get_model("gpt3-2.7b"))
        text = best.describe()
        assert "speedup" in text and "params" in text


class TestHiddenMoves:
    """A misaligned h moves to the 64-multiples around it; aligned h stays."""

    def test_misaligned_hidden_rounds_both_ways(self):
        # h = 2528 (a = 32): 2496 = 39 * 64 and 2560 = 40 * 64, with L
        # compensated to hold h^2 L (32 * 2528^2 / h^2 rounded).
        cfg = get_model("gpt3-2.7b").with_overrides(hidden_size=2528)
        hidden = [m for m in moves(cfg) if m.knob == "hidden"]
        assert [(m.config.hidden_size, m.config.num_layers) for m in hidden] == [
            (2496, 33),
            (2560, 31),
        ]
        assert hidden[1].label == "h: 2528 -> 2560 (L -> 31)"

    def test_moves_must_divide_by_heads(self):
        # h = 2520, a = 24: 2496 = 24 * 104 stays, 2560 is not a multiple of 24.
        cfg = get_model("gpt3-2.7b").with_overrides(hidden_size=2520, num_heads=24)
        assert [m.config.hidden_size for m in moves(cfg) if m.knob == "hidden"] == [
            2496
        ]

    def test_aligned_hidden_has_no_move(self):
        for name in ("gpt3-2.7b", "pythia-70m", "pythia-1b"):
            assert not [m for m in moves(get_model(name)) if m.knob == "hidden"]

    def test_advisor_applies_the_param_budget(self, advisor):
        # 2496 with L = 33 grows params 0.44%; 2560 with L = 31 shrinks them.
        cfg = get_model("gpt3-2.7b").with_overrides(hidden_size=2528)

        def rounded(budget):
            props = advisor.propose(cfg, top=20, max_param_increase=budget)
            return {p.config.hidden_size for p in props if "round h" in p.rationale}

        assert rounded(0.01) == {2496, 2560}
        assert rounded(0.0) == {2560}


class TestTensorParallelMoves:
    """Every move shards over the config's t; none aborts the ranking."""

    CFG = get_model("gpt3-2.7b").with_overrides(tp_degree=8, microbatch=8)

    def test_moves_pass_layer_gemms(self):
        for cfg in (self.CFG, get_model("mistral-7b").with_overrides(tp_degree=8)):
            for move in moves(cfg):
                layer_gemms(move.config)  # raises if t cannot shard it

    def test_heads_not_divisible_by_t_are_dropped(self):
        # h = 2560: a = 20 divides h, but t = 8 does not divide 20.
        heads = {m.config.num_heads for m in moves(self.CFG) if m.knob == "heads"}
        assert heads == {16, 40, 64}

    def test_advisor_and_whatif_rank_sharded_config(self, advisor):
        proposals = advisor.propose(self.CFG, max_param_increase=10, top=100)
        assert proposals
        ranked = WhatIfAnalyzer("A100").rank(self.CFG)
        assert {s.knob for s in ranked} == {
            "heads", "vocabulary", "microbatch", "hidden", "swiglu_width"
        }
        configs = [p.config for p in proposals] + [
            s.config for s in ranked if s.config is not None
        ]
        for cfg in configs:
            layer_gemms(cfg)
