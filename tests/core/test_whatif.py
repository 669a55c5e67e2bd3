"""Tests for the what-if sensitivity analyzer."""

import pytest

from repro.analysis.whatif import WhatIfAnalyzer
from repro.core.config import get_model
from repro.core.memory import MemoryBudget


@pytest.fixture(scope="module")
def analyzer():
    return WhatIfAnalyzer("A100")


class TestKnobs:
    def test_heads_is_top_knob_for_gpt3_27b(self, analyzer):
        # The paper's whole case study: for this model the head count is
        # the payoff.
        ranked = analyzer.rank(get_model("gpt3-2.7b"))
        assert ranked[0].knob == "heads"
        assert ranked[0].speedup > 1.15
        assert "a: 32 ->" in ranked[0].best_move

    def test_vocab_knob_for_unpadded_model(self, analyzer):
        cfg = get_model("gpt-neo-2.7b")  # v = 50257
        sens = {s.knob: s for s in analyzer.rank(cfg)}
        assert sens["vocabulary"].speedup > 1.0
        assert "50304" in sens["vocabulary"].best_move

    def test_vocab_knob_noop_when_aligned(self, analyzer):
        sens = {s.knob: s for s in analyzer.rank(get_model("gpt3-2.7b"))}
        assert sens["vocabulary"].speedup == 1.0

    def test_swiglu_knob_only_for_swiglu_models(self, analyzer):
        classic = {s.knob: s for s in analyzer.rank(get_model("gpt3-2.7b"))}
        assert classic["swiglu_width"].best_move == "not a SwiGLU model"

    def test_microbatch_respects_memory_budget(self):
        # A 2.7B model cannot double its batch on a 40GB card (its Adam
        # states alone don't fit), so the knob must report the gate.
        tight = WhatIfAnalyzer("A100", memory_budget=MemoryBudget(1e9))
        sens = {s.knob: s for s in tight.rank(get_model("gpt3-2.7b"))}
        assert sens["microbatch"].speedup == 1.0
        assert "memory budget" in sens["microbatch"].best_move

    def test_microbatch_helps_when_memory_allows(self):
        roomy = WhatIfAnalyzer("A100", memory_budget=MemoryBudget(10e12))
        cfg = get_model("gpt3-2.7b", microbatch=1)
        sens = {s.knob: s for s in roomy.rank(cfg)}
        assert sens["microbatch"].speedup > 1.0


class TestRanking:
    def test_sorted_descending(self, analyzer):
        ranked = analyzer.rank(get_model("gpt-neo-2.7b"))
        speedups = [s.speedup for s in ranked]
        assert speedups == sorted(speedups, reverse=True)

    def test_all_knobs_present(self, analyzer):
        knobs = {s.knob for s in analyzer.rank(get_model("gpt3-2.7b"))}
        assert knobs == {"heads", "vocabulary", "microbatch", "hidden", "swiglu_width"}

    def test_speedups_never_below_one(self, analyzer):
        # Each knob reports its best move or "keep as is" (1.0).
        for s in analyzer.rank(get_model("c2")):
            assert s.speedup >= 1.0

    def test_report_text(self, analyzer):
        text = analyzer.report(get_model("gpt3-2.7b"))
        assert "heads" in text and "A100" in text

    def test_worthwhile_flag(self, analyzer):
        ranked = analyzer.rank(get_model("gpt3-2.7b"))
        best = ranked[0]
        assert best.worthwhile
        assert "not worthwhile" not in best.describe()
