"""Tests for the co-design shape linter (prong 1).

The paper's own numbers anchor these: the retuned GPT-3 2.7B shapes
(``c2``, Sec VI-B) and the Pythia suite (Sec VII-C) must lint clean,
and the known-bad shapes must trigger the expected rules with fix-its
matching the paper's values (a=40, v padded to a 64-multiple).
"""

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.shape_rules import ShapeLinter
from repro.core.config import get_model
from repro.core.gemms import layer_gemms
from repro.engine.core import default_engine
from repro.engine.vectorized import shape_array


@pytest.fixture(scope="module")
def linter():
    return ShapeLinter("A100")


def rules_at_or_above(report, severity):
    return {d.rule_id for d in report.findings(severity)}


class TestCleanShapes:
    def test_c2_retuned_lints_clean(self, linter):
        # The paper's retuned 2.7B (h=2560, a=40, h/a=64) is the
        # positive exemplar of its own sizing rules.
        report = linter.lint(get_model("c2"))
        assert report.exit_code == 0, report.render_text()

    @pytest.mark.parametrize(
        "name", ["pythia-410m", "pythia-1.4b", "pythia-6.9b", "pythia-12b"]
    )
    def test_pythia_suite_lints_clean(self, linter, name):
        # Pythia was sized with these rules (Sec VII-C).
        report = linter.lint(get_model(name))
        assert report.exit_code == 0, report.render_text()

    def test_gpt3_13b_lints_clean(self, linter):
        report = linter.lint(get_model("gpt3-13b"))
        assert report.exit_code == 0, report.render_text()


class TestVocabRule:
    def test_unpadded_gptneo_vocab_flagged(self, linter):
        # GPT-NeoX padded 50257 -> 50304; unpadded must warn with the
        # paper's fix.
        report = linter.lint(get_model("gpt-neo-2.7b"))
        assert report.exit_code == 1
        [diag] = [
            d for d in report.findings() if d.rule_id == "shape/vocab-divisible"
        ]
        assert diag.severity == Severity.WARNING
        assert diag.fixit is not None
        assert diag.fixit.suggested % 64 == 0
        assert diag.fixit.suggested >= 50257
        assert diag.fixit.latency_after_s < diag.fixit.latency_before_s

    def test_padded_vocab_ok(self, linter):
        diags = linter.rule_vocab(get_model("gpt3-2.7b"))
        assert all(d.severity == Severity.OK for d in diags)


class TestHeadAlignmentRule:
    def test_gpt3_2_7b_suggests_paper_retune(self, linter):
        # h/a = 80 -> the nearest fully-aligned head count is the
        # paper's own retune, a=40 (h/a=64) — NOT the raw-latency
        # winner (a=20), which models faster but is a bigger change.
        [diag] = linter.rule_head_alignment(get_model("gpt3-2.7b"))
        assert diag.severity == Severity.WARNING
        assert diag.fixit is not None
        assert diag.fixit.suggested == 40
        assert diag.fixit.latency_after_s < diag.fixit.latency_before_s

    def test_c1_flagged(self, linter):
        # c1 (a=64, h/a=40) is the paper's deliberately-bad shape.
        [diag] = linter.rule_head_alignment(get_model("c1"))
        assert diag.severity == Severity.WARNING
        assert diag.fixit is not None
        assert diag.fixit.suggested == 40

    def test_aligned_head_dim_ok(self, linter):
        [diag] = linter.rule_head_alignment(get_model("c2"))
        assert diag.severity == Severity.OK


class TestTensorParallelRules:
    def test_acceptance_config_t4(self, linter):
        # ISSUE acceptance case: h=2560, a=32, t=4, v=50257 must emit
        # at least the vocab and head-alignment diagnostics, each with
        # a strictly-better engine-modeled fix-it.
        cfg = get_model("gpt3-2.7b").with_overrides(
            name="gpt3-2.7b-t4", vocab_size=50257, tp_degree=4
        )
        report = linter.lint(cfg)
        found = rules_at_or_above(report, Severity.WARNING)
        assert "shape/vocab-divisible" in found
        assert "shape/head-alignment" in found
        for rule in ("shape/vocab-divisible", "shape/head-alignment"):
            [diag] = [d for d in report.findings() if d.rule_id == rule]
            assert diag.fixit is not None, rule
            assert diag.fixit.latency_after_s < diag.fixit.latency_before_s

    def test_indivisible_hidden_is_error(self, linter):
        # Sec VII-A: Summit's 6-GPU nodes — t=6 does not divide 2560.
        cfg = get_model("gpt3-2.7b").with_overrides(name="t6", tp_degree=6)
        diags = linter.rule_hidden_tp(cfg)
        [diag] = diags
        assert diag.severity == Severity.ERROR
        assert diag.fixit is not None
        assert diag.fixit.field == "tp_degree"
        assert 2560 % diag.fixit.suggested == 0

    def test_hidden_fixit_prices_the_layer_gemms(self, linter):
        # GQA (kv = 8) + SwiGLU, h/t = 4160/2 = 2080 = 32 * 65: the
        # fix-it's "before" cost is the engine sum over the layer's
        # dense GEMMs exactly as layer_gemms builds them (QKV of width
        # h + 2*kv_dim, the SwiGLU gate, up and down).
        cfg = get_model("mistral-7b").with_overrides(hidden_size=4160, tp_degree=2)
        [diag] = linter.rule_hidden_tp(cfg)
        assert diag.severity == Severity.WARNING and diag.fixit is not None
        dense = [op for op in layer_gemms(cfg) if not op.is_bmm]
        assert [op.module for op in dense] == [
            "qkv_transform",
            "attention_projection",
            "mlp_gate",
            "mlp_up",
            "mlp_down",
        ]
        shapes = shape_array(
            [op.m for op in dense], [op.n for op in dense], [op.k for op in dense], 1
        )
        expected = float(default_engine().latency(shapes, "A100", "fp16").sum())
        assert diag.fixit.latency_before_s == expected

    def test_heads_not_sharding_is_error(self, linter):
        cfg = get_model("gpt3-2.7b").with_overrides(name="t5-heads", tp_degree=5)
        [diag] = linter.rule_heads_tp(cfg)
        assert diag.severity == Severity.ERROR
        assert diag.rule_id == "shape/heads-tp-divisible"


class TestPipelineRule:
    def test_disabled_at_one_stage(self, linter):
        assert linter.rule_layers_pipeline(get_model("gpt3-2.7b"), 1) == []

    def test_indivisible_layers_warn(self, linter):
        diags = linter.rule_layers_pipeline(get_model("gpt3-2.7b"), 5)
        [diag] = diags
        assert diag.severity == Severity.WARNING
        assert diag.fixit.suggested % 5 == 0

    def test_divisible_layers_ok(self, linter):
        [diag] = linter.rule_layers_pipeline(get_model("gpt3-2.7b"), 4)
        assert diag.severity == Severity.OK


class TestGrid:
    def test_lint_grid_aggregates(self, linter):
        configs = [get_model("c2"), get_model("gpt-neo-2.7b")]
        report = linter.lint_grid(configs)
        assert report.exit_code == 1
        paths = {d.location.config_path for d in report.findings()}
        assert any(p.startswith("gpt-neo-2.7b") for p in paths)

    def test_diagnostics_carry_paper_refs(self, linter):
        report = linter.lint(get_model("gpt-neo-2.7b"))
        assert all(d.paper_ref for d in report.findings())


class TestMemoryCapacityRule:
    """The trainstep-backed capacity advisory (always OK-level: the
    linter judges shapes; the planner's CapacityError enforces)."""

    def _diags(self, linter, name, **kw):
        return linter.rule_memory_capacity(get_model(name, **kw))

    def test_small_model_fits_outright(self, linter):
        [diag] = self._diags(linter, "pythia-160m")
        assert diag.severity == Severity.OK
        assert "fits" in diag.message
        assert diag.paper_ref == "Sec VII-A"

    def test_checkpointing_rescue_is_advisory(self, linter):
        # c2 at t=4 fits only with full checkpointing on one A100.
        [diag] = self._diags(linter, "c2", tp_degree=4)
        assert diag.severity == Severity.OK
        assert "checkpointing" in diag.message

    def test_cannot_fit_suggests_min_tensor_degree(self, linter):
        [diag] = self._diags(linter, "gpt3-13b")
        assert diag.severity == Severity.OK
        assert diag.fixit is not None
        assert diag.fixit.field == "tp_degree"
        suggested = diag.fixit.suggested
        assert suggested > 1 and suggested & (suggested - 1) == 0
        # The suggestion must actually fit (with checkpointing).
        from repro.core.memory import MemoryBudget
        from repro.trainstep.memory import estimate_memory

        cfg = get_model("gpt3-13b")
        trial = estimate_memory(cfg, tp=suggested, checkpointing="full")
        assert trial.fits(MemoryBudget.for_gpu("A100"))

    def test_advisory_never_raises_exit_code(self, linter):
        for name in ("pythia-160m", "gpt3-13b", "gpt3-175b"):
            report = linter.lint(get_model(name))
            assert report.exit_code == 0, report.render_text()

    def test_advisory_visible_at_min_severity_ok(self, linter):
        report = linter.lint(get_model("gpt3-13b"))
        assert "memory-capacity" not in report.render_text(Severity.INFO)
        assert "memory-capacity" in report.render_text(Severity.OK)
