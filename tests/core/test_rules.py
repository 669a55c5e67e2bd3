"""Tests for the Sec VI-B sizing rules, run through the shape linter.

Each rule's severity on the paper's example shapes: aligned shapes pass,
``h/a = 80`` warns, sub-fragment divisibility and infeasible tensor
sharding are errors, and the advisory rules (``b*s`` alignment,
microbatch size, minimal ``t``) keep their thresholds.
"""

import pytest

from repro.analysis.diagnostics import FixIt, LintDiagnostic, Location, Severity
from repro.analysis.shape_rules import ShapeLinter
from repro.core.config import TransformerConfig, get_model


@pytest.fixture(scope="module")
def linter():
    return ShapeLinter("A100")


def only(diags):
    assert len(diags) == 1
    return diags[0]


class TestVocabRule:
    def test_aligned_ok(self, linter):
        cfg = get_model("gpt3-2.7b")  # v = 50304
        assert only(linter.rule_vocab(cfg)).severity == Severity.OK

    def test_gpt2_vocab_warns_and_suggests_50304(self, linter):
        cfg = get_model("gpt-neo-2.7b")  # v = 50257
        diag = only(linter.rule_vocab(cfg))
        assert diag.severity == Severity.WARNING
        assert diag.fixit is not None and diag.fixit.suggested == 50304


class TestHeadDimRule:
    def test_aligned_64_ok(self, linter):
        cfg = get_model("c2")  # h/a = 64
        assert only(linter.rule_head_alignment(cfg)).severity == Severity.OK

    def test_gpt3_2_7b_warns(self, linter):
        # The paper's marquee example: h/a = 80, pow2 = 16.
        cfg = get_model("gpt3-2.7b")
        diag = only(linter.rule_head_alignment(cfg))
        assert diag.severity == Severity.WARNING
        assert "80" in diag.message

    def test_sub_grain_is_error(self, linter):
        cfg = TransformerConfig(name="x", hidden_size=132, num_heads=33, num_layers=1)
        assert only(linter.rule_head_alignment(cfg)).severity == Severity.ERROR


class TestTPRules:
    def test_h_over_t_pow2(self, linter):
        cfg = get_model("gpt3-2.7b", tp_degree=8)  # 2560/8 = 320 = 64*5
        assert only(linter.rule_hidden_tp(cfg)).severity == Severity.OK

    def test_h_not_divisible_by_t_is_error(self, linter):
        cfg = TransformerConfig(
            name="x", hidden_size=2560, num_heads=32, num_layers=1, tp_degree=6
        )
        assert only(linter.rule_hidden_tp(cfg)).severity == Severity.ERROR

    def test_ba_over_t_integer(self, linter):
        ok = get_model("gpt3-2.7b", tp_degree=4)
        assert only(linter.rule_heads_tp(ok)).severity == Severity.OK

    def test_ba_over_t_fractional_is_error(self, linter):
        cfg = TransformerConfig(
            name="x",
            hidden_size=25,
            num_heads=5,
            num_layers=1,
            microbatch=1,
            tp_degree=3,
        )
        assert only(linter.rule_heads_tp(cfg)).severity == Severity.ERROR

    def test_tp_minimal_info(self, linter):
        for t in (2, 8):
            sharded = only(linter.rule_tp_minimal(get_model("gpt3-2.7b", tp_degree=t)))
            assert sharded.severity == Severity.INFO
            assert sharded.rule_id == "shape/tp-minimal"
        assert only(
            linter.rule_tp_minimal(get_model("gpt3-2.7b"))
        ).severity == Severity.OK


class TestOtherRules:
    def test_tokens_pow2_ok_for_pow2_seq(self, linter):
        diag = only(linter.rule_tokens_alignment(get_model("gpt3-2.7b")))
        assert diag.severity == Severity.OK
        assert diag.rule_id == "shape/tokens-alignment"

    def test_odd_microbatch_fine_with_pow2_seq(self, linter):
        # Sec VI-B: b itself needs no divisibility because s provides it.
        cfg = get_model("gpt3-2.7b", microbatch=3)
        assert only(linter.rule_tokens_alignment(cfg)).severity == Severity.OK

    @pytest.mark.parametrize(
        "seq_len, severity",
        [(2048, Severity.OK), (2056, Severity.WARNING), (2052, Severity.ERROR)],
    )
    def test_tokens_pow2_thresholds(self, linter, seq_len, severity):
        # b*s divisible by 64 passes, by 8 warns, by less errors.
        cfg = get_model("gpt3-2.7b", microbatch=1, seq_len=seq_len)
        assert only(linter.rule_tokens_alignment(cfg)).severity == severity

    def test_small_microbatch_info(self, linter):
        cfg = get_model("gpt3-2.7b", microbatch=1)
        diag = only(linter.rule_microbatch_size(cfg))
        assert diag.severity == Severity.INFO
        assert diag.rule_id == "shape/microbatch-size"
        assert diag.fixit is None
        big = get_model("gpt3-2.7b", microbatch=4)
        assert only(linter.rule_microbatch_size(big)).severity == Severity.OK

    def test_pipeline_divisibility(self, linter):
        cfg = get_model("gpt3-2.7b")  # L = 32
        ok = only(linter.rule_layers_pipeline(cfg, pipeline_stages=8))
        assert ok.severity == Severity.OK
        warn = only(linter.rule_layers_pipeline(cfg, pipeline_stages=5))
        assert warn.severity == Severity.WARNING

    def test_wave_quantization_reports_dense_gemms(self, linter):
        # Wave quantization is reported once, for the tile the engine
        # actually prices on the widest layer GEMM.
        diag = only(linter.rule_microbatch_wave(get_model("gpt3-2.7b")))
        assert diag.rule_id == "shape/microbatch-wave"
        assert "wave" in diag.message
        assert diag.severity in (Severity.OK, Severity.INFO)

    def test_dense_model_has_no_moe_finding(self, linter):
        assert linter.rule_moe_tokens(get_model("gpt3-2.7b")) == []

    @pytest.mark.parametrize(
        "microbatch, seq_len, severities",
        [
            (1, 512, [Severity.WARNING]),  # 128 tokens per expert
            (1, 4096, [Severity.OK]),  # 1024, 64-aligned
            (1, 1200, [Severity.INFO]),  # 300, not 64-aligned
            (3, 1001, [Severity.INFO, Severity.INFO]),  # 6006/8 ragged, 751
        ],
    )
    def test_moe_tokens_thresholds(self, linter, microbatch, seq_len, severities):
        cfg = get_model("mixtral-8x7b", microbatch=microbatch, seq_len=seq_len)
        diags = linter.rule_moe_tokens(cfg)
        assert [d.severity for d in diags] == severities
        assert {d.rule_id for d in diags} == {"shape/moe-tokens"}


class TestEngine:
    def test_check_sorted_worst_first(self, linter):
        diags = linter.lint(get_model("gpt-neo-2.7b")).findings(Severity.OK)
        sev = [d.severity for d in diags]
        assert sev == sorted(sev, reverse=True)

    def test_worst_severity(self, linter):
        assert linter.lint(get_model("gpt3-2.7b")).worst == Severity.WARNING
        assert linter.lint(get_model("c2")).worst <= Severity.INFO

    def test_report_contains_config_and_gpu(self):
        text = ShapeLinter("V100").lint(get_model("gpt3-2.7b")).render_text()
        assert "V100" in text and "gpt3-2.7b" in text

    def test_diagnostic_str(self):
        d = LintDiagnostic(
            "r",
            Severity.WARNING,
            "msg",
            Location(config_path="m.f"),
            fixit=FixIt("f", 1, 2, note="fix it"),
        )
        assert "WARNING" in str(d) and "fix it" in str(d)
