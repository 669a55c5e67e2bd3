"""Tests for the shared lint diagnostics framework."""

import json

from repro.analysis.diagnostics import (
    FixIt,
    LintDiagnostic,
    LintReport,
    Location,
    Severity,
)


def diag(rule="shape/x", sev=Severity.WARNING, fixit=None):
    return LintDiagnostic(
        rule, sev, "msg", Location(config_path="m.field"), fixit=fixit
    )


class TestLocation:
    def test_config_path(self):
        assert Location(config_path="m.vocab_size").describe() == "m.vocab_size"

    def test_file_line_column(self):
        loc = Location(file="a.py", line=3, column=7)
        assert loc.describe() == "a.py:3:7"
        assert Location(file="a.py", line=3).describe() == "a.py:3"
        assert Location(file="a.py").describe() == "a.py"

    def test_unknown(self):
        assert Location().describe() == "<unknown>"

    def test_to_dict_drops_none(self):
        assert Location(file="a.py", line=2).to_dict() == {"file": "a.py", "line": 2}


class TestFixIt:
    def test_speedup(self):
        fx = FixIt("f", 1, 2, latency_before_s=2e-3, latency_after_s=1e-3)
        assert fx.speedup == 2.0

    def test_speedup_none_without_latencies(self):
        assert FixIt("f", 1, 2).speedup is None

    def test_describe_quantified(self):
        fx = FixIt(
            "vocab_size", 50257, 50304,
            latency_before_s=4e-3, latency_after_s=1e-3, note="pad",
        )
        text = fx.describe()
        assert "set vocab_size = 50304 (from 50257)" in text
        assert "4.00x" in text
        assert "[pad]" in text

    def test_describe_structural(self):
        assert FixIt("t", 6, 4).describe() == "set t = 4 (from 6)"


class TestLintReport:
    def test_exit_code_contract(self):
        assert LintReport("t").exit_code == 0
        assert LintReport("t", [diag(sev=Severity.OK)]).exit_code == 0
        assert LintReport("t", [diag(sev=Severity.INFO)]).exit_code == 0
        assert LintReport("t", [diag(sev=Severity.WARNING)]).exit_code == 1
        assert (
            LintReport(
                "t", [diag(sev=Severity.WARNING), diag(sev=Severity.ERROR)]
            ).exit_code
            == 2
        )

    def test_findings_sorted_worst_first(self):
        rep = LintReport(
            "t",
            [
                diag("shape/b", Severity.INFO),
                diag("shape/a", Severity.ERROR),
                diag("shape/c", Severity.WARNING),
            ],
        )
        assert [d.rule_id for d in rep.findings()] == [
            "shape/a", "shape/c", "shape/b",
        ]

    def test_findings_min_severity(self):
        rep = LintReport(
            "t", [diag(sev=Severity.INFO), diag(sev=Severity.WARNING)]
        )
        assert len(rep.findings(Severity.WARNING)) == 1

    def test_ok_diagnostics_hidden_by_default(self):
        rep = LintReport("t", [diag(sev=Severity.OK)])
        assert rep.findings() == []
        assert "clean" in rep.render_text()

    def test_render_text(self):
        rep = LintReport("target-name", [diag(sev=Severity.WARNING)])
        text = rep.render_text()
        assert text.startswith("lint: target-name")
        assert "[WARNING] shape/x" in text
        assert "result: 1 warning (exit 1)" in text

    def test_to_json_round_trips(self):
        fx = FixIt("f", 1, 2, latency_before_s=2e-3, latency_after_s=1e-3)
        rep = LintReport("t", [diag(fixit=fx)])
        payload = json.loads(rep.to_json())
        assert payload["exit_code"] == 1
        assert payload["worst"] == "WARNING"
        assert payload["counts"]["WARNING"] == 1
        [d] = payload["diagnostics"]
        assert d["rule_id"] == "shape/x"
        assert d["fixit"]["speedup"] == 2.0


def src_diag(rule, sev, file, line, column, message="msg"):
    return LintDiagnostic(
        rule, sev, message, Location(file=file, line=line, column=column)
    )


class TestDeterministicOrdering:
    CORPUS = [
        src_diag("flow/unit-mismatch", Severity.ERROR, "b.py", 10, 4),
        src_diag("flow/unit-mismatch", Severity.ERROR, "a.py", 10, 4),
        src_diag("flow/unit-compare", Severity.ERROR, "a.py", 10, 4),
        src_diag("flow/unit-mismatch", Severity.ERROR, "a.py", 10, 2),
        src_diag("flow/unit-mismatch", Severity.ERROR, "a.py", 3, 9),
        src_diag("self/x", Severity.WARNING, "a.py", 1, 0),
        src_diag("flow/unit-mismatch", Severity.ERROR, "a.py", 10, 4, "zz"),
        diag("shape/x", Severity.WARNING),
    ]

    def test_fully_deterministic_under_shuffled_insertion(self):
        import random

        baseline = LintReport("t", list(self.CORPUS)).findings()
        for seed in range(10):
            shuffled = list(self.CORPUS)
            random.Random(seed).shuffle(shuffled)
            assert LintReport("t", shuffled).findings() == baseline

    def test_key_precedence(self):
        ordered = LintReport("t", list(self.CORPUS)).findings()
        keys = [
            (
                d.severity,
                d.location.file or d.location.config_path,
                d.location.line,
                d.location.column,
                d.rule_id,
                d.message,
            )
            for d in ordered
        ]
        # severity desc, then path, line, column, rule id, message.
        assert keys == [
            (Severity.ERROR, "a.py", 3, 9, "flow/unit-mismatch", "msg"),
            (Severity.ERROR, "a.py", 10, 2, "flow/unit-mismatch", "msg"),
            (Severity.ERROR, "a.py", 10, 4, "flow/unit-compare", "msg"),
            (Severity.ERROR, "a.py", 10, 4, "flow/unit-mismatch", "msg"),
            (Severity.ERROR, "a.py", 10, 4, "flow/unit-mismatch", "zz"),
            (Severity.ERROR, "b.py", 10, 4, "flow/unit-mismatch", "msg"),
            (Severity.WARNING, "a.py", 1, 0, "self/x", "msg"),
            (Severity.WARNING, "m.field", None, None, "shape/x", "msg"),
        ]


class TestSarif:
    def test_minimal_envelope(self):
        rep = LintReport("t", [src_diag("flow/x", Severity.ERROR, "a.py", 3, 7)])
        log = json.loads(rep.to_sarif())
        assert log["version"] == "2.1.0"
        assert "sarif-2.1.0" in log["$schema"]
        [run] = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"

    def test_result_levels_map_severities(self):
        rep = LintReport(
            "t",
            [
                src_diag("r/e", Severity.ERROR, "a.py", 1, 0),
                src_diag("r/w", Severity.WARNING, "a.py", 2, 0),
                src_diag("r/i", Severity.INFO, "a.py", 3, 0),
            ],
        )
        results = json.loads(rep.to_sarif())["runs"][0]["results"]
        assert [r["level"] for r in results] == ["error", "warning", "note"]

    def test_columns_are_one_based(self):
        rep = LintReport("t", [src_diag("r/x", Severity.ERROR, "a.py", 3, 0)])
        [result] = json.loads(rep.to_sarif())["runs"][0]["results"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 3
        assert region["startColumn"] == 1  # ast column 0 -> SARIF column 1

    def test_rules_deduplicated_and_indexed(self):
        rep = LintReport(
            "t",
            [
                src_diag("r/a", Severity.ERROR, "a.py", 1, 0),
                src_diag("r/a", Severity.ERROR, "a.py", 2, 0),
                src_diag("r/b", Severity.ERROR, "a.py", 3, 0),
            ],
        )
        run = json.loads(rep.to_sarif())["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == ["r/a", "r/b"]
        for result in run["results"]:
            assert (
                rule_ids[result["ruleIndex"]] == result["ruleId"]
            )

    def test_config_path_becomes_logical_location(self):
        rep = LintReport("t", [diag("shape/x", Severity.WARNING)])
        [result] = json.loads(rep.to_sarif())["runs"][0]["results"]
        [loc] = result["locations"]
        assert loc["logicalLocations"][0]["fullyQualifiedName"] == "m.field"
        assert "physicalLocation" not in loc

    def test_fixit_folded_into_message(self):
        fx = FixIt("vocab_size", 50257, 50304)
        rep = LintReport("t", [diag("shape/x", Severity.WARNING, fixit=fx)])
        [result] = json.loads(rep.to_sarif())["runs"][0]["results"]
        assert "set vocab_size = 50304" in result["message"]["text"]

    def test_min_severity_filters(self):
        rep = LintReport(
            "t",
            [
                src_diag("r/e", Severity.ERROR, "a.py", 1, 0),
                src_diag("r/i", Severity.INFO, "a.py", 2, 0),
            ],
        )
        run = json.loads(rep.to_sarif(Severity.WARNING))["runs"][0]
        assert len(run["results"]) == 1
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["r/e"]
