"""Tests for the experiment runner."""

import pytest

from repro.analysis.diagnostics import Severity
from repro.errors import ExperimentError
from repro.harness.runner import run_all, run_experiment, summary


class TestRunExperiment:
    def test_report_fields(self):
        rep = run_experiment("fig14")
        assert rep.id == "fig14"
        assert rep.passed
        assert len(rep.table) > 0

    def test_render_contains_status_and_check(self):
        rep = run_experiment("fig14")
        text = rep.render()
        assert "[PASS]" in text
        assert "check:" in text

    def test_render_truncates(self):
        rep = run_experiment("fig20")
        text = rep.render(max_rows=5)
        assert "more rows" in text

    def test_unknown_raises(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig999")


class TestPreflightLint:
    def test_experiment_without_configs_has_no_lint(self):
        rep = run_experiment("fig14")
        assert rep.lint is None
        assert rep.lint_warnings == 0

    def test_fig1_preflight_flags_inefficient_shapes(self):
        # fig1 deliberately sweeps the paper's bad shapes (gpt3-2.7b
        # h/a=80 and c1 h/a=40): the preflight must warn without
        # blocking the run.
        rep = run_experiment("fig1")
        assert rep.passed
        assert rep.lint is not None
        assert rep.lint_warnings >= 2
        assert "lint:" in rep.render()

    def test_pythia_preflight_flags_only_2_8b(self):
        # Most of the Pythia suite was sized by these rules; the one
        # exception is pythia-2.8b, which copies GPT-3 2.7B's h/a=80.
        rep = run_experiment("fig13")
        assert rep.lint is not None
        flagged = {
            d.location.config_path
            for d in rep.lint.findings(Severity.WARNING)
        }
        assert flagged == {"pythia-2.8b.num_heads"}


class TestRunAll:
    def test_subset(self):
        reports = run_all(["fig14", "table2"])
        assert [r.id for r in reports] == ["fig14", "table2"]
        assert all(r.passed for r in reports)

    def test_summary_format(self):
        reports = run_all(["fig14", "table2"])
        text = summary(reports)
        assert "2/2 experiments" in text
        assert "PASS" in text

    def test_report_carries_run_stats(self):
        (rep,) = run_all(["fig5"])
        assert rep.wall_time_s > 0
        assert rep.engine_hits + rep.engine_misses > 0
        assert "wall time:" in rep.render()


class TestRunAllParallel:
    IDS = ["fig14", "fig5", "table2", "fig20"]

    def test_matches_serial(self):
        serial = run_all(self.IDS)
        parallel = run_all(self.IDS, parallel=3)
        assert [r.id for r in parallel] == [r.id for r in serial]
        assert [r.passed for r in parallel] == [r.passed for r in serial]
        for s, p in zip(serial, parallel):
            assert str(s.table) == str(p.table)

    def test_invalid_parallel_raises(self):
        with pytest.raises(ExperimentError):
            run_all(["fig14"], parallel=0)

    def test_unknown_executor_raises(self):
        with pytest.raises(ExperimentError):
            run_all(["fig14"], parallel=2, executor="fiber")
