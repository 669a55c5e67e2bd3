"""Smoke tests for every CLI verb."""

import pytest

from repro.cli import main


class TestAnalyze:
    def test_basic(self, capsys):
        assert main(["analyze", "gpt3-2.7b"]) == 0
        out = capsys.readouterr().out
        assert "GEMM share" in out and "tokens/s" in out

    def test_flash_flag(self, capsys):
        assert main(["analyze", "gpt3-2.7b", "--flash"]) == 0
        assert "FlashAttention" in capsys.readouterr().out

    def test_gpu_flag(self, capsys):
        assert main(["analyze", "pythia-1b", "--gpu", "V100"]) == 0
        assert "V100" in capsys.readouterr().out

    def test_unknown_model_errors(self, capsys):
        assert main(["analyze", "gpt9"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRules:
    def test_basic(self, capsys):
        # h/a = 80 warns, so lint exits 1; --min-severity ok also lists
        # the passing checks.
        assert main(["lint", "gpt3-2.7b", "--min-severity", "ok"]) == 1
        out = capsys.readouterr().out
        assert "shape/head-alignment" in out
        assert "shape/tokens-alignment" in out

    def test_pipeline_stages(self, capsys):
        assert main(["lint", "gpt3-2.7b", "--pipeline-stages", "5"]) == 1
        assert "shape/layers-pipeline" in capsys.readouterr().out

    def test_rules_verb_is_gone(self):
        with pytest.raises(SystemExit):
            main(["rules", "gpt3-2.7b"])


class TestAdvise:
    def test_basic(self, capsys):
        assert main(["advise", "gpt3-2.7b", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "#1" in out


class TestFigure:
    def test_table_output(self, capsys):
        assert main(["figure", "fig14"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_csv_output(self, capsys):
        assert main(["figure", "fig14", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ordering,n,tflops")

    def test_check_only(self, capsys):
        assert main(["figure", "fig14", "--check"]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_plot_output(self, capsys):
        assert main(["figure", "fig12", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "tflops" in out and "check: PASS" in out

    def test_unknown_figure_errors(self, capsys):
        assert main(["figure", "fig999"]) == 2


class TestListings:
    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "case_swiglu" in out

    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        assert "gpt3-2.7b" in capsys.readouterr().out

    def test_list_gpus(self, capsys):
        assert main(["list-gpus"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out and "MI250X" in out


class TestGemm:
    def test_basic(self, capsys):
        assert main(["gemm", "4096", "4096", "64"]) == 0
        out = capsys.readouterr().out
        assert "roofline" in out and "selected" in out

    def test_batched_misaligned(self, capsys):
        assert main(["gemm", "2048", "2048", "80", "--batch", "128"]) == 0
        out = capsys.readouterr().out
        assert "memory-bound" in out
        assert "pow2(m, n, k) = (2048, 2048, 16)" in out

    def test_dtype_flag(self, capsys):
        assert main(["gemm", "1024", "1024", "1024", "--dtype", "fp32"]) == 0


class TestUnknownDtype:
    """An unknown --dtype is a usage error: ``error: ...`` and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [["gemm", "5", "5", "5", "--dtype", "int3"], ["tune-kernels", "--dtype", "int3"]],
        ids=["gemm", "tune-kernels"],
    )
    def test_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: unknown dtype 'int3'" in err
        assert "Traceback" not in err


class TestWhatIf:
    def test_ranks_knobs(self, capsys):
        assert main(["whatif", "gpt-neo-2.7b"]) == 0
        out = capsys.readouterr().out
        assert "heads" in out and "vocabulary" in out
        # Heads must rank first (largest payoff for this model).
        knob_lines = [
            line
            for line in out.splitlines()
            if line.split() and line.split()[0] in
            ("heads", "vocabulary", "microbatch", "hidden", "swiglu_width")
        ]
        assert knob_lines[0].startswith("heads")


class TestReport:
    def test_stdout_subset(self, capsys):
        assert main(["report", "--ids", "fig14"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "`fig14`" in out

    def test_file_output(self, capsys, tmp_path):
        path = tmp_path / "rep.md"
        assert main(["report", "--ids", "fig14", "--output", str(path)]) == 0
        assert "# Reproduction report" in path.read_text()


class TestBench:
    def test_quick_bench_writes_record(self, capsys, tmp_path):
        import json

        path = tmp_path / "bench.json"
        assert (
            main(
                ["bench", "--quick", "--parallel", "2",
                 "--ids", "fig14", "fig5", "--output", str(path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "parity: OK" in out
        assert "benchmark: PASS" in out
        record = json.loads(path.read_text())
        assert record["passed"]
        assert record["parity"]["mismatches"] == 0
        assert record["checks_passed"] == record["checks_total"] == 2
        assert record["parallel"]["matches_serial"]
        assert {e["id"] for e in record["experiments"]} == {"fig14", "fig5"}

    def test_dash_output_skips_file(self, capsys):
        assert main(["bench", "--quick", "--ids", "fig14", "--output", "-"]) == 0
        assert "wrote" not in capsys.readouterr().out


class TestCalibrate:
    def _write_csv(self, tmp_path, bw=0.70):
        from repro.gpu.gemm_model import GemmModel

        gen = GemmModel("A100", bw_efficiency=bw)
        rows = ["m,n,k,latency_s"]
        for m, n, k in [(2048, 2048, 64), (4096, 4096, 128), (2048, 2048, 80)]:
            rows.append(f"{m},{n},{k},{gen.latency(m, n, k)}")
        path = tmp_path / "meas.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_recovers_bw_constant(self, tmp_path, capsys):
        path = self._write_csv(tmp_path, bw=0.70)
        assert main(["calibrate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "loaded 3 measurements" in out
        assert "bw_efficiency" in out
        bw_line = [l for l in out.splitlines() if l.startswith("bw_efficiency")][0]
        assert abs(float(bw_line.split("=")[1].split()[0]) - 0.70) < 0.03

    def test_missing_file_errors(self, capsys):
        assert main(["calibrate", "/nonexistent/meas.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_line_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n")
        assert main(["calibrate", str(path)]) == 2


class TestLint:
    def test_clean_preset_exits_zero(self, capsys):
        assert main(["lint", "c2"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_warning_preset_exits_one(self, capsys):
        assert main(["lint", "gpt-neo-2.7b"]) == 1
        out = capsys.readouterr().out
        assert "shape/vocab-divisible" in out
        assert "fix: set vocab_size" in out

    def test_json_output(self, capsys):
        import json

        assert main(["lint", "gpt-neo-2.7b", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        assert any(
            d["rule_id"] == "shape/vocab-divisible"
            for d in payload["diagnostics"]
        )

    def test_json_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(
            '{"name": "bad", "hidden_size": 2560, "num_heads": 32,'
            ' "num_layers": 32, "vocab_size": 50257, "tp_degree": 4}'
        )
        assert main(["lint", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "shape/head-alignment" in out
        assert "shape/vocab-divisible" in out

    def test_min_severity_filters(self, capsys):
        assert main(["lint", "gpt-neo-2.7b", "--min-severity", "error"]) == 1
        out = capsys.readouterr().out
        assert "shape/vocab-divisible" not in out

    def test_self_lint_repo_is_clean(self, capsys):
        assert main(["lint", "--self"]) == 0
        assert "self-lint" in capsys.readouterr().out

    def test_self_lint_fixture_fails(self, capsys):
        from pathlib import Path

        fixture = str(
            Path(__file__).parent
            / "analysis" / "fixtures" / "scalar_loop_violation.py"
        )
        assert main(["lint", "--self", fixture]) == 1
        assert "self/scalar-eval-in-loop" in capsys.readouterr().out

    def test_missing_target_errors(self, capsys):
        assert main(["lint"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_model_errors(self, capsys):
        assert main(["lint", "no-such-model"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_extra_positionals_without_self_error(self, capsys):
        assert main(["lint", "c2", "extra.py"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_flow_lint_repo_is_clean(self, capsys):
        assert main(["lint", "--flow"]) == 0
        assert "flow-lint" in capsys.readouterr().out

    def test_flow_lint_fixture_fails(self, capsys):
        from pathlib import Path

        fixture = str(
            Path(__file__).parent
            / "analysis" / "fixtures" / "flow_unit_violation.py"
        )
        assert main(["lint", "--flow", fixture]) == 2
        assert "flow/unit-mismatch" in capsys.readouterr().out

    def test_self_lint_includes_flow_rules(self, capsys):
        from pathlib import Path

        fixture = str(
            Path(__file__).parent
            / "analysis" / "fixtures" / "flow_unit_violation.py"
        )
        assert main(["lint", "--self", fixture]) == 2
        assert "flow/unit-mismatch" in capsys.readouterr().out

    def test_sarif_format(self, capsys):
        import json

        assert main(["lint", "gpt-neo-2.7b", "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        [run] = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert any(
            r["ruleId"] == "shape/vocab-divisible" for r in run["results"]
        )

    def test_sarif_format_flow(self, capsys):
        import json
        from pathlib import Path

        fixture = str(
            Path(__file__).parent
            / "analysis" / "fixtures" / "flow_unit_violation.py"
        )
        assert main(["lint", "--flow", fixture, "--format", "sarif"]) == 2
        [run] = json.loads(capsys.readouterr().out)["runs"]
        [result] = run["results"]
        assert result["ruleId"] == "flow/unit-mismatch"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startColumn"] >= 1


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestRun:
    def test_basic_sweep_passes(self, capsys):
        assert main(["run", "fig14", "table2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "2/2 experiments" in out

    def test_unknown_id_errors(self, capsys):
        assert main(["run", "fig999"]) == 2
        assert "unknown experiment id" in capsys.readouterr().err

    def test_resume_requires_journal(self, capsys):
        assert main(["run", "fig14", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_persistent_fault_fails_sweep(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"faults": [{"site": "runner.experiment", '
            '"match": "fig5", "times": 0}]}'
        )
        assert main(["run", "fig14", "fig5", "--inject-faults", str(plan)]) == 1
        out = capsys.readouterr().out
        assert "chaos mode" in out
        assert "ERROR" in out and "FaultInjectionError" in out
        assert "injected fault(s) fired" in out

    def test_transient_fault_absorbed_by_retry(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"faults": [{"site": "runner.experiment", '
            '"match": "fig5", "times": 1}]}'
        )
        assert main(
            ["run", "fig14", "fig5", "--inject-faults", str(plan),
             "--retries", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 attempts" in out
        assert "chaos: 1 injected fault(s) fired" in out

    def test_journal_then_resume(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"faults": [{"site": "runner.experiment", '
            '"match": "fig5", "times": 0}]}'
        )
        assert main(
            ["run", "fig14", "fig5", "--journal", str(journal),
             "--inject-faults", str(plan)]
        ) == 1
        capsys.readouterr()

        # Second invocation without faults: fig14 restored, fig5 re-run.
        assert main(
            ["run", "fig14", "fig5", "--journal", str(journal), "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert "resuming:" in out
        assert "[restored]" in out
        assert "1 experiment(s) restored from journal, 1 executed" in out

    def test_bad_fault_plan_errors(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"faults": [{"site": "x", "kind": "nuke"}]}')
        assert main(["run", "fig14", "--inject-faults", str(plan)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_timeout_flag(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"faults": [{"site": "runner.experiment", "match": "fig5", '
            '"kind": "delay", "delay_s": 5.0, "times": 0}]}'
        )
        assert main(
            ["run", "fig5", "--inject-faults", str(plan),
             "--timeout", "0.3"]
        ) == 1
        out = capsys.readouterr().out
        assert "TIMEOUT" in out and "TaskTimeoutError" in out


class TestCalibrateResume:
    def _write_csv(self, tmp_path):
        from repro.gpu.gemm_model import GemmModel

        gen = GemmModel("A100", bw_efficiency=0.70)
        rows = ["m,n,k,latency_s"]
        for m, n, k in [(2048, 2048, 64), (4096, 4096, 128), (2048, 2048, 80)]:
            rows.append(f"{m},{n},{k},{gen.latency(m, n, k)}")
        path = tmp_path / "meas.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_resume_requires_journal(self, tmp_path, capsys):
        path = self._write_csv(tmp_path)
        assert main(["calibrate", str(path), "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_journal_then_resume_skips_fits(self, tmp_path, capsys):
        path = self._write_csv(tmp_path)
        journal = tmp_path / "cal.jsonl"
        assert main(["calibrate", str(path), "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(
            ["calibrate", str(path), "--journal", str(journal), "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert "resuming:" in out
        assert "2 completed unit(s)" in out
        assert "bw_efficiency" in out


class TestObservability:
    def test_run_with_trace_streams_jsonl(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(["run", "fig14", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"span(s) written to {trace}" in out
        lines = trace.read_text().splitlines()
        assert lines
        names = {json.loads(line)["name"] for line in lines}
        assert "runner.experiment" in names
        assert "task.attempt" in names

    def test_run_with_metrics_prints_registry(self, capsys):
        assert main(["run", "fig14", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "runner.experiments" in out
        assert "tasks.attempts.ok" in out

    def test_traced_chaos_run_then_report(self, tmp_path, capsys):
        """The acceptance loop: trace a fault-injected journaled sweep,
        then `repro report trace.jsonl` aggregates it without error."""
        trace = tmp_path / "trace.jsonl"
        journal = tmp_path / "sweep.jsonl"
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"faults": [{"site": "runner.experiment", '
            '"match": "fig5", "times": 1}]}'
        )
        assert main(
            ["run", "fig14", "fig5", "--inject-faults", str(plan),
             "--retries", "2", "--journal", str(journal),
             "--trace", str(trace), "--metrics"]
        ) == 0
        capsys.readouterr()

        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        for phase in ("task", "runner", "fault", "journal"):
            assert phase in out, f"phase {phase!r} missing from report"
        assert "1 task(s) retried" in out
        assert "injected firing(s)" in out
        assert "checkpoint append(s)" in out

    def test_report_trace_honors_output_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "fig14", "--trace", str(trace)]) == 0
        capsys.readouterr()
        target = tmp_path / "report.txt"
        assert main(["report", str(trace), "--output", str(target)]) == 0
        assert "per-phase breakdown" in target.read_text()

    def test_report_missing_trace_errors(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_bench_quick_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "bench-trace.jsonl"
        code = main(["bench", "--quick", "--output", "-", "--trace", str(trace)])
        out = capsys.readouterr().out
        # On failure, name the check that flipped: parity, experiment
        # checks, or the warm-vs-cold wall-time comparison.
        verdict = [
            line for line in out.splitlines()
            if line.startswith(("parity:", "checks:", "warm regressions:"))
        ]
        assert code == 0, "\n".join(verdict)
        assert trace.exists()
        assert "span(s) written" in out

    def test_tracing_left_uninstalled_after_run(self, tmp_path):
        from repro.observability.tracing import current_recorder, tracing_enabled

        assert main(["run", "fig14", "--trace", str(tmp_path / "t.jsonl")]) == 0
        assert not tracing_enabled()
        assert current_recorder() is None


class TestFigureGolden:
    def test_update_golden_writes_snapshot(self, tmp_path, capsys):
        import json

        assert main(
            ["figure", "fig14", "--update-golden", "--golden-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote golden snapshot" in out
        snap = json.loads((tmp_path / "fig14.json").read_text())
        assert snap["experiment"] == "fig14"
        assert snap["checksums"]
