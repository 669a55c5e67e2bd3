"""Bench record shape: warm min-of-N sampling and the warm-regression gate."""

from repro.harness import bench
from repro.harness.bench import (
    REGRESSION_FACTOR,
    REGRESSION_SLACK_MS,
    _report_record,
    warm_regressions,
)
from repro.harness.compare import CheckResult
from repro.harness.results import ResultTable
from repro.harness.runner import ExperimentReport


def _report(exp_id: str, wall_s: float, **kw) -> ExperimentReport:
    return ExperimentReport(
        id=exp_id,
        title="t",
        paper_ref="ref",
        table=ResultTable("t", ["a"]),
        check=CheckResult(True, "ok"),
        wall_time_s=wall_s,
        **kw,
    )


class TestReportRecord:
    def test_warm_is_min_of_samples(self):
        rec = _report_record(
            _report("e", 0.010), _report("e", 0.009), _report("e", 0.004)
        )
        assert rec["warm_ms"] == 4.0
        assert rec["cold_ms"] == 10.0

    def test_engine_cache_fields_present(self):
        rec = _report_record(
            _report("e", 0.01, engine_hits=0, engine_misses=2),
            _report("e", 0.001, engine_hits=2, engine_misses=0),
        )
        assert rec["cold_engine_misses"] == 2
        assert rec["warm_engine_hits"] == 2


class TestWarmRegressionGate:
    def test_flags_warm_slower_than_cold(self):
        experiments = [
            {"id": "ok", "cold_ms": 10.0, "warm_ms": 1.0},
            {"id": "noisy_but_fine", "cold_ms": 0.5, "warm_ms": 0.6},
            {
                "id": "regressed",
                "cold_ms": 1.0,
                "warm_ms": 1.0 * REGRESSION_FACTOR + REGRESSION_SLACK_MS + 0.01,
            },
        ]
        assert warm_regressions(experiments) == ["regressed"]

    def test_tolerance_absorbs_sub_ms_noise(self):
        # The committed fig8 inversion: cold 0.612 ms, warm 1.365 ms
        # would have been flagged; min-of-3 warm sampling plus this
        # tolerance keeps honest sub-ms noise out of the gate while a
        # 2x-slower warm run on a >=1 ms experiment still trips it.
        assert warm_regressions(
            [{"id": "fig8", "cold_ms": 0.612, "warm_ms": 0.9}]
        ) == []
        assert warm_regressions(
            [{"id": "slow", "cold_ms": 5.0, "warm_ms": 10.0}]
        ) == ["slow"]


class TestPassedIsCorrectnessOnly:
    def test_warm_regression_is_listed_but_does_not_fail_the_record(self, monkeypatch):
        # Wall-time comparisons are gated by benchmarks/perf_gate.py;
        # ``passed`` covers parity, checks and parallel == serial.
        monkeypatch.setattr(bench, "warm_regressions", lambda experiments: ["fig14"])
        record = bench.run_bench(
            ids=["fig14"], quick=True, gpus=("A100",), dtypes=("fp16",)
        )
        assert record["warm_regressions"] == ["fig14"]
        assert record["parity"]["mismatches"] == 0
        assert record["passed"]
