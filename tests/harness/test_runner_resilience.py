"""Resilient sweep tests: isolation, retries, timeouts, resume.

Covers the PR's acceptance scenario: a ``run_all`` sweep with an
injected worker exception and an injected timeout completes, reports
the two failures as per-experiment error outcomes (with retry counts)
while every other experiment passes; and a checkpointed sweep killed
mid-run resumes executing only the unfinished experiments.
"""

import pytest

from repro.errors import ExperimentError
from repro.harness.runner import (
    run_all,
    run_all_resilient,
    summary,
    sweep_journal,
    validate_ids,
)
from repro.resilience.execute import RetryPolicy
from repro.resilience.faults import FaultPlan, FaultSpec, clear_plan, injected

IDS = ["fig14", "fig5", "table2", "fig20"]


@pytest.fixture(autouse=True)
def no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


class TestValidateIds:
    def test_valid_ids_canonicalized(self):
        assert validate_ids(["  FIG14", "table2 "]) == ["fig14", "table2"]

    def test_all_unknown_ids_reported_in_one_error(self):
        with pytest.raises(ExperimentError) as err:
            validate_ids(["fig14", "fig998", "tabel2"])
        message = str(err.value)
        assert "fig998" in message and "tabel2" in message
        assert "unknown experiment id(s)" in message

    def test_close_match_suggested(self):
        with pytest.raises(ExperimentError, match="did you mean"):
            validate_ids(["tabel2"])

    def test_unknown_id_fails_before_any_work(self):
        # The sweep itself must reject typos up front, not mid-run.
        with pytest.raises(ExperimentError, match="fig999"):
            run_all(["fig14", "fig999"])


class TestFailureIsolation:
    def test_acceptance_sweep_with_crash_and_timeout(self):
        # times=0 = persistent fault: retries are exhausted, so the
        # failure surfaces with its attempt count.
        plan = FaultPlan([
            FaultSpec(site="runner.experiment", match="fig5", times=0,
                      exception="RuntimeError", message="worker crash"),
            FaultSpec(site="runner.experiment", match="fig20", times=0,
                      kind="delay", delay_s=5.0),
        ])
        with injected(plan):
            result = run_all_resilient(
                IDS, retries=1, timeout_s=0.3, parallel=2,
                policy=RetryPolicy(retries=1, backoff_s=0.0),
            )

        assert [r.id for r in result.reports] == IDS
        assert not result.passed
        by_id = {r.id: r for r in result.reports}

        crashed = by_id["fig5"]
        assert crashed.error_type == "RuntimeError"
        assert "worker crash" in crashed.error
        assert crashed.attempts == 2 and crashed.retries == 1
        assert not crashed.passed

        timed_out = by_id["fig20"]
        assert timed_out.error_type == "TaskTimeoutError"
        assert timed_out.attempts == 2
        assert not timed_out.passed

        for healthy in ("fig14", "table2"):
            assert by_id[healthy].passed, healthy
            assert by_id[healthy].error is None

        assert {r.id for r in result.failures()} == {"fig5", "fig20"}

    def test_transient_fault_retried_to_success(self):
        # times=1 = one-shot fault: the retry succeeds and the sweep
        # passes, recording the extra attempt.
        plan = FaultPlan([
            FaultSpec(site="runner.experiment", match="fig5", times=1),
        ])
        with injected(plan):
            result = run_all_resilient(
                ["fig14", "fig5"],
                policy=RetryPolicy(retries=2, backoff_s=0.0),
            )
        assert result.passed
        by_id = {r.id: r for r in result.reports}
        assert by_id["fig5"].attempts == 2
        assert by_id["fig14"].attempts == 1

    def test_run_all_routes_to_resilient_path(self):
        plan = FaultPlan([
            FaultSpec(site="runner.experiment", match="fig5", times=0),
        ])
        with injected(plan):
            # Legacy signature/return type: a plain report list, with
            # the failure folded in instead of raised.
            reports = run_all(["fig14", "fig5"], retries=0, isolate=True)
        assert [r.id for r in reports] == ["fig14", "fig5"]
        assert reports[0].passed
        assert reports[1].error_type == "FaultInjectionError"

    def test_without_resilience_args_failures_still_raise(self):
        # The legacy path is unchanged: no resilience flag, no isolation.
        plan = FaultPlan([
            FaultSpec(site="runner.experiment", match="fig5", times=0),
        ])
        with injected(plan):
            with pytest.raises(Exception):
                run_all(["fig5"])

    def test_summary_renders_error_outcomes(self):
        plan = FaultPlan([
            FaultSpec(site="runner.experiment", match="fig5", times=0),
        ])
        with injected(plan):
            result = run_all_resilient(["fig14", "fig5"])
        text = summary(result.reports)
        assert "ERROR" in text
        assert "FaultInjectionError" in text
        assert "1 attempt(s)" in text
        assert "1 failed with errors" in text


class TestCheckpointResume:
    def test_resume_reexecutes_only_unfinished(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"

        # First run dies on fig5 every time: the journal ends up with
        # three ok units and one failure — the same on-disk state a
        # sweep killed right after fig5's failure would leave.
        plan = FaultPlan([
            FaultSpec(site="runner.experiment", match="fig5", times=0),
        ])
        first_journal = sweep_journal(journal_path, IDS)
        with injected(plan):
            first = run_all_resilient(IDS, journal=first_journal)
        assert not first.passed
        ok_ids = {
            e["id"] for e in first_journal.entries() if e["status"] == "ok"
        }
        assert ok_ids == {"fig14", "table2", "fig20"}

        # Resume without the fault: only fig5 is re-executed.
        resumed_journal = sweep_journal(journal_path, IDS, resume=True)
        assert resumed_journal.completed() == ok_ids
        result = run_all_resilient(IDS, journal=resumed_journal)

        assert result.passed
        assert sorted(result.skipped) == sorted(ok_ids)
        assert [o.task_id for o in result.outcomes] == ["fig5"]

        # Journal inspection: restored ids were recorded exactly once;
        # fig5 has its failure and then its successful re-execution.
        entries = resumed_journal.entries()
        per_id = {i: [e for e in entries if e["id"] == i] for i in IDS}
        for restored in ok_ids:
            assert len(per_id[restored]) == 1, restored
        assert [e["status"] for e in per_id["fig5"]] == ["failed", "ok"]

        # Restored reports are flagged; re-run report is organic.
        by_id = {r.id: r for r in result.reports}
        assert by_id["fig14"].restored
        assert not by_id["fig5"].restored

    def test_resume_with_different_sweep_refuses(self, tmp_path):
        from repro.errors import CheckpointError

        path = tmp_path / "sweep.jsonl"
        sweep_journal(path, IDS)
        with pytest.raises(CheckpointError, match="sweep"):
            sweep_journal(path, ["fig14"], resume=True)

    def test_fully_completed_journal_skips_everything(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ids = ["fig14", "table2"]
        journal = sweep_journal(path, ids)
        run_all_resilient(ids, journal=journal)

        resumed = sweep_journal(path, ids, resume=True)
        result = run_all_resilient(ids, journal=resumed)
        assert result.outcomes == []
        assert sorted(result.skipped) == sorted(ids)
        assert result.passed
        assert all(r.restored for r in result.reports)
        assert "[restored]" in summary(result.reports)

    def test_journal_records_attempts(self, tmp_path):
        plan = FaultPlan([
            FaultSpec(site="runner.experiment", match="fig14", times=1),
        ])
        journal = sweep_journal(tmp_path / "j.jsonl", ["fig14"])
        with injected(plan):
            run_all_resilient(
                ["fig14"], journal=journal,
                policy=RetryPolicy(retries=1, backoff_s=0.0),
            )
        entry = journal.entry_for("fig14")
        assert entry["status"] == "ok"
        assert entry["attempts"] == 2
