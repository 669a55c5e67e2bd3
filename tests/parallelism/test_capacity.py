"""OOM-wall regression tests: the planner's typed capacity gate.

Satellite of the training-step estimator PR: a config known not to fit
at (t=1, p=1) must be rejected with a typed CapacityError naming the
overflowing phase, and accepted at the first (t, p) the estimator says
fits. Plus the embedding double-count regression under TP.
"""

import pytest

from repro.core.config import get_model
from repro.core.memory import MemoryBudget
from repro.core.training import ADAM_STATE_BYTES_PER_PARAM
from repro.errors import CapacityError, ParallelismError
from repro.parallelism.planner import ParallelPlanner, capacity_matrix
from repro.trainstep.memory import estimate_memory, module_param_elements


@pytest.fixture(scope="module")
def planner():
    return ParallelPlanner("aws-p4d")


@pytest.fixture(scope="module")
def cfg():
    return get_model("gpt3-6.7b", microbatch=1)


class TestCheckCapacity:
    def test_rejected_at_1_1_naming_phase(self, planner, cfg):
        with pytest.raises(CapacityError) as exc:
            planner.check_capacity(cfg, 1, 1)
        err = exc.value
        assert err.phase == "backward"
        assert err.required_bytes > err.budget_bytes
        assert "backward" in str(err)

    def test_accepted_at_first_fitting_cell(self, planner, cfg):
        """Walk the matrix in (t, p) order; the first cell the estimator
        says fits must pass check_capacity, everything before must not."""
        cells = capacity_matrix(planner, cfg)
        first_fit = next(c for c in cells if c["fits"])
        assert (first_fit["tp"], first_fit["pp"]) == (2, 2)
        report = planner.check_capacity(cfg, first_fit["tp"], first_fit["pp"])
        assert report.peak_bytes <= planner.budget().usable_bytes
        for cell in cells:
            if cell is first_fit:
                break
            assert not cell["fits"]

    def test_checkpointing_rescues_borderline_cell(self, planner, cfg):
        """(t=1, p=4) misses the budget by a hair without checkpointing."""
        with pytest.raises(CapacityError):
            planner.check_capacity(cfg, 1, 4)
        report = planner.check_capacity(cfg, 1, 4, checkpointing="full")
        assert report.fits(planner.budget())


class TestCapacityMatrix:
    def test_matrix_verdicts_match_budget(self, planner, cfg):
        budget_gb = planner.budget().usable_bytes / 1e9
        for cell in capacity_matrix(planner, cfg):
            assert cell["budget_gb"] == pytest.approx(budget_gb)
            if cell["fits"]:
                assert cell["peak_gb"] <= cell["budget_gb"]
                assert cell["phase"] == "backward"  # peak phase, informational
            else:
                assert cell["peak_gb"] > cell["budget_gb"]
                assert cell["phase"] == "backward"

    def test_matrix_monotone_in_t_and_p(self, planner, cfg):
        cells = {(c["tp"], c["pp"]): c["peak_gb"] for c in capacity_matrix(planner, cfg)}
        for (t, p), peak in cells.items():
            if (2 * t, p) in cells:
                assert cells[(2 * t, p)] <= peak
            if (t, 2 * p) in cells:
                assert cells[(t, 2 * p)] <= peak

    def test_kv_heads_indivisible_is_infeasible(self, planner):
        """MQA/GQA: t must divide kv_heads, the rule plan() enforces."""
        mqa = get_model("gpt3-2.7b").with_overrides(num_kv_heads=1)
        cells = {(c["tp"], c["pp"]): c for c in capacity_matrix(planner, mqa)}
        assert cells[(2, 1)]["phase"] == "infeasible"
        assert not cells[(2, 1)]["fits"]
        assert {plan.tp for plan in planner.plan(mqa, 8)} == {1}


class TestPlanRejectsOOM:
    def test_plan_never_returns_an_oom_plan(self, planner, cfg):
        """Acceptance criterion: every returned plan passes the memory
        model, and the paper's pick for 16 GPUs survives the wall."""
        plans = planner.plan(cfg, 16)
        budget = planner.budget()
        for plan in plans:
            report = estimate_memory(
                cfg, tp=plan.tp, pipeline_stages=plan.pp,
                checkpointing=plan.checkpointing,
            )
            assert report.fits(budget)
            assert plan.peak_memory_bytes == report.peak_bytes
        best = plans[0]
        assert (best.tp, best.pp, best.dp) == (4, 4, 1)

    def test_oom_cells_excluded_from_plans(self, planner, cfg):
        plans = planner.plan(cfg, 4)  # only (t,p) with t*p*d == 4
        assert all((p.tp, p.pp) != (1, 1) for p in plans)

    def test_auto_checkpointing_recovers_cells(self, planner, cfg):
        loose = planner.plan(cfg, 4, checkpointing="auto")
        strict = planner.plan(cfg, 4, checkpointing="none")
        assert len(loose) >= len(strict)
        recovered = {(p.tp, p.pp) for p in loose} - {(p.tp, p.pp) for p in strict}
        for t, p in recovered:
            assert not planner.fits(cfg, t, p, checkpointing="none")
            assert planner.fits(cfg, t, p, checkpointing="full")

    def test_infeasible_vs_oom_are_distinct_errors(self, planner, cfg):
        with pytest.raises(CapacityError):
            planner.check_capacity(cfg, 1, 1)
        with pytest.raises(ParallelismError) as exc:
            planner.evaluate(cfg, 6, 1, 1)  # 6 doesn't divide heads
        assert not isinstance(exc.value, CapacityError)


class TestEmbeddingDedupRegression:
    """Satellite 4: ``fits`` no longer double-counts the tied embedding."""

    def test_per_rank_bytes_exactly_adam_residency(self, planner):
        cfg = get_model("gpt3-2.7b", tp_degree=4)
        mem = estimate_memory(cfg, tp=4)
        resident = (
            mem.parameter_bytes + mem.gradient_bytes + mem.optimizer_state_bytes
        )
        assert resident == pytest.approx(
            cfg.param_count() / 4 * ADAM_STATE_BYTES_PER_PARAM, rel=1e-12
        )

    def test_naive_walk_overcounts_by_vocab_times_hidden(self):
        cfg = get_model("gpt3-2.7b")
        naive = module_param_elements(cfg, dedup_tied=False)
        dedup = module_param_elements(cfg)
        assert sum(naive.values()) - sum(dedup.values()) == (
            cfg.vocab_size * cfg.hidden_size
        )

    def test_double_count_is_material_to_verdicts(self, planner):
        """The double-count was worth ~2 GB/rank of Adam residency on
        gpt3-2.7b at t=1 — a meaningful slice of an A100's budget."""
        cfg = get_model("gpt3-2.7b")
        extra = cfg.vocab_size * cfg.hidden_size * ADAM_STATE_BYTES_PER_PARAM
        budget = MemoryBudget.for_gpu(planner.topology.gpu)
        assert extra > 2e9
        assert extra > 0.05 * budget.usable_bytes
