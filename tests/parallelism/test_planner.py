"""Tests for the (t, p, d) parallelism planner."""

import pytest

from repro.core.config import get_model
from repro.errors import ParallelismError
from repro.parallelism.planner import ParallelPlanner, _divisors


@pytest.fixture(scope="module")
def planner():
    return ParallelPlanner("aws-p4d")


class TestDivisors:
    def test_divisors(self):
        assert _divisors(12) == [1, 2, 3, 4, 6, 12]
        assert _divisors(1) == [1]


class TestEvaluate:
    def test_plan_fields(self, planner):
        plan = planner.evaluate(get_model("gpt3-6.7b", microbatch=1), 4, 2, 1)
        assert plan.gpus == 8
        assert plan.iteration_time_s > 0
        assert 0 <= plan.comm_fraction <= 1
        assert plan.balanced_pipeline  # 32 layers / 2 stages

    def test_infeasible_tp_raises(self, planner):
        with pytest.raises(ParallelismError):
            planner.evaluate(get_model("gpt3-2.7b"), 6, 1, 1)

    def test_too_many_stages_raises(self, planner):
        with pytest.raises(ParallelismError):
            planner.evaluate(get_model("pythia-70m"), 1, 16, 1)

    def test_describe(self, planner):
        plan = planner.evaluate(get_model("gpt3-6.7b", microbatch=1), 8, 1, 1)
        assert "t=8" in plan.describe()


class TestMemory:
    def test_large_model_needs_sharding(self, planner):
        cfg = get_model("gpt3-6.7b", microbatch=1)
        assert not planner.fits(cfg, 1, 1)  # 6.7B Adam states >> 40GB
        assert planner.fits(cfg, 8, 1) or planner.fits(cfg, 8, 2)

    def test_memory_decreases_with_sharding(self, planner):
        cfg = get_model("gpt3-6.7b", microbatch=1)
        assert planner.memory_per_gpu_bytes(cfg, 4, 2) < planner.memory_per_gpu_bytes(
            cfg, 1, 1
        )


class TestPlanning:
    def test_plans_sorted_fastest_first(self, planner):
        plans = planner.plan(get_model("gpt3-6.7b", microbatch=1), 16)
        assert len(plans) >= 1
        times = [p.iteration_time_s for p in plans]
        assert times == sorted(times)

    def test_all_plans_use_all_gpus(self, planner):
        for plan in planner.plan(get_model("gpt3-6.7b", microbatch=1), 16):
            assert plan.gpus == 16

    def test_tp_capped_at_node_size(self, planner):
        plans = planner.plan(get_model("gpt3-6.7b", microbatch=1), 32)
        assert all(p.tp <= 8 for p in plans)

    def test_best_returns_first(self, planner):
        cfg = get_model("gpt3-6.7b", microbatch=1)
        plans = planner.plan(cfg, 16)
        assert planner.best(cfg, 16) == plans[0]

    def test_require_fit_filters(self, planner):
        cfg = get_model("gpt3-6.7b", microbatch=1)
        strict = planner.plan(cfg, 8, require_fit=True)
        loose = planner.plan(cfg, 8, require_fit=False)
        assert len(loose) >= len(strict)
        assert all(p.fits_memory for p in strict)

    def test_nonpositive_gpus_raises(self, planner):
        with pytest.raises(ParallelismError):
            planner.plan(get_model("gpt3-6.7b"), 0)

    def test_evaluate_matches_plan_cell(self):
        """A fresh planner's public evaluate() scores each cell exactly
        as plan() does, with no layer-cost state carried between them."""
        cfg = get_model("gpt3-6.7b", microbatch=1)
        for plan in ParallelPlanner("aws-p4d").plan(cfg, 16):
            fresh = ParallelPlanner("aws-p4d")
            cell = fresh.evaluate(
                cfg, plan.tp, plan.pp, plan.dp, checkpointing=plan.checkpointing
            )
            assert cell == plan


class TestSummitCase:
    def test_summit_prefers_intra_node_tp(self):
        planner = ParallelPlanner("ornl-summit")
        cfg = get_model("gpt3-6.7b", microbatch=1).with_overrides(
            hidden_size=4096, num_heads=32
        )
        plans = planner.plan(cfg, 12, require_fit=False)
        assert plans, "no feasible plans found"
        # 4096 is not divisible by 6 -> t in {1, 2, 4} only.
        assert all(p.tp in (1, 2, 4) for p in plans)
