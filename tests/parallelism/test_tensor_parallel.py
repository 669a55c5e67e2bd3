"""Tests for Megatron-style tensor parallel sharding and cost."""

import pytest

from repro.core.config import get_model, list_models
from repro.core.gemms import tp_problem
from repro.errors import ParallelismError
from repro.parallelism.tensor_parallel import (
    TensorParallelLayer,
    validate_tp_feasible,
)


@pytest.fixture(scope="module")
def tp():
    return TensorParallelLayer("aws-p4d")


@pytest.fixture(scope="module")
def cfg():
    return get_model("gpt3-6.7b")  # h=4096, a=32


class TestFeasibility:
    def test_power_of_two_degrees_ok(self, cfg):
        for t in (1, 2, 4, 8):
            validate_tp_feasible(cfg, t)

    def test_t6_infeasible_for_2560(self):
        # The Sec VII-A problem: 2560 % 6 != 0, 32 heads % 6 != 0.
        with pytest.raises(ParallelismError, match="infeasible TP"):
            validate_tp_feasible(get_model("gpt3-2.7b"), 6)

    def test_heads_constraint(self):
        cfg = get_model("gpt3-2.7b").with_overrides(num_heads=20)
        with pytest.raises(ParallelismError, match="a=20"):
            validate_tp_feasible(cfg, 8)

    def test_nonpositive_raises(self, cfg):
        with pytest.raises(ParallelismError):
            validate_tp_feasible(cfg, 0)

    @pytest.mark.parametrize("model", list_models(), ids=lambda c: c.name)
    def test_one_rule_matches_both_former_rules(self, model):
        # The advisor's and the planner's former rules, restated: config
        # validation (h % a == 0) makes their extra clauses redundant.
        b, h, a, kv, d_ff = (
            model.microbatch, model.hidden_size, model.num_heads,
            model.kv_heads, model.d_ff,
        )
        for t in range(1, 17):
            advisor_ok = not (a % t or kv % t or (3 * h) % t or d_ff % t)
            planner_ok = not (a % t or h % t or kv % t or d_ff % t or (b * a) % t)
            assert advisor_ok == planner_ok
            assert (tp_problem(model, t) is None) == advisor_ok, t
            sharded_ok = tp_problem(model.with_overrides(tp_degree=t)) is None
            assert sharded_ok == advisor_ok, t


class TestSharding:
    def test_rank_gemms_match_table2(self, tp, cfg):
        rows = dict(zip(*tp.latency_model.layer_rows(cfg, 4)))
        assert rows["qkv_transform"][2] == 3 * 4096 // 4
        assert rows["mlp_h_to_4h"][2] == 4 * 4096 // 4
        assert rows["attention_score"][0] == cfg.microbatch * 32 // 4


class TestCost:
    def test_compute_shrinks_with_t(self, tp, cfg):
        c1 = tp.layer_cost(cfg, 1)
        c4 = tp.layer_cost(cfg, 4)
        assert c4.compute_s < c1.compute_s

    def test_comm_zero_at_t1(self, tp, cfg):
        assert tp.layer_cost(cfg, 1).comm_s == 0.0

    def test_comm_positive_beyond_t1(self, tp, cfg):
        cost = tp.layer_cost(cfg, 4)
        assert cost.comm_s > 0
        assert 0 < cost.comm_fraction < 1

    def test_total_is_sum(self, tp, cfg):
        cost = tp.layer_cost(cfg, 2)
        assert cost.total_s == pytest.approx(cost.compute_s + cost.comm_s)

    def test_layer_costs_skips_infeasible(self, tp):
        table = tp.layer_costs(get_model("gpt3-2.7b"), [1, 2, 3, 4, 6, 8])
        assert set(table) == {1, 2, 4, 8}  # 3 and 6 dropped

    def test_diminishing_returns(self, tp, cfg):
        # Per the paper ("t should be as small as possible"): per-rank
        # speedup from doubling t is sublinear because comm grows and
        # GEMMs shrink into less efficient regimes.
        t1 = tp.layer_cost(cfg, 1).total_s
        t8 = tp.layer_cost(cfg, 8).total_s
        assert t8 > t1 / 8
