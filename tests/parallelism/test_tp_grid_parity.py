"""Differential wall: grid-priced TP/SP layer costs vs the scalar path.

``TensorParallelLayer.layer_costs`` prices every degree's per-rank rows
in one engine grid without building sharded configs; the references
below build each degree's shard config and price it through
``LayerLatencyModel.layer_breakdown``, then compose it as the
parallelism package always has, with FlashAttention off and on.
Every comparison is ``==``: the engine agrees with the scalar model
bit-for-bit and both paths merge components in the same order, so any
drift is a bug, not noise.
"""

from typing import Dict, Iterable

import pytest

from repro.core.config import get_model, list_models
from repro.errors import ParallelismError
from repro.parallelism.planner import ParallelPlanner
from repro.parallelism.sequence_parallel import (
    SequenceParallelLayer,
    SPLayerCost,
    validate_sp_feasible,
)
from repro.parallelism.tensor_parallel import (
    TensorParallelLayer,
    TPLayerCost,
    validate_tp_feasible,
)

SYSTEMS = ("aws-p4d", "ornl-summit", "sdsc-expanse")
DEGREES = (1, 2, 3, 4, 6, 8)
MODELS = [cfg.name for cfg in list_models()]


def _scalar_breakdown(layer: TensorParallelLayer, cfg, t: int):
    validate_tp_feasible(cfg, t)
    shard = cfg.with_overrides(name=f"{cfg.name}@tp{t}", tp_degree=t)
    return layer.latency_model.layer_breakdown(shard)


def _allreduce_pair_s(layer: TensorParallelLayer, cfg, t: int) -> float:
    activation_bytes = (
        cfg.microbatch * cfg.seq_len * cfg.hidden_size * layer.dtype.bytes
    )
    return 2 * layer.topology.comm_for(t).allreduce(activation_bytes, t)


def scalar_tp_cost(layer: TensorParallelLayer, cfg, t: int) -> TPLayerCost:
    bd = _scalar_breakdown(layer, cfg, t)
    return TPLayerCost(
        compute_s=bd.total_s, comm_s=_allreduce_pair_s(layer, cfg, t), tp_degree=t
    )


def scalar_sp_cost(layer: SequenceParallelLayer, cfg, t: int) -> SPLayerCost:
    validate_sp_feasible(cfg, t)
    bd = _scalar_breakdown(layer, cfg, t)
    gemm_s = bd.gemm_s
    pointwise_s = bd.total_s - gemm_s
    softmax_s = bd.components.get("softmax", 0.0)
    shardable = pointwise_s - softmax_s
    return SPLayerCost(
        compute_s=gemm_s + (shardable / t + softmax_s),
        comm_s=_allreduce_pair_s(layer, cfg, t),
        tp_degree=t,
        pointwise_saved_s=shardable - shardable / t,
    )


def scalar_costs(layer, cfg, degrees: Iterable[int], cost) -> Dict[int, TPLayerCost]:
    out = {}
    for t in degrees:
        try:
            out[t] = cost(layer, cfg, t)
        except ParallelismError:
            continue
    return out


class ScalarTP(TensorParallelLayer):
    """The reference planner's TP model: one scalar breakdown per degree."""

    def layer_costs(self, cfg, degrees):
        return scalar_costs(self, cfg, degrees, scalar_tp_cost)


def check_tp(name: str, system: str, flash: bool) -> None:
    cfg = get_model(name)
    layer = TensorParallelLayer(system, flash_attention=flash)
    degrees = [t for t in DEGREES if t <= layer.topology.gpus_per_node]
    grid = layer.layer_costs(cfg, degrees)
    assert grid == scalar_costs(layer, cfg, degrees, scalar_tp_cost)
    for t, cost in grid.items():
        assert layer.layer_cost(cfg, t) == cost


def check_sp(name: str, system: str, flash: bool) -> None:
    cfg = get_model(name)
    layer = SequenceParallelLayer(system, flash_attention=flash)
    degrees = [t for t in DEGREES if t <= layer.topology.gpus_per_node]
    grid = layer.layer_costs(cfg, degrees)
    assert grid == scalar_costs(layer, cfg, degrees, scalar_sp_cost)
    for t in degrees:
        if t in grid:
            assert layer.layer_cost(cfg, t) == grid[t]
        else:
            with pytest.raises(ParallelismError):
                layer.layer_cost(cfg, t)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("name", MODELS)
class TestParityWall:
    def test_tp_layer_costs(self, name, system):
        check_tp(name, system, flash=False)

    def test_tp_layer_costs_flash(self, name, system):
        check_tp(name, system, flash=True)

    def test_sp_layer_costs(self, name, system):
        check_sp(name, system, flash=False)

    def test_sp_layer_costs_flash(self, name, system):
        check_sp(name, system, flash=True)

    def test_plan_matches_scalar_reference(self, name, system):
        cfg = get_model(name)
        reference = ParallelPlanner(system)
        reference.tp_model = ScalarTP(system)
        assert ParallelPlanner(system).plan(cfg, 64) == reference.plan(cfg, 64)


def test_wall_covers_non_power_of_two_degrees():
    """t=3 and t=6 must be exercised somewhere in the zoo, or the wall
    would only ever compare power-of-two shards."""
    summit = TensorParallelLayer("ornl-summit")
    feasible = set()
    for name in MODELS:
        feasible |= set(summit.layer_costs(get_model(name), DEGREES))
    assert {3, 6} <= feasible
