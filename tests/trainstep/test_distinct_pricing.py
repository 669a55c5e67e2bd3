"""The estimator prices a step's distinct GEMM shapes once.

``TrainStepEstimator.estimate`` evaluates only the distinct
``(batch, m, n, k)`` rows of ``training_grid`` and rolls modules up in
one Python pass.  The reference below is the full-grid path it
replaced: every row priced through ``evaluate_grid``, phases and
modules reduced with masked ``np.sum``.  Both must agree with ``==``.
"""

from typing import Dict, List

import numpy as np
import pytest

from repro.core.config import get_model, list_models
from repro.engine.core import ShapeEngine
from repro.errors import ParallelismError
from repro.observability.metrics import metrics
from repro.trainstep.memory import estimate_memory
from repro.trainstep.step import (
    PHASE_BACKWARD,
    PHASE_FORWARD,
    PHASE_RECOMPUTE,
    ModuleCost,
    PhaseCost,
    TrainStepEstimate,
    TrainStepEstimator,
    training_grid,
)

GPUS = ("A100", "H100", "V100", "MI250X")
#: (tensor-parallel degree, pipeline stages) per case.
DEGREES = ((1, 1), (2, 2), (4, 1), (8, 4))


def reference_estimate(
    estimator: TrainStepEstimator,
    engine: ShapeEngine,
    cfg,
    pipeline_stages: int,
    checkpointing: str,
) -> TrainStepEstimate:
    """Every grid row priced, phases and modules by masked ``np.sum``."""
    grid = training_grid(cfg, checkpointing)
    result = engine.evaluate_grid(grid, estimator.spec, estimator.dtype)
    latency = np.asarray(result.batch.latency_s, dtype=np.float64)
    counts = grid.column("count")
    seconds = latency * counts.astype(np.float64)
    flops = (
        2
        * grid.column("batch")
        * grid.column("m")
        * grid.column("n")
        * grid.column("k")
        * counts
    )
    phase_col = grid.column("phase")
    memory = estimate_memory(
        cfg, pipeline_stages=pipeline_stages, checkpointing=checkpointing
    )
    order = [PHASE_FORWARD, PHASE_BACKWARD]
    if checkpointing == "full":
        order.append(PHASE_RECOMPUTE)
    phases = [
        PhaseCost(
            phase=name,
            seconds=float(np.sum(seconds[phase_col == name])),
            flops=int(np.sum(flops[phase_col == name])),
        )
        for name in order
    ]
    phases.append(estimator.optimizer_cost(memory))

    base = np.array([m.split(".")[0] for m in grid.column("module").tolist()])
    rollup: Dict[str, List[float]] = {}
    for name in base.tolist():
        rollup.setdefault(name, [0.0, 0.0, 0.0, 0.0])
    for name in rollup:
        mine = base == name
        rollup[name][0] = float(np.sum(seconds[mine & (phase_col == PHASE_FORWARD)]))
        rollup[name][1] = float(np.sum(seconds[mine & (phase_col == PHASE_BACKWARD)]))
        rollup[name][2] = float(
            np.sum(seconds[mine & (phase_col == PHASE_RECOMPUTE)])
        )
        rollup[name][3] = float(np.sum(flops[mine]))
    modules = tuple(
        ModuleCost(
            module=name,
            forward_s=vals[0],
            backward_s=vals[1],
            recompute_s=vals[2],
            flops=int(vals[3]),
        )
        for name, vals in rollup.items()
    )
    return TrainStepEstimate(
        model=cfg.name,
        gpu=estimator.spec.name,
        dtype=estimator.dtype.name,
        tp=cfg.tp_degree,
        pipeline_stages=pipeline_stages,
        checkpointing=checkpointing,
        tokens=cfg.tokens_per_microbatch,
        phases=tuple(phases),
        modules=modules,
        memory=memory,
    )


def _distinct_rows(cfg, checkpointing: str) -> int:
    return len(set(map(tuple, training_grid(cfg, checkpointing).shapes.tolist())))


def _counter(name: str) -> int:
    return metrics().counter(name).value


@pytest.mark.parametrize("gpu", GPUS)
def test_estimate_equals_full_grid_reference(gpu):
    estimator = TrainStepEstimator(gpu, engine=ShapeEngine())
    reference_engine = ShapeEngine()
    cases = 0
    for model in list_models():
        for t, p in DEGREES:
            if model.num_layers < p:
                continue
            cfg = model.with_overrides(tp_degree=t)
            for checkpointing in ("none", "full"):
                try:
                    got = estimator.estimate(cfg, p, checkpointing)
                except ParallelismError:
                    continue  # t does not divide this model's heads
                want = reference_estimate(
                    estimator, reference_engine, cfg, p, checkpointing
                )
                assert got == want, (cfg.name, gpu, t, p, checkpointing)
                cases += 1
    assert cases >= 150


@pytest.mark.parametrize("model", ["gpt3-2.7b", "llama2-7b", "mixtral-8x7b"])
def test_both_policies_share_one_engine_compute(model):
    cfg = get_model(model)
    engine = ShapeEngine()
    estimator = TrainStepEstimator("A100", engine=engine)
    computes = _counter("engine.evaluate.computes")
    rows = _counter("engine.evaluate.shapes_computed")
    estimator.estimate(cfg, checkpointing="none")
    estimator.estimate(cfg, checkpointing="full")
    assert _counter("engine.evaluate.computes") == computes + 1
    distinct = _distinct_rows(cfg, "full")
    assert distinct == _distinct_rows(cfg, "none")
    assert distinct < len(training_grid(cfg, "none"))
    assert _counter("engine.evaluate.shapes_computed") == rows + distinct
    assert engine.memory_stats.hits == 1
