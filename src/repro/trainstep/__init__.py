"""Training-step runtime + memory estimator.

Prices a whole training step — forward GEMMs, mechanically-derived
dgrad/wgrad backward pairs, optional full-checkpointing recompute, and
the Adam update — through **one** batched engine evaluation, and rolls
up per-module / per-phase runtime alongside a peak-memory timeline the
parallelism planner uses for its capacity (OOM) wall.

Public surface:

- :func:`~repro.trainstep.memory.estimate_memory` /
  :class:`~repro.trainstep.memory.TrainStepMemory` — closed-form
  per-phase memory model (params, grads, fp32 Adam state, activations).
- :class:`~repro.trainstep.step.TrainStepEstimator` /
  :class:`~repro.trainstep.step.TrainStepEstimate` — grid-priced
  runtime estimator.
- :func:`~repro.trainstep.wall.run_wall` — blocking differential wall
  vs the scalar model.
"""

from repro.trainstep.memory import (
    CHECKPOINTING_POLICIES,
    PHASES,
    ModuleMemory,
    PhaseMemory,
    TrainStepMemory,
    boundary_bytes_per_layer,
    embedding_elements,
    estimate_memory,
    module_activation_bytes,
    module_param_elements,
)
from repro.trainstep.report import estimate_to_json, render_estimate
from repro.trainstep.step import (
    ModuleCost,
    PhaseCost,
    TrainStepEstimate,
    TrainStepEstimator,
    training_grid,
)
from repro.trainstep.wall import WALL_MODELS, WallCase, WallReport, run_wall

__all__ = [
    "CHECKPOINTING_POLICIES",
    "PHASES",
    "ModuleCost",
    "ModuleMemory",
    "PhaseCost",
    "PhaseMemory",
    "TrainStepEstimate",
    "TrainStepEstimator",
    "TrainStepMemory",
    "WALL_MODELS",
    "WallCase",
    "WallReport",
    "boundary_bytes_per_layer",
    "embedding_elements",
    "estimate_memory",
    "estimate_to_json",
    "module_activation_bytes",
    "module_param_elements",
    "render_estimate",
    "run_wall",
    "training_grid",
]
