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

from repro.trainstep.memory import estimate_memory
from repro.trainstep.step import TrainStepEstimator

__all__ = ["TrainStepEstimator", "estimate_memory"]
