"""Whole-train-step runtime estimator, priced by one engine evaluation.

The estimator expands a configuration's training step — every forward
GEMM, its mechanically-derived dgrad/wgrad pair, and (under full
checkpointing) the recompute pass — into labelled ``(batch, m, n, k)``
rows read straight from the Table II row source in
:mod:`repro.core.gemms` (:func:`step_rows`; :func:`training_grid` is the
same rows as a columnar :class:`~repro.engine.grid.ShapeGrid`).  It
prices the step in one engine evaluation over the distinct shapes
(backward and recompute GEMMs mostly repeat forward shapes, so both
checkpointing policies share one engine entry), scatters the latencies
back to the rows, and rolls them up per phase with masked NumPy sums
and per module in one Python pass.  No engine call sits inside a loop on this path (the
self-lint's ``engine-eval-in-loop`` rule enforces it), which is what
makes the differential wall (:mod:`repro.trainstep.wall`) able to
demand bit-identical totals against a per-record scalar accumulation.

The optimizer phase is not a GEMM: it is priced as one streaming pass
over the rank's unique parameter elements at
:data:`repro.core.training.ADAM_TRAFFIC_BYTES_PER_PARAM` bytes each and
:data:`repro.core.latency.POINTWISE_BW_EFFICIENCY` of peak bandwidth,
with FLOPs from :data:`repro.transformer.trace.ADAM_FLOPS_PER_PARAM` so
the whole-step flop conservation law covers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import TransformerConfig
from repro.core.gemms import Row, backward_rows, layer_rows, logit_row
from repro.core.latency import POINTWISE_BW_EFFICIENCY
from repro.core.training import ADAM_TRAFFIC_BYTES_PER_PARAM
from repro.engine.core import ShapeEngine, default_engine
from repro.engine.grid import ShapeGrid
from repro.errors import ConfigError
from repro.gpu.specs import GPUSpec, get_gpu
from repro.observability.tracing import span as _span
from repro.trainstep.memory import TrainStepMemory, estimate_memory
from repro.transformer.trace import ADAM_FLOPS_PER_PARAM
from repro.types import DType, teraflops

#: Phase labels, in step-execution order (recompute only under
#: ``checkpointing="full"``).
PHASE_FORWARD = "forward"
PHASE_BACKWARD = "backward"
PHASE_RECOMPUTE = "recompute"
PHASE_OPTIMIZER = "optimizer"


def step_rows(
    cfg: TransformerConfig, checkpointing: str = "none"
) -> Tuple[List[str], List[str], List[int], List[Row]]:
    """Module labels, phases, per-step counts and ``(batch, m, n, k)``
    rows of one training step, read straight from the Table II row
    source (:mod:`repro.core.gemms`).

    One row per distinct (module, phase) GEMM; its count is its per-step
    repetition (L for layer operators, 1 for the logit triple).  Row
    order is deterministic — forward layer ops, their backward pairs,
    the optional recompute pass (the forward rows again), then the logit
    triple — and the differential wall relies on it: both the grid path
    and the scalar path reduce the same row order with the same
    ``np.sum``, so equal per-row latencies force bit-identical totals.
    """
    if checkpointing not in ("none", "full"):
        raise ConfigError(
            f"unknown checkpointing policy {checkpointing!r} "
            "(choose 'none' or 'full')"
        )
    labels, rows = layer_rows(cfg)
    grad_labels, grad_rows = backward_rows(labels, rows)
    n = len(rows)
    # Recompute re-executes every layer forward GEMM once during
    # backward; the logit/embedding are never checkpointed.
    recompute = n if checkpointing == "full" else 0
    logit = [logit_row(cfg)]
    logit_grad_labels, logit_grads = backward_rows(["logit"], logit)
    return (
        labels + grad_labels + labels[:recompute] + ["logit"] + logit_grad_labels,
        [PHASE_FORWARD] * n
        + [PHASE_BACKWARD] * (2 * n)
        + [PHASE_RECOMPUTE] * recompute
        + [PHASE_FORWARD, PHASE_BACKWARD, PHASE_BACKWARD],
        [cfg.num_layers] * (3 * n + recompute) + [1, 1, 1],
        rows + grad_rows + rows[:recompute] + logit + logit_grads,
    )


def training_grid(
    cfg: TransformerConfig, checkpointing: str = "none"
) -> ShapeGrid:
    """The whole training step (:func:`step_rows`) as one annotated
    shape grid with ``module`` / ``phase`` / ``count`` columns."""
    labels, phases, counts, rows = step_rows(cfg, checkpointing)
    shapes = np.array(rows, dtype=np.int64)
    return ShapeGrid.from_columns(
        batch=shapes[:, 0],
        m=shapes[:, 1],
        n=shapes[:, 2],
        k=shapes[:, 3],
        module=np.array(labels),
        phase=np.array(phases),
        count=np.array(counts, dtype=np.int64),
    )


@dataclass(frozen=True)
class PhaseCost:
    """Runtime + FLOPs of one training-step phase on one rank.

    ``seconds`` is modelled wall-clock time [s]; ``flops`` is the
    multiply-add count (dimensionless work, not a rate).
    """

    phase: str
    seconds: float
    flops: int


@dataclass(frozen=True)
class ModuleCost:
    """Per-module runtime rollup (dgrad/wgrad folded into the base
    module label)."""

    module: str
    forward_s: float
    backward_s: float
    recompute_s: float
    flops: int

    @property
    def total_s(self) -> float:
        return self.forward_s + self.backward_s + self.recompute_s


@dataclass(frozen=True)
class TrainStepEstimate:
    """One rank's modelled training step: runtime phases, per-module
    rollup, and the memory timeline."""

    model: str
    gpu: str
    dtype: str
    tp: int
    pipeline_stages: int
    checkpointing: str
    tokens: int
    phases: Tuple[PhaseCost, ...]
    modules: Tuple[ModuleCost, ...]
    memory: TrainStepMemory

    def phase(self, name: str) -> PhaseCost:
        for p in self.phases:
            if p.phase == name:
                return p
        raise KeyError(f"unknown phase {name!r}")

    @property
    def phase_names(self) -> Tuple[str, ...]:
        return tuple(p.phase for p in self.phases)

    @property
    def total_s(self) -> float:
        return sum(p.seconds for p in self.phases)

    @property
    def gemm_s(self) -> float:
        return sum(
            p.seconds for p in self.phases if p.phase != PHASE_OPTIMIZER
        )

    @property
    def flops(self) -> int:
        return sum(p.flops for p in self.phases)

    @property
    def tokens_per_second(self) -> float:
        return self.tokens / self.total_s if self.total_s else 0.0

    @property
    def tflops(self) -> float:
        return teraflops(self.flops, self.total_s) if self.total_s else 0.0

    @property
    def backward_to_forward_flops(self) -> float:  # unit: dimensionless
        """Backward/forward FLOP ratio (exactly 2.0 for pure GEMM nets)."""
        fwd = self.phase(PHASE_FORWARD).flops
        return self.phase(PHASE_BACKWARD).flops / fwd if fwd else 0.0


class TrainStepEstimator:
    """Prices one training step per (t, p) rank via the batch engine."""

    def __init__(
        self,
        gpu: "str | GPUSpec" = "A100",
        dtype: "str | DType" = DType.FP16,
        engine: Optional[ShapeEngine] = None,
    ) -> None:
        self.spec = get_gpu(gpu)
        self.dtype = DType.parse(dtype)
        self._engine = engine

    @property
    def engine(self) -> ShapeEngine:
        return self._engine if self._engine is not None else default_engine()

    def optimizer_cost(self, memory: TrainStepMemory) -> PhaseCost:
        """The Adam update as one bandwidth-bound streaming pass over
        the rank's unique (tied-dedup) parameter elements."""
        elems = memory.parameter_elements
        bw = self.spec.mem_bw_bytes_per_s() * POINTWISE_BW_EFFICIENCY
        return PhaseCost(
            phase=PHASE_OPTIMIZER,
            seconds=elems * ADAM_TRAFFIC_BYTES_PER_PARAM / bw,
            flops=int(round(elems * ADAM_FLOPS_PER_PARAM)),
        )

    def estimate(
        self,
        cfg: TransformerConfig,
        pipeline_stages: int = 1,
        checkpointing: str = "none",
    ) -> TrainStepEstimate:
        """One rank's step at ``cfg.tp_degree`` tensor parallelism.

        Runtime phases cover the whole model's GEMMs executed serially
        on one rank (the planner layers its pipeline schedule on top);
        the memory timeline models the heaviest stage under
        ``(cfg.tp_degree, pipeline_stages)``.
        """
        with _span(
            "trainstep.estimate",
            model=cfg.name,
            gpu=self.spec.name,
            checkpointing=checkpointing,
        ) as sp:
            labels, phase_names, counts, rows = step_rows(cfg, checkpointing)
            # Backward and recompute GEMMs mostly repeat forward shapes:
            # price each distinct shape once, in first-appearance order,
            # and scatter the latencies back to the rows.  The recompute
            # pass adds no new shape, so both checkpointing policies hit
            # the same engine entry.
            index: Dict[Row, int] = {}
            inverse = [index.setdefault(row, len(index)) for row in rows]
            priced = self.engine.evaluate(
                np.array(list(index), dtype=np.int64), self.spec, self.dtype
            )
            seconds = priced.latency_s[inverse] * np.array(counts, dtype=np.float64)
            flops = [2 * b * m * n * k * c for (b, m, n, k), c in zip(rows, counts)]
            phase_col = np.array(phase_names)

            memory = estimate_memory(
                cfg,
                pipeline_stages=pipeline_stages,
                checkpointing=checkpointing,
            )
            phases: List[PhaseCost] = []
            order = [PHASE_FORWARD, PHASE_BACKWARD]
            if checkpointing == "full":
                order.append(PHASE_RECOMPUTE)
            for name in order:
                phases.append(
                    PhaseCost(
                        phase=name,
                        seconds=float(np.sum(seconds[phase_col == name])),
                        flops=sum(
                            f for f, ph in zip(flops, phase_names) if ph == name
                        ),
                    )
                )
            phases.append(self.optimizer_cost(memory))

            modules = _module_rollup(labels, phase_names, seconds.tolist(), flops)
            sp.set(
                rows=len(rows),
                total_s=sum(p.seconds for p in phases),
            )
            return TrainStepEstimate(
                model=cfg.name,
                gpu=self.spec.name,
                dtype=self.dtype.name,
                tp=cfg.tp_degree,
                pipeline_stages=pipeline_stages,
                checkpointing=checkpointing,
                tokens=cfg.tokens_per_microbatch,
                phases=tuple(phases),
                modules=modules,
                memory=memory,
            )


#: Slot of each GEMM phase in a module's ``[forward, backward, recompute]``
#: seconds.
_PHASE_SLOT = {PHASE_FORWARD: 0, PHASE_BACKWARD: 1, PHASE_RECOMPUTE: 2}


def _module_rollup(
    modules: List[str],
    phases: List[str],
    seconds: List[float],
    flops: List[int],
) -> Tuple[ModuleCost, ...]:
    """Group per-row costs by base module, preserving first appearance.

    One left-to-right pass.  A (module, phase) group holds at most two
    rows (the dgrad/wgrad pair), and ``np.sum`` adds a short array left
    to right too, so each module's seconds equal the masked-sum totals
    bit for bit.
    """
    rollup: Dict[str, List[float]] = {}
    module_flops: Dict[str, int] = {}
    for module, phase, s, f in zip(modules, phases, seconds, flops):
        base = module.split(".")[0]
        if base not in rollup:
            rollup[base] = [0.0, 0.0, 0.0]
            module_flops[base] = 0
        rollup[base][_PHASE_SLOT[phase]] += s
        module_flops[base] += f
    return tuple(
        ModuleCost(
            module=name,
            forward_s=fwd,
            backward_s=bwd,
            recompute_s=recomp,
            flops=module_flops[name],
        )
        for name, (fwd, bwd, recomp) in rollup.items()
    )
