"""3D-parallelism planner: choose (t, p, d) for a model on a cluster.

A small Narayanan-et-al.-style cost model: enumerate feasible
(tensor, pipeline, data) factorizations of the GPU count, require the
model's training-step footprint to fit per-GPU memory, and score each
plan by modelled iteration time (TP layer cost x pipeline schedule +
data-parallel gradient all-reduce).  Used by the Sec VII-A case study to
show how Summit's 6-GPU nodes push designs toward t=6 and what that
costs when ``h/6`` loses its power-of-two factor.

Capacity comes from the training-step memory estimator
(:func:`repro.trainstep.memory.estimate_memory`): a per-phase timeline
of parameter, gradient, fp32 Adam-state, and activation bytes on the
heaviest pipeline stage.  The estimator walks the model per module —
so tied embeddings are counted once, the embedding stays resident on
its stage rather than being diluted by ``p``, and the planner can trade
**full activation checkpointing** (boundary-only activations) against
its recompute cost (one extra forward pass per layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import TransformerConfig
from repro.core.formulas import kv_cache_bytes  # noqa: F401  (re-exported convenience)
from repro.core.memory import MemoryBudget
from repro.errors import CapacityError, ParallelismError
from repro.parallelism.pipeline import PipelinePlan
from repro.parallelism.tensor_parallel import (
    TensorParallelLayer,
    TPLayerCost,
    validate_tp_feasible,
)
from repro.parallelism.topology import NodeTopology, get_system
from repro.trainstep.memory import TrainStepMemory, estimate_memory
from repro.types import DType

#: Extra forward passes full activation checkpointing adds per layer:
#: every checkpointed layer re-runs its forward during backward, so the
#: modelled per-layer (forward) schedule time doubles.
_RECOMPUTE_FACTOR = 2.0


@dataclass(frozen=True)
class ParallelPlan:
    """One (t, p, d) decomposition and its modelled iteration time."""

    tp: int
    pp: int
    dp: int
    iteration_time_s: float
    comm_fraction: float
    fits_memory: bool
    balanced_pipeline: bool
    checkpointing: str = "none"
    peak_memory_bytes: float = 0.0
    peak_memory_phase: str = ""

    @property
    def gpus(self) -> int:
        return self.tp * self.pp * self.dp

    def describe(self) -> str:
        return (
            f"t={self.tp} p={self.pp} d={self.dp}: "
            f"{self.iteration_time_s * 1e3:.1f} ms/iter, "
            f"comm {100 * self.comm_fraction:.1f}%"
            + (
                f", peak {self.peak_memory_bytes / 1e9:.1f} GB"
                f" ({self.peak_memory_phase})"
                if self.peak_memory_bytes
                else ""
            )
            + ("" if self.checkpointing == "none" else f" [ckpt={self.checkpointing}]")
            + ("" if self.balanced_pipeline else " (unbalanced pipeline)")
            + ("" if self.fits_memory else " (OUT OF MEMORY)")
        )


class ParallelPlanner:
    """Enumerates and scores (t, p, d) plans for a model on a system."""

    def __init__(
        self,
        system: "str | NodeTopology",
        dtype: "str | DType" = DType.FP16,
        num_microbatches: int = 8,
    ) -> None:
        self.topology = get_system(system)
        self.dtype = DType.parse(dtype)
        self.num_microbatches = num_microbatches
        self.tp_model = TensorParallelLayer(self.topology, self.dtype)

    # -- memory ----------------------------------------------------------------

    def budget(self) -> MemoryBudget:
        """This system's per-GPU budget (capacity minus headroom)."""
        return MemoryBudget.for_gpu(self.topology.gpu)

    def memory_report(
        self,
        cfg: TransformerConfig,
        t: int,
        p: int,
        checkpointing: str = "none",
    ) -> TrainStepMemory:
        """Per-phase memory timeline of the heaviest stage under (t, p)."""
        return estimate_memory(
            cfg, tp=t, pipeline_stages=p, checkpointing=checkpointing
        )

    def memory_per_gpu_bytes(
        self,
        cfg: TransformerConfig,
        t: int,
        p: int,
        checkpointing: str = "none",
    ) -> float:
        """Peak training footprint per GPU (estimator-backed)."""
        return self.memory_report(cfg, t, p, checkpointing).peak_bytes

    def fits(
        self,
        cfg: TransformerConfig,
        t: int,
        p: int,
        checkpointing: str = "none",
    ) -> bool:
        report = self.memory_report(cfg, t, p, checkpointing)
        return report.fits(self.budget())

    def check_capacity(
        self,
        cfg: TransformerConfig,
        t: int,
        p: int,
        checkpointing: str = "none",
    ) -> TrainStepMemory:
        """The memory report, or :class:`~repro.errors.CapacityError`
        naming the overflowing phase if the plan does not fit."""
        report = self.memory_report(cfg, t, p, checkpointing)
        report.require_fits(self.budget())
        return report

    # -- planning --------------------------------------------------------------

    def evaluate(
        self,
        cfg: TransformerConfig,
        t: int,
        p: int,
        d: int,
        checkpointing: str = "none",
    ) -> ParallelPlan:
        """Score one decomposition (raises if TP is infeasible)."""
        layer = self.tp_model.layer_cost(cfg, t)
        return self._score(cfg, t, p, d, checkpointing, layer)

    def _score(
        self,
        cfg: TransformerConfig,
        t: int,
        p: int,
        d: int,
        checkpointing: str,
        layer: TPLayerCost,
    ) -> ParallelPlan:
        """Score one decomposition given its TP layer cost."""
        if cfg.num_layers < p:
            raise ParallelismError(
                f"{p} pipeline stages exceed {cfg.num_layers} layers"
            )
        layer_time = layer.total_s
        if checkpointing == "full":
            layer_time *= _RECOMPUTE_FACTOR
        boundary_bytes = (
            cfg.microbatch * cfg.seq_len * cfg.hidden_size * self.dtype.bytes
        )
        boundary = (
            self.topology.comm_for(t * p).send(boundary_bytes) if p > 1 else 0.0
        )
        plan = PipelinePlan(
            num_layers=cfg.num_layers,
            num_stages=p,
            num_microbatches=self.num_microbatches,
            layer_time_s=layer_time,
            stage_boundary_s=boundary,
        )
        iteration = plan.iteration_time_s
        # Data-parallel gradient all-reduce, overlapped poorly at small
        # scale: count half its ring time.
        if d > 1:
            grad_bytes = cfg.param_count() / (t * p) * self.dtype.bytes
            comm = self.topology.comm_for(d * t * p)
            iteration += 0.5 * comm.allreduce(grad_bytes, d)
        comm_s = layer.comm_s * cfg.num_layers / p * self.num_microbatches
        comm_frac = min(1.0, comm_s / iteration) if iteration else 0.0
        memory = self.memory_report(cfg, t, p, checkpointing)
        return ParallelPlan(
            tp=t,
            pp=p,
            dp=d,
            iteration_time_s=iteration,
            comm_fraction=comm_frac,
            fits_memory=memory.fits(self.budget()),
            balanced_pipeline=plan.balanced,
            checkpointing=checkpointing,
            peak_memory_bytes=memory.peak_bytes,
            peak_memory_phase=memory.peak_phase,
        )

    def plan(
        self,
        cfg: TransformerConfig,
        num_gpus: int,
        require_fit: bool = True,
        checkpointing: str = "auto",
    ) -> List[ParallelPlan]:
        """All feasible plans for ``num_gpus``, fastest first.

        ``checkpointing="auto"`` (the default) prefers no checkpointing
        — it is always at least as fast — and falls back to full
        checkpointing only for (t, p) cells whose activations OOM
        without it, trading the recompute forward pass for the smaller
        boundary-only footprint.  Pass ``"none"`` or ``"full"`` to pin
        the policy for every cell.
        """
        if num_gpus <= 0:
            raise ParallelismError("num_gpus must be positive")
        policies = (
            ("none", "full") if checkpointing == "auto" else (checkpointing,)
        )
        # TP across nodes is never competitive; price every remaining
        # degree's layer in one engine grid up front.
        degrees = [t for t in _divisors(num_gpus) if t <= self.topology.gpus_per_node]
        plans = []
        for t, layer in self.tp_model.layer_costs(cfg, degrees).items():
            for p in _divisors(num_gpus // t):
                d = num_gpus // (t * p)
                for policy in policies:
                    try:
                        plan = self._score(cfg, t, p, d, policy, layer)
                    except ParallelismError:
                        break  # infeasible for reasons checkpointing can't fix
                    if plan.fits_memory or not require_fit:
                        plans.append(plan)
                        break  # first (cheapest) policy that fits wins
        plans.sort(key=lambda pl: pl.iteration_time_s)
        return plans

    def best(self, cfg: TransformerConfig, num_gpus: int) -> Optional[ParallelPlan]:
        plans = self.plan(cfg, num_gpus)
        return plans[0] if plans else None


def _divisors(n: int) -> List[int]:
    return [i for i in range(1, n + 1) if n % i == 0]


def capacity_matrix(
    planner: ParallelPlanner,
    cfg: TransformerConfig,
    tp_degrees: "tuple | list" = (1, 2, 4, 8),
    pipeline_stages: "tuple | list" = (1, 2, 4),
    checkpointing: str = "none",
) -> List[dict]:
    """Fits/rejects matrix over a (t, p) sweep, one row per cell.

    Each row carries the verdict and, for rejects, the typed
    :class:`~repro.errors.CapacityError`'s overflowing phase — the
    harness snapshots this as the OOM-wall golden.
    """
    rows: List[dict] = []
    budget = planner.budget()
    for t in tp_degrees:
        for p in pipeline_stages:
            try:
                validate_tp_feasible(cfg, t)
                if cfg.num_layers < p:
                    raise ParallelismError(
                        f"{p} pipeline stages exceed {cfg.num_layers} layers"
                    )
                report = planner.check_capacity(cfg, t, p, checkpointing)
            except CapacityError as exc:
                rows.append(
                    {
                        "tp": t,
                        "pp": p,
                        "fits": False,
                        "phase": exc.phase,
                        "peak_gb": exc.required_bytes / 1e9,
                        "budget_gb": budget.usable_bytes / 1e9,
                    }
                )
            except ParallelismError:
                rows.append(
                    {
                        "tp": t,
                        "pp": p,
                        "fits": False,
                        "phase": "infeasible",
                        "peak_gb": 0.0,
                        "budget_gb": budget.usable_bytes / 1e9,
                    }
                )
            else:
                rows.append(
                    {
                        "tp": t,
                        "pp": p,
                        "fits": True,
                        "phase": report.peak_phase,
                        "peak_gb": report.peak_bytes / 1e9,
                        "budget_gb": budget.usable_bytes / 1e9,
                    }
                )
    return rows
