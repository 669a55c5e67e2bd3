"""3D-parallelism planner: choose (t, p, d) for a model on a cluster.

A small Narayanan-et-al.-style cost model: enumerate feasible
(tensor, pipeline, data) factorizations of the GPU count, require the
model's training-step footprint to fit per-GPU memory, and score each
plan by modelled iteration time (TP layer cost x pipeline schedule +
data-parallel gradient all-reduce).  Used by the Sec VII-A case study to
show how Summit's 6-GPU nodes push designs toward t=6 and what that
costs when ``h/6`` loses its power-of-two factor.

Capacity comes from the training-step memory estimator
(:mod:`repro.trainstep.memory`): a per-phase timeline of parameter,
gradient, fp32 Adam-state, and activation bytes on the heaviest
pipeline stage.  The estimator walks the model per module — so tied
embeddings are counted once, the embedding stays resident on its stage
rather than being diluted by ``p``, and the planner can trade **full
activation checkpointing** (boundary-only activations) against its
recompute cost (one extra forward pass per layer).

:meth:`ParallelPlanner.plan` prices every (t, p, d) cell in one array
pass: the TP layer costs come from one engine grid, the memory of every
cell under each policy from one
:func:`~repro.trainstep.memory.estimate_memory_cells` call, and the
pipeline clock, data-parallel all-reduce and communication share as
arrays over the cells.  :meth:`~ParallelPlanner.evaluate` is the one-cell
call of the same scorer.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TransformerConfig
from repro.core.gemms import validate_tp_feasible
from repro.core.memory import MemoryBudget
from repro.errors import ParallelismError
from repro.parallelism.comm import point_to_point_cost, ring_allreduce_cost
from repro.parallelism.tensor_parallel import TensorParallelLayer, TPLayerCost
from repro.parallelism.topology import NodeTopology, get_system
from repro.trainstep.memory import (
    PHASES,
    TrainStepMemory,
    estimate_memory,
    estimate_memory_cells,
)
from repro.types import DType

#: Extra forward passes full activation checkpointing adds per layer:
#: every checkpointed layer re-runs its forward during backward, so the
#: modelled per-layer (forward) schedule time doubles.
_RECOMPUTE_FACTOR = 2.0


def _links(
    topo: NodeTopology, ranks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(bandwidth, alpha)`` per entry of ``ranks``, from one
    :meth:`~NodeTopology.comm_for` call per distinct group size."""
    sizes, inverse = np.unique(ranks, return_inverse=True)
    comms = [topo.comm_for(n) for n in sizes.tolist()]
    bw = np.array([c.bw_bytes_s for c in comms])
    alpha = np.array([c.alpha_s for c in comms])
    return bw[inverse], alpha[inverse]


class ParallelPlan(NamedTuple):
    """One (t, p, d) decomposition and its modelled iteration time.

    A named tuple, not a frozen dataclass: one sizing pass builds about
    a thousand, positionally from the planner's cell columns.
    """

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
        _check_stages(cfg, p)
        (plan,) = self._score_cells(
            cfg, [(t, p, d)], {t: layer}, (checkpointing,), require_fit=False
        )
        return plan

    def _score_cells(
        self,
        cfg: TransformerConfig,
        cells: Sequence[Tuple[int, int, int]],
        layers: Dict[int, TPLayerCost],
        policies: Sequence[str],
        require_fit: bool,
    ) -> List[ParallelPlan]:
        """Score (t, p, d) cells as arrays; one plan per admitted cell,
        in cell order.

        Each cell takes the first of ``policies`` whose step fits the
        budget, or the first outright when ``require_fit`` is false;
        cells no policy admits are dropped.  Every cell needs
        ``1 <= p <= num_layers`` and a layer cost for its ``t``.
        """
        if not cells:
            return []
        t, p, d = (np.array(col, dtype=np.int64) for col in zip(*cells))
        usable = self.budget().usable_bytes
        policy = np.full(len(cells), -1)
        peak = np.zeros(len(cells))
        peak_phase = np.zeros(len(cells), dtype=np.int64)
        for i, name in enumerate(policies):
            memory = estimate_memory_cells(cfg, t, p, name)
            cell_peak = memory.peak_bytes
            take = policy < 0
            if require_fit:
                take &= cell_peak <= usable
            policy[take] = i
            peak[take] = cell_peak[take]
            peak_phase[take] = memory.peak_index[take]
            if (policy >= 0).all():
                break
        keep = policy >= 0
        t, p, d, policy = t[keep], p[keep], d[keep], policy[keep]
        peak, peak_phase = peak[keep], peak_phase[keep]

        L = cfg.num_layers
        m = self.num_microbatches
        topo = self.topology
        layer_time = np.array([layers[x].total_s for x in t.tolist()])
        recompute = np.array([name == "full" for name in policies])[policy]
        layer_time = np.where(
            recompute, layer_time * _RECOMPUTE_FACTOR, layer_time
        )
        boundary_bytes = (
            cfg.microbatch * cfg.seq_len * cfg.hidden_size * self.dtype.bytes
        )
        bw, alpha = _links(topo, t * p)
        boundary = np.where(
            p > 1, point_to_point_cost(boundary_bytes, bw, alpha), 0.0
        )
        # 1F1B clock: the slowest stage holds ceil(L / p) layers.
        layers_per_stage = -(-L // p)
        iteration_s = (m + p - 1) * (layers_per_stage * layer_time + boundary)
        # Data-parallel gradient all-reduce, overlapped poorly at small
        # scale: count half its ring time.
        data_parallel = d > 1
        if data_parallel.any():
            td, pd, dd = t[data_parallel], p[data_parallel], d[data_parallel]
            grad_bytes = cfg.param_count() / (td * pd) * self.dtype.bytes
            bw, alpha = _links(topo, dd * td * pd)
            iteration_s[data_parallel] += 0.5 * ring_allreduce_cost(
                grad_bytes, dd, bw, alpha
            )
        layer_comm = np.array([layers[x].comm_s for x in t.tolist()])
        comm_s = layer_comm * L / p * m
        with np.errstate(divide="ignore", invalid="ignore"):
            comm_frac = np.where(
                iteration_s != 0, np.minimum(1.0, comm_s / iteration_s), 0.0
            )
        return list(
            map(
                ParallelPlan._make,
                zip(
                    t.tolist(),
                    p.tolist(),
                    d.tolist(),
                    iteration_s.tolist(),
                    comm_frac.tolist(),
                    (peak <= usable).tolist(),
                    (L % p == 0).tolist(),
                    np.array(policies, dtype=object)[policy].tolist(),
                    peak.tolist(),
                    np.array(PHASES, dtype=object)[peak_phase].tolist(),
                ),
            )
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
        # degree's layer in one engine grid, then every cell in one
        # array pass.
        degrees = [t for t in _divisors(num_gpus) if t <= self.topology.gpus_per_node]
        layers = self.tp_model.layer_costs(cfg, degrees)
        cells = [
            (t, p, num_gpus // (t * p))
            for t in layers
            for p in _divisors(num_gpus // t)
            # More stages than layers is infeasible under any policy.
            if p <= cfg.num_layers
        ]
        plans = self._score_cells(cfg, cells, layers, policies, require_fit)
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

    Each row carries the verdict and the peak phase — for rejects, the
    overflowing phase :meth:`ParallelPlanner.check_capacity`'s typed
    :class:`~repro.errors.CapacityError` names — and the harness
    snapshots this as the OOM-wall golden.  Every feasible cell is
    priced in one :func:`~repro.trainstep.memory.estimate_memory_cells`
    call.
    """
    budget = planner.budget()
    cells: List[Tuple[int, int]] = []
    for t in tp_degrees:
        for p in pipeline_stages:
            try:
                validate_tp_feasible(cfg, t)
                _check_stages(cfg, p)
            except ParallelismError:
                continue
            cells.append((t, p))
    verdicts: Dict[Tuple[int, int], Tuple[float, str]] = {}
    if cells:
        memory = estimate_memory_cells(
            cfg, [t for t, _p in cells], [p for _t, p in cells], checkpointing
        )
        verdicts = dict(
            zip(cells, zip(memory.peak_bytes.tolist(), memory.peak_phase))
        )
    rows: List[dict] = []
    for t in tp_degrees:
        for p in pipeline_stages:
            peak, phase = verdicts.get((t, p), (0.0, "infeasible"))
            rows.append(
                {
                    "tp": t,
                    "pp": p,
                    "fits": (t, p) in verdicts and peak <= budget.usable_bytes,
                    "phase": phase,
                    "peak_gb": peak / 1e9,
                    "budget_gb": budget.usable_bytes / 1e9,
                }
            )
    return rows


def _check_stages(cfg: TransformerConfig, p: int) -> None:
    """Raise :class:`ParallelismError` unless ``1 <= p <= num_layers``."""
    if p <= 0:
        raise ParallelismError(f"pipeline stages must be positive, got {p}")
    if cfg.num_layers < p:
        raise ParallelismError(
            f"{p} pipeline stages exceed {cfg.num_layers} layers"
        )
