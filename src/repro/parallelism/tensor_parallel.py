"""Megatron-style tensor parallelism over the Table II GEMMs.

Column-parallel QKV / MLP-up, row-parallel projection / MLP-down, one
all-reduce after the attention block and one after the MLP block (per
forward pass).  The per-rank GEMM shapes are the paper's Table II with
the ``/t`` divisions, so they exist only under the feasibility rule the
Sec VII-A case study turns on: ``a % t == 0`` and ``d_ff % t == 0``
(plus ``kv_heads % t == 0``, which grouped-query attention adds), kept
once in :func:`repro.core.gemms.tp_problem`.

:meth:`TensorParallelLayer.layer_costs` prices every feasible degree's
per-rank GEMMs in **one** engine grid through
:meth:`~repro.core.latency.LayerLatencyModel.sharded_breakdowns`, which
reads each degree's rows straight from the Table II row source
(:func:`repro.core.gemms.layer_rows`, ``t`` an argument): no sharded
configuration is built.  Totals are bit-identical to pricing one GEMM
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.core.config import TransformerConfig
from repro.core.gemms import validate_tp_feasible
from repro.core.latency import LatencyBreakdown, LayerLatencyModel
from repro.errors import ParallelismError
from repro.parallelism.topology import NodeTopology, get_system
from repro.types import DType


@dataclass(frozen=True)
class TPLayerCost:
    """Per-rank latency decomposition of one tensor-parallel layer."""

    compute_s: float
    comm_s: float
    tp_degree: int

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s

    @property
    def comm_fraction(self) -> float:
        return self.comm_s / self.total_s if self.total_s else 0.0


class TensorParallelLayer:
    """Latency of one transformer layer under t-way tensor parallelism.

    Combines the single-GPU latency model (evaluated on per-rank
    shapes) with the two per-layer all-reduces of the Megatron forward
    pass, costed over the group's interconnect.
    """

    def __init__(
        self,
        system: "str | NodeTopology",
        dtype: "str | DType" = DType.FP16,
        flash_attention: bool = False,
    ) -> None:
        self.topology = get_system(system)
        self.dtype = DType.parse(dtype)
        self.latency_model = LayerLatencyModel(
            self.topology.gpu, self.dtype, flash_attention=flash_attention
        )

    def _check_feasible(self, cfg: TransformerConfig, t: int) -> None:
        """Raise :class:`ParallelismError` if ``t`` ranks cannot shard cfg."""
        validate_tp_feasible(cfg, t)

    def layer_cost(self, cfg: TransformerConfig, t: int) -> TPLayerCost:
        """Per-rank compute + collective time of one layer forward.

        Raises :class:`ParallelismError` if ``t`` cannot shard ``cfg``.
        """
        self._check_feasible(cfg, t)
        return self.layer_costs(cfg, [t])[t]

    def layer_costs(
        self, cfg: TransformerConfig, degrees: Iterable[int]
    ) -> Dict[int, TPLayerCost]:
        """Layer cost per feasible TP degree (infeasible ones omitted).

        Every feasible degree's per-rank GEMMs are priced in one engine
        grid, so sweeping degrees costs one engine call, not one scalar
        call per GEMM.
        """
        feasible: List[int] = []
        for t in degrees:
            try:
                self._check_feasible(cfg, t)
            except ParallelismError:
                continue
            feasible.append(t)
        layers = self.latency_model.sharded_breakdowns(cfg, feasible)
        return {t: self._compose(cfg, t, layer) for t, layer in zip(feasible, layers)}

    def _compose(
        self, cfg: TransformerConfig, t: int, bd: LatencyBreakdown
    ) -> TPLayerCost:
        """A degree's cost from its per-rank layer breakdown."""
        return TPLayerCost(
            compute_s=bd.total_s, comm_s=self._allreduce_pair_s(cfg, t), tp_degree=t
        )

    def _allreduce_pair_s(self, cfg: TransformerConfig, t: int) -> float:
        """Megatron forward: one all-reduce after attention, one after MLP."""
        activation_bytes = (
            cfg.microbatch * cfg.seq_len * cfg.hidden_size * self.dtype.bytes
        )
        return 2 * self.topology.comm_for(t).allreduce(activation_bytes, t)
