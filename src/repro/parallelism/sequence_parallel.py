"""Sequence parallelism on top of tensor parallelism (Megatron-SP).

The paper leaves "an analysis of the implications of pipeline and
sequence parallelism on optimal model shapes to future work"
(Sec III-C).  This module supplies the cost model for the established
scheme (Korthikanti et al.): within a tensor-parallel group of size t,
the regions *outside* the GEMMs — layer norms, dropout, residual adds —
are sharded along the sequence dimension, and the two per-layer
all-reduces are replaced by an all-gather entering each GEMM region and
a reduce-scatter leaving it.

Consequences captured here:

- **communication volume is unchanged** (a ring all-reduce is exactly a
  reduce-scatter followed by an all-gather of the same bytes),
- **pointwise time divides by t** (each rank norms s/t of the tokens),
- **activation memory for the norm regions divides by t**, which is the
  scheme's main payoff,
- **shape rules gain a new divisibility constraint: s % t == 0** — a
  genuinely new sizing rule in the spirit of the paper's Sec VI-B list.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import TransformerConfig
from repro.core.latency import LatencyBreakdown
from repro.errors import ParallelismError
from repro.parallelism.tensor_parallel import TensorParallelLayer, TPLayerCost


def validate_sp_feasible(cfg: TransformerConfig, t: int) -> None:
    """Sequence parallelism additionally needs s divisible by t."""
    if cfg.seq_len % t:
        raise ParallelismError(
            f"{cfg.name}: sequence length {cfg.seq_len} not divisible by "
            f"t={t}; sequence parallelism shards the token dimension"
        )


@dataclass(frozen=True)
class SPLayerCost(TPLayerCost):
    """TP cost plus the sequence-parallel pointwise saving."""

    pointwise_saved_s: float = 0.0


class SequenceParallelLayer(TensorParallelLayer):
    """Layer cost under combined tensor + sequence parallelism."""

    def _check_feasible(self, cfg: TransformerConfig, t: int) -> None:
        """TP's rule plus ``s % t == 0``."""
        validate_sp_feasible(cfg, t)
        super()._check_feasible(cfg, t)

    def _compose(
        self, cfg: TransformerConfig, t: int, bd: LatencyBreakdown
    ) -> SPLayerCost:
        """Per-rank cost with sequence-sharded pointwise regions.

        GEMM time is identical to plain TP (same per-rank shapes);
        pointwise kernels process s/t tokens each; the collectives move
        the same bytes as TP's all-reduces (all-gather + reduce-scatter
        per GEMM region x 2 regions == 2 ring all-reduces' volume).
        """
        gemm_s = bd.gemm_s
        pointwise_s = bd.total_s - gemm_s
        # Softmax lives inside the attention region (already sharded by
        # heads under TP), not in the sequence-sharded norm regions.
        softmax_s = bd.components.get("softmax", 0.0)
        shardable = pointwise_s - softmax_s
        sp_pointwise = shardable / t + softmax_s
        saved = shardable - shardable / t
        return SPLayerCost(
            compute_s=gemm_s + sp_pointwise,
            comm_s=self._allreduce_pair_s(cfg, t),
            tp_degree=t,
            pointwise_saved_s=saved,
        )

    def activation_savings_fraction(self, cfg: TransformerConfig, t: int) -> float:
        """Fraction of the norm-region activations SP removes: 1 - 1/t."""
        validate_sp_feasible(cfg, t)
        if t <= 0:
            raise ParallelismError("t must be positive")
        return 1.0 - 1.0 / t
