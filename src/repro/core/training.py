"""Training-step latency model (the paper's "trained 20% faster" claim).

A training step is the forward pass, the backward pass (each forward
GEMM induces a dgrad and a wgrad GEMM of equal FLOPs —
:func:`repro.core.gemms.backward_gemms_for`), roughly doubled pointwise
traffic, the optimizer update (a pure weight/optimizer-state streaming
pass), and optionally a data-parallel gradient all-reduce.  Because the
backward GEMMs are transposes of the forward shapes, *the same
alignment pathologies hit them too* — which is why shape retunes speed
up training end-to-end, not just inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import TransformerConfig
from repro.core.gemms import backward_gemms_for, logit_gemm
from repro.core.latency import LatencyBreakdown, LayerLatencyModel
from repro.errors import ConfigError
from repro.gpu.specs import GPUSpec, get_gpu
from repro.parallelism.comm import CommModel
from repro.types import DType, teraflops

# Bytes of optimizer traffic per parameter for mixed-precision Adam:
# read+write fp32 master weight, m, v (6 x 4 B) plus the fp16 weight
# write and gradient read (2 x 2 B).
_ADAM_BYTES_PER_PARAM = 28
_POINTWISE_BW_EFFICIENCY = 0.75


@dataclass(frozen=True)
class TrainingStep:
    """Latency decomposition of one training step on one GPU."""

    forward_s: float
    backward_s: float
    optimizer_s: float
    allreduce_s: float
    flops: int
    tokens: int

    @property
    def total_s(self) -> float:
        return self.forward_s + self.backward_s + self.optimizer_s + self.allreduce_s

    @property
    def tokens_per_second(self) -> float:
        return self.tokens / self.total_s if self.total_s else 0.0

    @property
    def tflops(self) -> float:
        """Achieved model TFLOP/s over the step."""
        return teraflops(self.flops, self.total_s) if self.total_s else 0.0

    @property
    def backward_to_forward_ratio(self) -> float:
        return self.backward_s / self.forward_s if self.forward_s else 0.0


class TrainingStepModel:
    """Latency of one optimizer step for a model configuration."""

    def __init__(
        self,
        gpu: "str | GPUSpec" = "A100",
        dtype: "str | DType" = DType.FP16,
        flash_attention: bool = False,
    ) -> None:
        self.spec = get_gpu(gpu)
        self.dtype = DType.parse(dtype)
        self.layer_model = LayerLatencyModel(
            self.spec, self.dtype, flash_attention=flash_attention
        )
        self.flash = flash_attention

    # -- pieces ------------------------------------------------------------------

    def forward_breakdown(self, cfg: TransformerConfig) -> LatencyBreakdown:
        return self.layer_model.model_breakdown(cfg)

    def backward_breakdown(self, cfg: TransformerConfig) -> LatencyBreakdown:
        """dgrad + wgrad GEMMs plus doubled pointwise traffic."""
        bd = LatencyBreakdown()
        layer_bops = [
            bop
            for op in self.layer_model.layer_ops(cfg)
            for bop in backward_gemms_for(op)
        ]
        logit_bops = backward_gemms_for(logit_gemm(cfg))
        # Every backward GEMM, the logit's included, in one engine call.
        perfs = self.layer_model.gemm_perfs(layer_bops + logit_bops)
        latency = perfs.latency_s.tolist()
        for bop, seconds in zip(layer_bops, latency):
            bd.add(bop.module, seconds * cfg.num_layers)
            bd.flops += bop.flops * cfg.num_layers
        for bop, seconds in zip(logit_bops, latency[len(layer_bops):]):
            bd.add(bop.module, seconds)
            bd.flops += bop.flops
        if self.flash:
            # FlashAttention backward recomputes the forward and runs
            # ~2.5x its FLOPs in one fused kernel.
            batch = cfg.microbatch * cfg.num_heads // cfg.tp_degree
            fp = self.layer_model.flash_model.evaluate(
                batch, cfg.seq_len, cfg.head_dim
            )
            bd.add("flash_attention.bwd", 2.5 * fp.latency_s * cfg.num_layers)
            bd.flops += int(2.5 * fp.flops) * cfg.num_layers
        # Pointwise backward: roughly mirrors the forward's non-GEMM
        # traffic (norm/softmax/activation backward read the saved
        # activations and write gradients).
        fwd = self.layer_model.model_breakdown(cfg)
        pointwise_fwd = fwd.total_s - fwd.gemm_s
        bd.add("pointwise_bwd", pointwise_fwd)
        return bd

    def optimizer_s(self, cfg: TransformerConfig) -> float:
        """Adam update: stream weights + optimizer states once."""
        params = cfg.param_count() / cfg.tp_degree
        bw = self.spec.mem_bw_bytes_per_s() * _POINTWISE_BW_EFFICIENCY
        return params * _ADAM_BYTES_PER_PARAM / bw

    # -- public API -----------------------------------------------------------------

    def step(
        self,
        cfg: TransformerConfig,
        grad_accumulation: int = 1,
        data_parallel: int = 1,
        comm: Optional[CommModel] = None,
    ) -> TrainingStep:
        """One optimizer step: G micro-steps of fwd+bwd, then update.

        ``comm`` provides the gradient all-reduce cost when
        ``data_parallel > 1`` (defaults to a 100 GB/s link model).
        """
        if grad_accumulation <= 0 or data_parallel <= 0:
            raise ConfigError("grad_accumulation and data_parallel must be positive")
        fwd = self.forward_breakdown(cfg)
        bwd = self.backward_breakdown(cfg)
        allreduce = 0.0
        if data_parallel > 1:
            comm = comm or CommModel(bw_bytes_s=100e9)
            grad_bytes = cfg.param_count() / cfg.tp_degree * self.dtype.bytes
            allreduce = comm.allreduce(grad_bytes, data_parallel)
        return TrainingStep(
            forward_s=fwd.total_s * grad_accumulation,
            backward_s=bwd.total_s * grad_accumulation,
            optimizer_s=self.optimizer_s(cfg),
            allreduce_s=allreduce,
            flops=(fwd.flops + bwd.flops) * grad_accumulation,
            tokens=cfg.tokens_per_microbatch * grad_accumulation,
        )

    def tokens_per_second(self, cfg: TransformerConfig, **kw) -> float:
        return self.step(cfg, **kw).tokens_per_second

    def speedup(
        self, baseline: TransformerConfig, candidate: TransformerConfig, **kw
    ) -> float:
        """Training-throughput ratio candidate/baseline (>1 = faster)."""
        return self.tokens_per_second(candidate, **kw) / self.tokens_per_second(
            baseline, **kw
        )
