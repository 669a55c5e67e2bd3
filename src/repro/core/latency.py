"""Per-layer / per-model latency composition (paper Sec VI-A).

Composes the GPU substrate's kernel estimates into transformer-level
latency: every Table II GEMM/BMM is priced by the shape engine — one
grid per call, whether it holds one config or a whole sweep — and the
non-GEMM remainder (layer norms, softmax, activations, residual
adds, rotary rotations) is costed as memory-bound pointwise kernels —
bytes moved over effective bandwidth plus launch overhead.  This
breakdown is exactly what the paper's Figs 1, 2 and 11 report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import TransformerConfig
from repro.core.gemms import TransformerGemm, layer_gemms, logit_gemm
from repro.engine.core import default_engine
from repro.engine.vectorized import BatchResult
from repro.errors import ConfigError
from repro.gpu.specs import GPUSpec, get_gpu
from repro.transformer.flash import FlashAttentionModel
from repro.types import DType, teraflops

#: Sustained fraction of datasheet bandwidth for pointwise kernels and
#: other streaming passes (the optimizer update included).
POINTWISE_BW_EFFICIENCY = 0.75

#: Trace/gemms module labels that are GEMM components (vs pointwise).
GEMM_COMPONENTS = (
    "qkv_transform",
    "attention_score",
    "attention_over_value",
    "attention_projection",
    "mlp_h_to_4h",
    "mlp_4h_to_h",
    "mlp_gate",
    "mlp_up",
    "mlp_down",
    "moe_router",
    "moe_mlp_h_to_4h",
    "moe_mlp_4h_to_h",
    "moe_mlp_gate",
    "moe_mlp_up",
    "moe_mlp_down",
    "logit",
    "flash_attention",
)

#: Unfused attention BMMs the FlashAttention kernel replaces.
_FLASH_FUSED = ("attention_score", "attention_over_value")


@dataclass
class LatencyBreakdown:
    """Ordered component -> seconds map with aggregate views."""

    components: Dict[str, float] = field(default_factory=dict)
    flops: int = 0

    def add(self, name: str, seconds: float) -> None:
        self.components[name] = self.components.get(name, 0.0) + seconds

    def merge(self, other: "LatencyBreakdown", times: int = 1) -> None:
        for name, seconds in other.components.items():
            self.add(name, seconds * times)
        self.flops += other.flops * times

    @property
    def total_s(self) -> float:
        return sum(self.components.values())

    @property
    def gemm_s(self) -> float:
        return sum(
            s for name, s in self.components.items() if name in GEMM_COMPONENTS
        )

    @property
    def gemm_fraction(self) -> float:
        """Fraction of latency spent in GEMM kernels (Fig 2's headline)."""
        total = self.total_s
        return self.gemm_s / total if total else 0.0

    def proportions(self) -> Dict[str, float]:
        """Component -> fraction of total latency (Fig 2)."""
        total = self.total_s or 1.0
        return {name: s / total for name, s in self.components.items()}

    def gemm_proportions(self) -> Dict[str, float]:
        """GEMM component -> fraction of the GEMM latency (Fig 11)."""
        gemm_total = self.gemm_s or 1.0
        return {
            name: s / gemm_total
            for name, s in self.components.items()
            if name in GEMM_COMPONENTS
        }

    @property
    def tflops(self) -> float:
        """Achieved throughput over the accounted FLOPs."""
        return teraflops(self.flops, self.total_s) if self.total_s else 0.0

    def summary(self) -> str:
        lines = []
        for name, seconds in sorted(
            self.components.items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"{name:<24} {seconds * 1e3:9.3f} ms  ({100 * seconds / self.total_s:5.1f}%)"
            )
        lines.append(
            f"{'total':<24} {self.total_s * 1e3:9.3f} ms  "
            f"(GEMM share {100 * self.gemm_fraction:.1f}%, {self.tflops:.1f} TFLOP/s)"
        )
        return "\n".join(lines)


class LayerLatencyModel:
    """Latency of transformer layers/models on one GPU.

    Parameters
    ----------
    gpu, dtype:
        Target architecture and GEMM element type.
    flash_attention:
        Replace the unfused score/softmax/attention-over-value path with
        the fused FlashAttention kernel model (Sec VI-C3).
    """

    def __init__(
        self,
        gpu: "str | GPUSpec" = "A100",
        dtype: "str | DType" = DType.FP16,
        flash_attention: bool = False,
    ) -> None:
        self.spec = get_gpu(gpu)
        self.dtype = DType.parse(dtype)
        self.flash = flash_attention
        self.flash_model = FlashAttentionModel(self.spec, self.dtype)

    # -- pointwise kernels ------------------------------------------------------

    def _pointwise_s(self, elements: float, reads_writes: int = 2) -> float:
        """Latency of one memory-bound elementwise kernel."""
        traffic = elements * reads_writes * self.dtype.bytes
        bw = self.spec.mem_bw_bytes_per_s() * POINTWISE_BW_EFFICIENCY
        return traffic / bw + self.spec.kernel_overhead_s

    def _layer_pointwise(self, cfg: TransformerConfig) -> Dict[str, float]:
        """Non-GEMM kernels of one layer (per tensor-parallel rank)."""
        b, s, h, a, t = (
            cfg.microbatch,
            cfg.seq_len,
            cfg.hidden_size,
            cfg.num_heads,
            cfg.tp_degree,
        )
        sbh = s * b * h
        out: Dict[str, float] = {}
        # Two layer norms: each reads and writes the full activation
        # (plus negligible statistics traffic).
        out["layernorm"] = 2 * self._pointwise_s(sbh, reads_writes=2)
        # Residual adds: read both operands, write the sum.
        out["residual"] = 2 * self._pointwise_s(sbh, reads_writes=3)
        if not self.flash:
            # Softmax over the (b*a/t, s, s) score tensor: read + write.
            scores = b * a // t * s * s
            out["softmax"] = self._pointwise_s(scores, reads_writes=2)
        if cfg.positional == "rotary":
            # Rotate q and k: read + write each, h/t wide per rank.
            out["rotary"] = 2 * self._pointwise_s(s * b * h // t, reads_writes=2)
        # MLP activation over the intermediate width; each token passes
        # through moe_top_k experts when the MLP is a mixture.
        act_tokens = s * b * (cfg.moe_top_k if cfg.num_experts else 1)
        out["activation"] = self._pointwise_s(act_tokens * cfg.d_ff // t, reads_writes=2)
        if cfg.mlp_kind == "swiglu":
            # The gate multiply reads two operands and writes one.
            out["activation"] += self._pointwise_s(
                act_tokens * cfg.d_ff // t, reads_writes=3
            )
        if cfg.num_experts:
            # Router softmax/top-k plus the gather/scatter of routed
            # tokens (read + write each way).
            out["moe_dispatch"] = self._pointwise_s(
                s * b * cfg.num_experts, reads_writes=2
            ) + self._pointwise_s(act_tokens * h, reads_writes=4)
        return out

    # -- GEMM components ----------------------------------------------------------

    def gemm_perfs(self, ops: Sequence[TransformerGemm]) -> BatchResult:
        """Evaluate many Table II operators in one engine call.

        Row ``i`` prices ``ops[i]``; its latency and TFLOP/s equal the
        scalar ``GemmModel.evaluate`` oracle bit-for-bit.
        """
        shapes = np.array(
            [(op.batch, op.m, op.n, op.k) for op in ops], dtype=np.int64
        ).reshape(-1, 4)
        return default_engine().evaluate(shapes, self.spec, self.dtype)

    def layer_ops(self, cfg: TransformerConfig) -> List[TransformerGemm]:
        """The layer's GEMMs this model prices, in execution order.

        Under FlashAttention the score and attention-over-value BMMs are
        fused into one kernel that :meth:`compose_layer` prices itself.
        """
        ops = layer_gemms(cfg)
        if self.flash:
            ops = [op for op in ops if op.module not in _FLASH_FUSED]
        return ops

    def compose_layer(
        self,
        cfg: TransformerConfig,
        ops: Sequence[TransformerGemm],
        gemm_latencies: Sequence[float],
    ) -> LatencyBreakdown:
        """One layer's breakdown from its priced :meth:`layer_ops`.

        ``gemm_latencies[i]`` is the latency of ``ops[i]`` in seconds.
        :meth:`_priced_layers` passes the engine's grid latencies; the
        differential tests pass the scalar oracle's, which agree
        bit-for-bit, so both compose the same totals.
        """
        bd = LatencyBreakdown()
        for op, seconds in zip(ops, gemm_latencies):
            bd.add(op.module, seconds)
            bd.flops += op.flops
        if self.flash:
            batch = cfg.microbatch * cfg.num_heads // cfg.tp_degree
            fp = self.flash_model.evaluate(batch, cfg.seq_len, cfg.head_dim)
            bd.add("flash_attention", fp.latency_s)
            bd.flops += fp.flops
        for name, seconds in self._layer_pointwise(cfg).items():
            bd.add(name, seconds)
        return bd

    def compose_model(
        self, cfg: TransformerConfig, layer: LatencyBreakdown, logit_s: float
    ) -> LatencyBreakdown:
        """The whole-model breakdown from one layer's and the logit GEMM's."""
        bd = LatencyBreakdown()
        bd.merge(layer, times=cfg.num_layers)
        sbh = cfg.seq_len * cfg.microbatch * cfg.hidden_size
        # Embedding gather + positional add, and the final layer norm.
        bd.add("embedding", self._pointwise_s(sbh, reads_writes=3))
        bd.add("layernorm", self._pointwise_s(sbh, reads_writes=2))
        bd.add("logit", logit_s)
        bd.flops += logit_gemm(cfg).flops
        return bd

    def _priced_layers(
        self, cfgs: Sequence[TransformerConfig], with_logit: bool
    ) -> Tuple[List[LatencyBreakdown], List[float]]:
        """Layer breakdowns (and logit latencies) of ``cfgs`` from one grid.

        The grid stacks every config's :meth:`layer_ops`, then, with
        ``with_logit``, each config's logit GEMM.
        """
        if not cfgs:
            return [], []
        groups = [self.layer_ops(cfg) for cfg in cfgs]
        logits = [logit_gemm(cfg) for cfg in cfgs] if with_logit else []
        rows = [op for group in groups for op in group] + logits
        latency = self.gemm_perfs(rows).latency_s.tolist()
        layers = []
        start = 0
        for cfg, group in zip(cfgs, groups):
            stop = start + len(group)
            layers.append(self.compose_layer(cfg, group, latency[start:stop]))
            start = stop
        return layers, latency[start:]

    # -- public API ------------------------------------------------------------------

    def layer_breakdown(self, cfg: TransformerConfig) -> LatencyBreakdown:
        """Latency breakdown of a single transformer layer."""
        return self.layer_breakdowns([cfg])[0]

    def layer_breakdowns(
        self, cfgs: Sequence[TransformerConfig]
    ) -> List[LatencyBreakdown]:
        """:meth:`layer_breakdown` of every config, priced in one grid."""
        return self._priced_layers(cfgs, with_logit=False)[0]

    def layer_latency(self, cfg: TransformerConfig) -> float:
        """Seconds for one layer's forward pass."""
        return self.layer_breakdown(cfg).total_s

    def layer_throughput_tflops(self, cfg: TransformerConfig) -> float:
        """Single-layer achieved TFLOP/s, the metric of the paper's Fig 1."""
        bd = self.layer_breakdown(cfg)
        return teraflops(bd.flops, bd.total_s)

    def model_breakdown(self, cfg: TransformerConfig) -> LatencyBreakdown:
        """Whole-model forward breakdown: L layers + embedding + logits."""
        return self.model_breakdowns([cfg])[0]

    def layer_and_model_breakdowns(
        self, cfgs: Sequence[TransformerConfig]
    ) -> List[Tuple[LatencyBreakdown, LatencyBreakdown]]:
        """Each config's (layer, model) breakdown pair, priced in one grid."""
        layers, logit_s = self._priced_layers(cfgs, with_logit=True)
        return [
            (layer, self.compose_model(cfg, layer, s))
            for cfg, layer, s in zip(cfgs, layers, logit_s)
        ]

    def model_breakdowns(
        self, cfgs: Sequence[TransformerConfig]
    ) -> List[LatencyBreakdown]:
        """:meth:`model_breakdown` of every config, priced in one grid.

        The grid holds every config's layer GEMMs and its logit GEMM.
        """
        return [model for _, model in self.layer_and_model_breakdowns(cfgs)]

    def model_latency(self, cfg: TransformerConfig) -> float:
        """Seconds for a full forward pass of one microbatch."""
        return self.model_breakdown(cfg).total_s

    def tokens_per_second(self, cfg: TransformerConfig) -> float:
        """Forward-pass token throughput of one GPU (one rank's share)."""
        latency = self.model_latency(cfg)
        if latency <= 0:
            raise ConfigError("model latency must be positive")
        return cfg.tokens_per_microbatch / latency

    def mfu(self, cfg: TransformerConfig) -> float:
        """Model FLOPs utilization: achieved / peak matrix throughput."""
        bd = self.model_breakdown(cfg)
        peak = (
            self.spec.matrix_peak_tflops(self.dtype)
            if self.spec.supports_matrix(self.dtype)
            else self.spec.vector_peak_tflops(self.dtype)
        )
        return bd.tflops / peak
