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
from repro.core.gemms import Row, TransformerGemm, layer_rows, logit_row
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

    def _layer_pointwise(self, cfg: TransformerConfig, t: int) -> Dict[str, float]:
        """Non-GEMM kernels of one layer on one of ``t`` ranks."""
        b, s, h, a = cfg.microbatch, cfg.seq_len, cfg.hidden_size, cfg.num_heads
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

    def layer_rows(
        self, cfg: TransformerConfig, t: int
    ) -> Tuple[List[str], List[Row]]:
        """The labelled Table II rows this model prices for one layer on
        one of ``t`` ranks, in execution order.

        Under FlashAttention the score and attention-over-value BMMs are
        fused into one kernel that :meth:`compose_rows` prices itself.
        """
        labels, rows = layer_rows(cfg, t)
        if self.flash:
            kept = [i for i, label in enumerate(labels) if label not in _FLASH_FUSED]
            labels, rows = [labels[i] for i in kept], [rows[i] for i in kept]
        return labels, rows

    def compose_rows(
        self,
        cfg: TransformerConfig,
        t: int,
        labels: Sequence[str],
        rows: Sequence[Row],
        gemm_latencies: Sequence[float],
    ) -> LatencyBreakdown:
        """One layer's breakdown on one of ``t`` ranks from its priced
        :meth:`layer_rows`.

        ``gemm_latencies[i]`` is the latency of ``rows[i]`` in seconds.
        :meth:`_priced_layers` passes the engine's grid latencies; the
        differential tests pass the scalar oracle's, which agree
        bit-for-bit, so both compose the same totals.
        """
        bd = LatencyBreakdown()
        for label, (b, m, n, k), seconds in zip(labels, rows, gemm_latencies):
            bd.add(label, seconds)
            bd.flops += 2 * b * m * n * k
        if self.flash:
            batch = cfg.microbatch * cfg.num_heads // t
            fp = self.flash_model.evaluate(batch, cfg.seq_len, cfg.head_dim)
            bd.add("flash_attention", fp.latency_s)
            bd.flops += fp.flops
        for name, seconds in self._layer_pointwise(cfg, t).items():
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
        b, m, n, k = logit_row(cfg)
        bd.flops += 2 * b * m * n * k
        return bd

    def _priced_layers(
        self, cells: Sequence[Tuple[TransformerConfig, int]], with_logit: bool
    ) -> Tuple[List[LatencyBreakdown], List[float]]:
        """Layer breakdowns (and logit latencies) of ``(cfg, t)`` cells
        from one grid.

        The grid stacks every cell's :meth:`layer_rows`, then, with
        ``with_logit``, each cell's logit row.
        """
        if not cells:
            return [], []
        groups = [self.layer_rows(cfg, t) for cfg, t in cells]
        rows = [row for _, group in groups for row in group]
        if with_logit:
            rows += [logit_row(cfg) for cfg, _ in cells]
        priced = default_engine().evaluate(
            np.array(rows, dtype=np.int64), self.spec, self.dtype
        )
        seconds = priced.latency_s.tolist()
        layers = []
        start = 0
        for (cfg, t), (labels, group) in zip(cells, groups):
            stop = start + len(group)
            layers.append(
                self.compose_rows(cfg, t, labels, group, seconds[start:stop])
            )
            start = stop
        return layers, seconds[start:]

    # -- public API ------------------------------------------------------------------

    def layer_breakdown(self, cfg: TransformerConfig) -> LatencyBreakdown:
        """Latency breakdown of a single transformer layer."""
        return self.layer_breakdowns([cfg])[0]

    def layer_breakdowns(
        self, cfgs: Sequence[TransformerConfig]
    ) -> List[LatencyBreakdown]:
        """:meth:`layer_breakdown` of every config, priced in one grid."""
        return self._priced_layers(
            [(cfg, cfg.tp_degree) for cfg in cfgs], with_logit=False
        )[0]

    def sharded_breakdowns(
        self, cfg: TransformerConfig, degrees: Sequence[int]
    ) -> List[LatencyBreakdown]:
        """The layer breakdown on one of t ranks for each t in ``degrees``."""
        return self._priced_layers([(cfg, t) for t in degrees], with_logit=False)[0]

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
        layers, logit_s = self._priced_layers(
            [(cfg, cfg.tp_degree) for cfg in cfgs], with_logit=True
        )
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
