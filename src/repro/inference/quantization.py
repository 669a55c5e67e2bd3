"""Weight-quantized inference (W8A16 / W4A16) latency modeling.

Decode is weight-streaming-bound (Sec VII-C territory), so shrinking
the stored weights shrinks latency almost proportionally — the reason
weight-only quantization is the standard serving optimization.  The
model here:

- weights stream at ``bits/8`` bytes per parameter,
- activations and the KV cache stay fp16 (W*A16 schemes),
- each GEMM pays a dequantization overhead proportional to the weight
  bytes it touches (the fused dequant adds pipeline work),
- the paper's alignment rules apply *more* strictly: INT8's 128-byte
  rule is 128 elements on A100 (:mod:`repro.gpu.alignment` handles
  this via the dtype-aware grain).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import TransformerConfig
from repro.errors import ConfigError
from repro.gpu.specs import GPUSpec, get_gpu
from repro.inference.latency import InferenceModel
from repro.types import DType

#: Supported weight-only schemes: name -> bits per weight.
SCHEMES = {"fp16": 16, "int8": 8, "int4": 4}
# Fraction of extra streaming time spent in fused dequantization per
# quantized byte (measured fused kernels lose ~10-20% of bandwidth).
_DEQUANT_OVERHEAD = 0.15
_BW_EFFICIENCY = 0.82


@dataclass(frozen=True)
class QuantizedDecodePerf:
    """Per-token decode latency under weight-only quantization."""

    scheme: str
    weight_s: float
    dequant_s: float
    kv_cache_s: float
    overhead_s: float

    @property
    def latency_s(self) -> float:
        return self.weight_s + self.dequant_s + self.kv_cache_s + self.overhead_s

    @property
    def tokens_per_s(self) -> float:
        return 1.0 / self.latency_s if self.latency_s else 0.0


class QuantizedInferenceModel:
    """Decode latency under weight-only quantization schemes."""

    def __init__(self, gpu: "str | GPUSpec" = "A100") -> None:
        self.spec = get_gpu(gpu)
        self._fp16 = InferenceModel(self.spec, DType.FP16)

    def decode_step(
        self,
        cfg: TransformerConfig,
        context_len: int,
        scheme: str = "int8",
        batch: int = 1,
    ) -> QuantizedDecodePerf:
        """One autoregressive step with quantized weights."""
        if scheme not in SCHEMES:
            raise ConfigError(
                f"unknown scheme {scheme!r}; choose from {sorted(SCHEMES)}"
            )
        if context_len <= 0 or batch <= 0:
            raise ConfigError("context_len and batch must be positive")
        bits = SCHEMES[scheme]
        bw = self.spec.mem_bw_bytes_per_s() * _BW_EFFICIENCY

        weight_bytes = float(cfg.param_count()) * bits / 8.0
        weight_s = weight_bytes / bw
        dequant_s = 0.0 if scheme == "fp16" else weight_s * _DEQUANT_OVERHEAD

        # The KV cache and launch overhead stay fp16; no GEMM is priced.
        base = self._fp16.decode_streaming(cfg, context_len, batch)
        return QuantizedDecodePerf(
            scheme=scheme,
            weight_s=weight_s,
            dequant_s=dequant_s,
            kv_cache_s=base.kv_cache_s,
            overhead_s=base.overhead_s,
        )

    def speedup_vs_fp16(
        self, cfg: TransformerConfig, context_len: int, scheme: str = "int8"
    ) -> float:
        """Decode-latency ratio fp16 / quantized (>1 = faster)."""
        fp16 = self.decode_step(cfg, context_len, "fp16")
        quant = self.decode_step(cfg, context_len, scheme)
        return fp16.latency_s / quant.latency_s

    def max_context_fitting(
        self, cfg: TransformerConfig, scheme: str = "int8", batch: int = 1
    ) -> int:
        """Longest context whose weights + KV cache fit GPU memory.

        Quantization's second benefit: the freed weight bytes become KV
        cache headroom.
        """
        bits = SCHEMES[scheme] if scheme in SCHEMES else None
        if bits is None:
            raise ConfigError(f"unknown scheme {scheme!r}")
        capacity = self.spec.memory_gb * 1e9 * 0.92
        weights = cfg.param_count() * bits / 8.0
        budget = capacity - weights
        if budget <= 0:
            return 0
        per_token = 2 * batch * cfg.kv_dim * cfg.num_layers * 2  # fp16 K+V
        return int(budget // per_token)
