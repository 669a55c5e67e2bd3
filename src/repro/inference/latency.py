"""Prefill + decode latency model.

The paper's inference argument (Sec VII-C): models trained efficiently
on a GPU also infer efficiently on it, because the forward-pass GEMMs
are identical.  Prefill here literally reuses
:class:`~repro.core.latency.LayerLatencyModel`, priced as a one-config
engine grid.  Decode is modelled as
what it is on hardware: a sweep of skinny GEMMs (m = batch) that stream
every weight matrix and the KV cache from DRAM once per token, plus a
fixed launch overhead per kernel — which is why *layer count* hurts
small models (Pythia-410M) and *large hidden sizes* help (Pythia-1B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import TransformerConfig
from repro.core.formulas import kv_cache_bytes
from repro.core.gemms import layer_gemms, logit_gemm
from repro.core.latency import LayerLatencyModel
from repro.engine.core import default_engine
from repro.engine.vectorized import shape_array
from repro.errors import ConfigError
from repro.gpu.specs import GPUSpec, get_gpu
from repro.types import DType

# Distinct kernel launches per decoded token per layer: QKV, two
# attention BMMs, softmax, projection, 2 norms, 2 residuals, MLP pair,
# activation (GPT-NeoX-style unfused decode path).
_KERNELS_PER_LAYER_DECODE = 12
_BW_EFFICIENCY = 0.82


@dataclass(frozen=True)
class PrefillPerf:
    """Latency of processing the prompt (one forward pass)."""

    latency_s: float
    tokens: int

    @property
    def tokens_per_s(self) -> float:
        return self.tokens / self.latency_s if self.latency_s else 0.0


@dataclass(frozen=True)
class DecodePerf:
    """Per-token decode latency decomposition."""

    weight_s: float
    kv_cache_s: float
    overhead_s: float
    gemm_s: float

    @property
    def latency_s(self) -> float:
        """Seconds per generated token."""
        return max(self.weight_s + self.kv_cache_s, self.gemm_s) + self.overhead_s

    @property
    def tokens_per_s(self) -> float:
        return 1.0 / self.latency_s if self.latency_s else 0.0


class InferenceModel:
    """Latency model for autoregressive inference on one GPU."""

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

    # -- prefill -----------------------------------------------------------------

    def prefill(self, cfg: TransformerConfig, prompt_len: "int | None" = None) -> PrefillPerf:
        """Prompt processing: a full forward at the prompt length."""
        s = cfg.seq_len if prompt_len is None else prompt_len
        if s <= 0:
            raise ConfigError(f"prompt length must be positive, got {s}")
        run_cfg = cfg.with_overrides(seq_len=s) if s != cfg.seq_len else cfg
        latency = self.layer_model.model_latency(run_cfg)
        return PrefillPerf(latency_s=latency, tokens=run_cfg.tokens_per_microbatch)

    # -- decode ------------------------------------------------------------------

    def decode_step(
        self,
        cfg: TransformerConfig,
        context_len: int,
        batch: int = 1,
    ) -> DecodePerf:
        """One autoregressive step with ``context_len`` cached tokens.

        Composes (a) the weight-streaming floor — every parameter read
        once, (b) KV-cache traffic for the attention over the context,
        (c) per-kernel launch overhead, and (d) the skinny GEMM
        estimates themselves, taking the max of the GEMM-model and
        streaming views (they converge for large h).
        """
        if context_len <= 0 or batch <= 0:
            raise ConfigError("context_len and batch must be positive")
        bw = self.spec.mem_bw_bytes_per_s() * _BW_EFFICIENCY

        weight_bytes = float(cfg.param_count()) * self.dtype.bytes
        weight_s = weight_bytes / bw

        # Sliding-window attention bounds the attended (and cached)
        # context; grouped-query attention shrinks the cached width
        # from h to kv_heads * head_dim (cfg.kv_dim).
        if cfg.attention_window is not None:
            context_len = min(context_len, cfg.attention_window)
        kv_bytes = kv_cache_bytes(
            batch, context_len, cfg.kv_dim, cfg.num_layers, self.dtype.bytes
        )
        kv_s = kv_bytes / bw

        kernels = cfg.num_layers * _KERNELS_PER_LAYER_DECODE + 2
        overhead_s = kernels * self.spec.kernel_overhead_s

        # Skinny per-token GEMMs: reuse the Table II mapping with b*s
        # replaced by the decode row count (batch x 1 token), evaluated
        # as one engine batch per decode step.
        decode_cfg = cfg.with_overrides(microbatch=batch, seq_len=1)
        shapes = []
        for op in layer_gemms(decode_cfg):
            if op.module == "attention_score":
                # Context-length attention: (1, d) x (d, ctx) per head.
                shapes.append((1, context_len, op.k, op.batch))
            elif op.module == "attention_over_value":
                shapes.append((1, cfg.head_dim, context_len, op.batch))
            else:
                shapes.append((op.m, op.n, op.k, 1))
        logit = logit_gemm(decode_cfg)
        shapes.append((logit.m, logit.n, logit.k, 1))
        latencies = default_engine().latency(
            shape_array(
                [s[0] for s in shapes],
                [s[1] for s in shapes],
                [s[2] for s in shapes],
                [s[3] for s in shapes],
            ),
            self.spec,
            self.dtype,
        )
        gemm_s = float(latencies[:-1].sum()) * cfg.num_layers + float(latencies[-1])

        return DecodePerf(
            weight_s=weight_s,
            kv_cache_s=kv_s,
            overhead_s=overhead_s,
            gemm_s=gemm_s,
        )

    def generate_latency(
        self,
        cfg: TransformerConfig,
        prompt_len: int = 128,
        new_tokens: int = 128,
        batch: int = 1,
    ) -> float:
        """End-to-end seconds to generate ``new_tokens`` after a prompt.

        Decode steps are costed at the mean context length, which is
        exact for the linear KV term.
        """
        if new_tokens <= 0:
            raise ConfigError("new_tokens must be positive")
        pre = self.prefill(
            cfg.with_overrides(microbatch=batch), prompt_len=prompt_len
        )
        mean_ctx = prompt_len + (new_tokens + 1) // 2
        step = self.decode_step(cfg, context_len=mean_ctx, batch=batch)
        return pre.latency_s + new_tokens * step.latency_s

    def per_token_ms(self, cfg: TransformerConfig, context_len: int = 512) -> float:
        """Milliseconds per decoded token — Fig 13's y-axis."""
        return self.decode_step(cfg, context_len=context_len).latency_s * 1e3
