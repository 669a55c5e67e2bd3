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

A decode sweep is priced as one engine batch:
:meth:`InferenceModel.decode_steps` takes every ``(cfg, context_len,
batch)`` point of the sweep, and :meth:`~InferenceModel.decode_step` is
its one-point view.  Readers of the streaming terms alone (KV-cache
traffic, weight stream, launch overhead) use
:meth:`~InferenceModel.decode_streaming`, which prices no GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

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


class StreamingTerms(NamedTuple):
    """The engine-free seconds of one decode step."""

    weight_s: float
    kv_cache_s: float
    overhead_s: float


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


def _check_point(context_len: int, batch: int) -> None:
    if context_len <= 0 or batch <= 0:
        raise ConfigError("context_len and batch must be positive")


def _attended(cfg: TransformerConfig, context_len: int) -> int:
    """Cached context a decode step attends over.

    Sliding-window attention bounds the attended (and cached) context.
    (Grouped-query attention shrinks the cached *width* instead: the KV
    term uses ``cfg.kv_dim``.)
    """
    if cfg.attention_window is not None:
        return min(context_len, cfg.attention_window)
    return context_len


def _decode_rows(
    cfg: TransformerConfig, context_len: int, batch: int
) -> List[Tuple[int, int, int, int]]:
    """One decode step's skinny (m, n, k, batch) rows, logit row last.

    Reuses the Table II mapping with b*s replaced by the decode row
    count (batch x 1 token); the attention GEMMs run over the attended
    context.
    """
    decode_cfg = cfg.with_overrides(microbatch=batch, seq_len=1)
    rows = []
    for op in layer_gemms(decode_cfg):
        if op.module == "attention_score":
            # Context-length attention: (1, d) x (d, ctx) per head.
            rows.append((1, context_len, op.k, op.batch))
        elif op.module == "attention_over_value":
            rows.append((1, cfg.head_dim, context_len, op.batch))
        else:
            rows.append((op.m, op.n, op.k, 1))
    logit = logit_gemm(decode_cfg)
    rows.append((logit.m, logit.n, logit.k, 1))
    return rows


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

    def decode_streaming(
        self,
        cfg: TransformerConfig,
        context_len: int,
        batch: int = 1,
    ) -> StreamingTerms:
        """Weight, KV-cache and launch-overhead seconds of one decode step.

        The engine-free part of :meth:`decode_step`, for readers that
        need only the streaming terms: no GEMM is priced.
        """
        _check_point(context_len, batch)
        return self._streaming(cfg, context_len, batch)

    def _streaming(
        self, cfg: TransformerConfig, context_len: int, batch: int
    ) -> StreamingTerms:
        bw = self.spec.mem_bw_bytes_per_s() * _BW_EFFICIENCY
        weight_bytes = float(cfg.param_count()) * self.dtype.bytes
        kv_bytes = kv_cache_bytes(
            batch,
            _attended(cfg, context_len),
            cfg.kv_dim,
            cfg.num_layers,
            self.dtype.bytes,
        )
        kernels = cfg.num_layers * _KERNELS_PER_LAYER_DECODE + 2
        return StreamingTerms(
            weight_s=weight_bytes / bw,
            kv_cache_s=kv_bytes / bw,
            overhead_s=kernels * self.spec.kernel_overhead_s,
        )

    def decode_steps(
        self, points: "Sequence[Tuple[TransformerConfig, int, int]]"
    ) -> List[DecodePerf]:
        """Decode steps at many ``(cfg, context_len, batch)`` points.

        Each step composes (a) the weight-streaming floor — every
        parameter read once, (b) KV-cache traffic for the attention
        over the context, (c) per-kernel launch overhead, and (d) the
        skinny GEMM estimates themselves, taking the max of the
        GEMM-model and streaming views (they converge for large h).
        Every point is validated before any GEMM is priced; the skinny
        rows of all points go to the engine as one batch (one engine
        call per sweep), and a point gets the same answer whether it is
        priced alone or in a sweep.
        """
        points = list(points)
        for _, context_len, batch in points:
            _check_point(context_len, batch)
        if not points:
            return []
        rows: List[Tuple[int, int, int, int]] = []
        ends = []
        for cfg, context_len, batch in points:
            rows += _decode_rows(cfg, _attended(cfg, context_len), batch)
            ends.append(len(rows))
        latencies = default_engine().latency(
            shape_array(*zip(*rows)), self.spec, self.dtype
        )
        steps = []
        start = 0
        for (cfg, context_len, batch), end in zip(points, ends):
            # Per-layer rows times the layer count, plus the logit row.
            gemm_s = (
                float(latencies[start : end - 1].sum()) * cfg.num_layers
                + float(latencies[end - 1])
            )
            steps.append(
                DecodePerf(*self._streaming(cfg, context_len, batch), gemm_s=gemm_s)
            )
            start = end
        return steps

    def decode_step(
        self,
        cfg: TransformerConfig,
        context_len: int,
        batch: int = 1,
    ) -> DecodePerf:
        """One autoregressive step with ``context_len`` cached tokens.

        A one-point :meth:`decode_steps`; callers pricing a sweep should
        pass every point to that method instead.
        """
        return self.decode_steps([(cfg, context_len, batch)])[0]

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
