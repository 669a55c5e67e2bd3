"""Per-GPU memory accounting shared by training and inference.

The paper's parallelism rules exist because memory forces sharding:
"the microbatch size b should be as large as possible" *until activation
memory binds*, and "t should be as small as possible" *subject to the
model fitting*.  This module holds the pieces both sides use:

- :func:`activation_bytes_per_layer` — the closed-form activation
  footprint of one layer (the reference the per-module training walk in
  :mod:`repro.trainstep.memory` sums to),
- :func:`inference_bytes` — weights + KV cache at a context length,
- :class:`MemoryBudget` — a per-GPU budget with headroom.

The training-step footprint itself (per module, per phase, under a
checkpointing policy) and the largest microbatch that fits a budget
live in :mod:`repro.trainstep.memory`.

Activation accounting follows the standard per-layer coefficient for
the unfused transformer (Korthikanti et al.): ``s*b*h*(34 + 5*a*s/h)``
bytes at fp16 without recomputation, divided by t for the tensor-
parallel shards, with the attention term dropped under FlashAttention.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import TransformerConfig
from repro.core.formulas import kv_cache_bytes
from repro.errors import ConfigError
from repro.gpu.specs import GPUSpec, get_gpu

_FP16 = 2


@dataclass(frozen=True)
class MemoryBreakdown:
    """Per-GPU memory decomposition.

    ``weights_and_optimizer``, ``activations``, and ``kv_cache`` are
    all bytes.
    """

    weights_and_optimizer: float
    activations: float
    kv_cache: float = 0.0

    @property
    def total(self) -> float:
        return self.weights_and_optimizer + self.activations + self.kv_cache

    def gb(self) -> float:
        return self.total / 1e9


def activation_bytes_per_layer(
    cfg: TransformerConfig, flash_attention: bool = False
) -> float:
    """Stored activations of one layer for one microbatch (fp16, no
    recomputation), per tensor-parallel rank."""
    s, b, h, a, t = (
        cfg.seq_len,
        cfg.microbatch,
        cfg.hidden_size,
        cfg.num_heads,
        cfg.tp_degree,
    )
    dense = 34.0 * s * b * h
    attention = 0.0 if flash_attention else 5.0 * a * s * s * b
    return (dense + attention) / t


def inference_bytes(
    cfg: TransformerConfig, context_len: int, batch: int = 1
) -> MemoryBreakdown:
    """Inference footprint: fp16 weights + KV cache, per GPU.

    Sliding-window attention bounds the cached context at the window.
    """
    if context_len <= 0 or batch <= 0:
        raise ConfigError("context_len and batch must be positive")
    weights = cfg.param_count() / cfg.tp_degree * _FP16
    if cfg.attention_window is not None:
        context_len = min(context_len, cfg.attention_window)
    kv = kv_cache_bytes(batch, context_len, cfg.kv_dim, cfg.num_layers) / cfg.tp_degree
    return MemoryBreakdown(
        weights_and_optimizer=weights, activations=0.0, kv_cache=kv
    )


@dataclass(frozen=True)
class MemoryBudget:
    """A per-GPU memory budget with a reserved headroom fraction."""

    capacity_bytes: float
    headroom: float = 0.08

    @classmethod
    def for_gpu(cls, gpu: "str | GPUSpec", headroom: float = 0.08) -> "MemoryBudget":
        spec = get_gpu(gpu)
        return cls(capacity_bytes=spec.memory_gb * 1e9, headroom=headroom)

    @property
    def usable_bytes(self) -> float:
        return self.capacity_bytes * (1.0 - self.headroom)

    def fits(self, breakdown: MemoryBreakdown) -> bool:
        return breakdown.total <= self.usable_bytes
