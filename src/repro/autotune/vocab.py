"""Vocabulary padding (paper Sec VI-B rule 1, Fig 20).

"The vocabulary size should be divisible by 64": padding GPT-2's 50257
tokens to 50304 famously bought nanoGPT a ~25% step-time improvement.
The logit GEMM ``(b*s, h) x (h, v)`` has v as the contiguous dimension
of its weight operand, so an odd v defeats vectorized fragment loads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.core import default_engine
from repro.engine.vectorized import shape_array
from repro.errors import ConfigError
from repro.gpu.specs import GPUSpec
from repro.types import DType


def pad_vocab(v: int, multiple: int = 64) -> int:
    """Round a vocabulary size up to the next multiple (identity if
    already aligned)."""
    if v <= 0 or multiple <= 0:
        raise ConfigError(f"v and multiple must be positive: {v}, {multiple}")
    return -(-v // multiple) * multiple


@dataclass(frozen=True)
class VocabPaddingGain:
    """Modelled effect of padding the vocabulary for the logit GEMM."""

    original_v: int
    padded_v: int
    original_s: float
    padded_s: float

    @property
    def speedup(self) -> float:
        """Latency ratio original/padded (>1 means padding helps).

        Note the padded GEMM does *more* useful-looking work (wider
        output); the win is that it does it so much more efficiently
        that it finishes sooner anyway.
        """
        return self.original_s / self.padded_s

    @property
    def extra_tokens(self) -> int:
        return self.padded_v - self.original_v


def vocab_padding_gain(
    v: int,
    h: int,
    tokens: int,
    gpu: "str | GPUSpec" = "A100",
    dtype: "str | DType" = DType.FP16,
    multiple: int = 64,
) -> VocabPaddingGain:
    """Model the logit-GEMM latency before/after padding ``v``."""
    padded = pad_vocab(v, multiple)
    latency = default_engine().latency(shape_array(tokens, [v, padded], h), gpu, dtype)
    return VocabPaddingGain(
        original_v=v,
        padded_v=padded,
        original_s=float(latency[0]),
        padded_s=float(latency[1]),
    )
