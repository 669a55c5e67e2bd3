"""Decode batching: the serving throughput/latency trade-off.

A single decode stream leaves the GPU weight-streaming-bound: every
parameter is read once per generated token regardless of batch size.
Batching B concurrent sequences amortizes that weight traffic over B
tokens — throughput climbs steeply — while per-token latency rises only
through the (per-sequence) KV-cache traffic and the widening GEMMs.
This is why serving engines batch aggressively, and it falls directly
out of the paper's decode-GEMV analysis.

:class:`BatchingAnalyzer` sweeps the batch size and reports the curve,
the memory-feasible maximum batch, and the knee where marginal
throughput gains drop off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.config import TransformerConfig
from repro.core.memory import MemoryBudget, inference_bytes
from repro.errors import ConfigError
from repro.gpu.specs import GPUSpec, get_gpu
from repro.inference.latency import InferenceModel


@dataclass(frozen=True)
class BatchPoint:
    """Decode behaviour at one batch size."""

    batch: int
    per_token_ms: float
    tokens_per_s: float
    fits_memory: bool

    @property
    def throughput_per_stream(self) -> float:
        return self.tokens_per_s / self.batch if self.batch else 0.0


class BatchingAnalyzer:
    """Sweeps decode batch sizes for one model on one GPU."""

    def __init__(self, gpu: "str | GPUSpec" = "A100-80GB") -> None:
        self.spec = get_gpu(gpu)
        self.model = InferenceModel(self.spec)
        self.budget = MemoryBudget.for_gpu(self.spec)

    def point(
        self, cfg: TransformerConfig, batch: int, context_len: int = 1024
    ) -> BatchPoint:
        """Evaluate one batch size."""
        return self._points(cfg, [batch], context_len)[0]

    def _points(
        self, cfg: TransformerConfig, batches: Sequence[int], context_len: int
    ) -> List[BatchPoint]:
        """Several batch sizes, priced as one decode sweep."""
        steps = self.model.decode_steps([(cfg, context_len, b) for b in batches])
        return [
            BatchPoint(
                batch=batch,
                per_token_ms=step.latency_s * 1e3,
                tokens_per_s=batch / step.latency_s,
                fits_memory=self._fits(cfg, batch, context_len),
            )
            for batch, step in zip(batches, steps)
        ]

    def _fits(self, cfg: TransformerConfig, batch: int, context_len: int) -> bool:
        return self.budget.fits(
            inference_bytes(cfg, context_len=context_len, batch=batch)
        )

    def sweep(
        self,
        cfg: TransformerConfig,
        context_len: int = 1024,
        max_batch: int = 256,
    ) -> List[BatchPoint]:
        """Power-of-two batch sweep up to ``max_batch``."""
        if max_batch <= 0:
            raise ConfigError("max_batch must be positive")
        batches = []
        b = 1
        while b <= max_batch:
            batches.append(b)
            b *= 2
        return self._points(cfg, batches, context_len)

    def max_feasible_batch(
        self, cfg: TransformerConfig, context_len: int = 1024, max_batch: int = 4096
    ) -> int:
        """Largest power-of-two batch whose KV cache + weights fit.

        A memory question only: no decode step is priced.
        """
        best = 0
        b = 1
        while b <= max_batch:
            if not self._fits(cfg, b, context_len):
                break
            best = b
            b *= 2
        return best

    def knee(
        self, cfg: TransformerConfig, context_len: int = 1024, threshold: float = 1.5
    ) -> int:
        """Batch size where doubling stops paying ``threshold``x throughput.

        Below the knee, doubling the batch nearly doubles tokens/s (the
        weight stream is shared); past it, the per-sequence KV traffic
        dominates and doubling buys little.
        """
        if not (1.0 < threshold < 2.0):
            raise ConfigError("threshold must be in (1, 2)")
        points = self.sweep(cfg, context_len)
        for prev, nxt in zip(points, points[1:]):
            if nxt.tokens_per_s < threshold * prev.tokens_per_s:
                return prev.batch
        return points[-1].batch
