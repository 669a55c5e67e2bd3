"""Sensitivity analysis: which shape knob matters most?

The paper's rules say *what* to fix; this module ranks *where to look
first* for a given model on a given GPU, by perturbing each shape
hyperparameter within its feasible neighbourhood and measuring the
modelled end-to-end effect:

- heads: every divisor of h within 2x of the current a,
- vocabulary: padding to the next 64-multiple,
- microbatch: doubling (if memory allows it, per the budget),
- hidden size: +/- one 64-step with layer compensation,
- SwiGLU width: +/- 256 (when applicable).

The output is a ranked :class:`Sensitivity` list — the largest
achievable |effect| per knob — which is what a practitioner actually
wants from the paper: a to-do list sorted by payoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.config import TransformerConfig
from repro.core.latency import LayerLatencyModel
from repro.core.memory import MemoryBudget
from repro.errors import ConfigError
from repro.gpu.specs import GPUSpec
from repro.trainstep.memory import estimate_memory
from repro.types import DType


@dataclass(frozen=True)
class Sensitivity:
    """Best achievable effect of one knob, with the move that gets it.

    ``speedup`` is the model-latency ratio baseline/best (> 1 means the
    move helps).
    """

    knob: str
    best_move: str
    speedup: float
    config: Optional[TransformerConfig]

    @property
    def worthwhile(self) -> bool:
        return self.speedup > 1.005

    def describe(self) -> str:
        flag = "" if self.worthwhile else " (not worthwhile)"
        return f"{self.knob:<12} {self.speedup:6.3f}x  {self.best_move}{flag}"


class WhatIfAnalyzer:
    """Ranks shape knobs by their best modelled payoff."""

    def __init__(
        self,
        gpu: "str | GPUSpec" = "A100",
        dtype: "str | DType" = DType.FP16,
        flash_attention: bool = False,
        memory_budget: Optional[MemoryBudget] = None,
    ) -> None:
        self.model = LayerLatencyModel(gpu, dtype, flash_attention=flash_attention)
        self.budget = memory_budget or MemoryBudget.for_gpu(self.model.spec)

    # -- knob explorations ---------------------------------------------------------

    def _latency(self, cfg: TransformerConfig) -> float:
        return self.model.model_latency(cfg)

    def _explore(
        self,
        base_latency: float,
        candidates: "List[Tuple[str, TransformerConfig]]",
        knob: str,
    ) -> Sensitivity:
        best_speedup, best_move, best_cfg = 1.0, "keep as is", None
        for move, cand in candidates:
            try:
                speedup = base_latency / self._latency(cand)
            except ConfigError:
                continue
            if speedup > best_speedup:
                best_speedup, best_move, best_cfg = speedup, move, cand
        return Sensitivity(
            knob=knob, best_move=best_move, speedup=best_speedup, config=best_cfg
        )

    def heads(self, cfg: TransformerConfig, base: float) -> Sensitivity:
        candidates = []
        for a in range(max(1, cfg.num_heads // 2), 2 * cfg.num_heads + 1):
            if a != cfg.num_heads and cfg.hidden_size % a == 0:
                candidates.append(
                    (f"a: {cfg.num_heads} -> {a}", cfg.with_overrides(num_heads=a))
                )
        return self._explore(base, candidates, "heads")

    def vocabulary(self, cfg: TransformerConfig, base: float) -> Sensitivity:
        padded = -(-cfg.vocab_size // 64) * 64
        candidates = []
        if padded != cfg.vocab_size:
            candidates.append(
                (
                    f"v: {cfg.vocab_size} -> {padded}",
                    cfg.with_overrides(vocab_size=padded),
                )
            )
        return self._explore(base, candidates, "vocabulary")

    def microbatch(self, cfg: TransformerConfig, base: float) -> Sensitivity:
        """Doubling b, gated by the training-memory budget.

        Measured per token: latency/token, since doubling b doubles the
        work.
        """
        doubled = cfg.with_overrides(microbatch=2 * cfg.microbatch)
        if not estimate_memory(doubled).fits(self.budget):
            return Sensitivity(
                knob="microbatch",
                best_move=f"b={2 * cfg.microbatch} exceeds the memory budget",
                speedup=1.0,
                config=None,
            )
        per_token_base = base / cfg.tokens_per_microbatch
        per_token_new = self._latency(doubled) / doubled.tokens_per_microbatch
        return Sensitivity(
            knob="microbatch",
            best_move=f"b: {cfg.microbatch} -> {2 * cfg.microbatch}",
            speedup=per_token_base / per_token_new,
            config=doubled,
        )

    def hidden(self, cfg: TransformerConfig, base: float) -> Sensitivity:
        candidates = []
        for h in (cfg.hidden_size - 64, cfg.hidden_size + 64):
            if h <= 0 or h % cfg.num_heads:
                continue
            L = max(
                1,
                round(
                    12 * cfg.hidden_size**2 * cfg.num_layers / (12 * h * h)
                ),
            )
            candidates.append(
                (
                    f"h: {cfg.hidden_size} -> {h} (L -> {L})",
                    cfg.with_overrides(hidden_size=h, num_layers=L),
                )
            )
        return self._explore(base, candidates, "hidden")

    def swiglu_width(self, cfg: TransformerConfig, base: float) -> Sensitivity:
        if cfg.mlp_kind != "swiglu":
            return Sensitivity(
                knob="swiglu_width",
                best_move="not a SwiGLU model",
                speedup=1.0,
                config=None,
            )
        candidates = []
        for d in (cfg.d_ff - 256, cfg.d_ff + 256):
            if d > 0:
                candidates.append(
                    (f"d_ff: {cfg.d_ff} -> {d}", cfg.with_overrides(intermediate_size=d))
                )
        return self._explore(base, candidates, "swiglu_width")

    # -- public API -------------------------------------------------------------------

    def rank(self, cfg: TransformerConfig) -> List[Sensitivity]:
        """All knobs, largest payoff first."""
        base = self._latency(cfg)
        results = [
            self.heads(cfg, base),
            self.vocabulary(cfg, base),
            self.microbatch(cfg, base),
            self.hidden(cfg, base),
            self.swiglu_width(cfg, base),
        ]
        return sorted(results, key=lambda s: -s.speedup)

    def report(self, cfg: TransformerConfig) -> str:
        lines = [cfg.describe(), f"target: {self.model.spec.name}", ""]
        lines += [s.describe() for s in self.rank(cfg)]
        return "\n".join(lines)
