"""Sensitivity analysis: which shape knob matters most?

The paper's rules say *what* to fix; this module ranks *where to look
first* for a given model on a given GPU.  It reads the shape
neighbourhood of :mod:`repro.core.advisor` — every move of every knob,
priced in one grid — and keeps each knob's best move:

- heads: every divisor of h within 2x of the current a,
- vocabulary: padding to the next 64-multiple,
- microbatch: doubling (if memory allows it, per the budget),
- hidden size: a misaligned h rounded to the 64-multiples around it,
  with layer compensation,
- SwiGLU width: the +/-1 and +/-2 multiples of 256 and of 64 (when
  applicable).

The output is a ranked :class:`Sensitivity` list — the largest
achievable |effect| per knob — which is what a practitioner actually
wants from the paper: a to-do list sorted by payoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.advisor import price_moves
from repro.core.config import TransformerConfig
from repro.core.latency import LayerLatencyModel
from repro.core.memory import MemoryBudget
from repro.gpu.specs import GPUSpec
from repro.trainstep.memory import estimate_memory
from repro.types import DType

#: Knobs in report order (the order ties keep).
KNOBS = ("heads", "vocabulary", "microbatch", "hidden", "swiglu_width")


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

    def rank(self, cfg: TransformerConfig) -> List[Sensitivity]:
        """All knobs, largest payoff first.

        Each knob keeps its first move with the strictly largest
        speedup.  The microbatch move is measured per token (doubling b
        doubles the work) and is reported whatever its speedup, but only
        when the doubled config fits the training-memory budget.
        """
        base_s, priced = price_moves(self.model, cfg)
        best = {knob: Sensitivity(knob, "keep as is", 1.0, None) for knob in KNOBS}
        if cfg.mlp_kind != "swiglu":
            best["swiglu_width"] = Sensitivity(
                "swiglu_width", "not a SwiGLU model", 1.0, None
            )
        for move, cand_s in priced:
            cand = move.config
            if move.knob == "microbatch":
                if estimate_memory(cand).fits(self.budget):
                    per_token_base = base_s / cfg.tokens_per_microbatch
                    per_token_new = cand_s / cand.tokens_per_microbatch
                    best[move.knob] = Sensitivity(
                        move.knob, move.label, per_token_base / per_token_new, cand
                    )
                else:
                    best[move.knob] = Sensitivity(
                        move.knob,
                        f"b={cand.microbatch} exceeds the memory budget",
                        1.0,
                        None,
                    )
            elif base_s / cand_s > best[move.knob].speedup:
                best[move.knob] = Sensitivity(
                    move.knob, move.label, base_s / cand_s, cand
                )
        return sorted(best.values(), key=lambda s: -s.speedup)

    def report(self, cfg: TransformerConfig) -> str:
        lines = [cfg.describe(), f"target: {self.model.spec.name}", ""]
        lines += [s.describe() for s in self.rank(cfg)]
        return "\n".join(lines)
