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
from typing import List, NamedTuple, Optional, Tuple

from repro.core.advisor import head_counts_near, padded_vocab
from repro.core.config import TransformerConfig
from repro.core.latency import LayerLatencyModel
from repro.core.memory import MemoryBudget
from repro.gpu.specs import GPUSpec
from repro.trainstep.memory import estimate_memory
from repro.types import DType

#: One candidate: a human-readable move and the config it produces.
Move = Tuple[str, TransformerConfig]

_KEEP = "keep as is"


class Knob(NamedTuple):
    """One shape knob: its name, what it reports with no move, its moves."""

    name: str
    idle: str
    moves: List[Move]


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

    # -- knob neighbourhoods ---------------------------------------------------------

    def _heads(self, cfg: TransformerConfig) -> List[Move]:
        return [
            (f"a: {cfg.num_heads} -> {a}", cfg.with_overrides(num_heads=a))
            for a in head_counts_near(cfg)
        ]

    def _vocabulary(self, cfg: TransformerConfig) -> List[Move]:
        padded = padded_vocab(cfg)
        if padded is None:
            return []
        return [(f"v: {cfg.vocab_size} -> {padded}", cfg.with_overrides(vocab_size=padded))]

    def _hidden(self, cfg: TransformerConfig) -> List[Move]:
        moves = []
        for h in (cfg.hidden_size - 64, cfg.hidden_size + 64):
            if h <= 0 or h % cfg.num_heads:
                continue
            L = max(
                1,
                round(
                    12 * cfg.hidden_size**2 * cfg.num_layers / (12 * h * h)
                ),
            )
            moves.append(
                (
                    f"h: {cfg.hidden_size} -> {h} (L -> {L})",
                    cfg.with_overrides(hidden_size=h, num_layers=L),
                )
            )
        return moves

    def _swiglu_width(self, cfg: TransformerConfig) -> List[Move]:
        return [
            (f"d_ff: {cfg.d_ff} -> {d}", cfg.with_overrides(intermediate_size=d))
            for d in (cfg.d_ff - 256, cfg.d_ff + 256)
            if d > 0
        ]

    def knobs(self, cfg: TransformerConfig) -> List[Knob]:
        """Every knob's candidate moves, in report order.

        Doubling the microbatch is a move only when the doubled config
        fits the training-memory budget.
        """
        b = cfg.microbatch
        doubled = cfg.with_overrides(microbatch=2 * b)
        fits = estimate_memory(doubled).fits(self.budget)
        swiglu = cfg.mlp_kind == "swiglu"
        return [
            Knob("heads", _KEEP, self._heads(cfg)),
            Knob("vocabulary", _KEEP, self._vocabulary(cfg)),
            Knob(
                "microbatch",
                f"b={2 * b} exceeds the memory budget",
                [(f"b: {b} -> {2 * b}", doubled)] if fits else [],
            ),
            Knob("hidden", _KEEP, self._hidden(cfg)),
            Knob(
                "swiglu_width",
                _KEEP if swiglu else "not a SwiGLU model",
                self._swiglu_width(cfg) if swiglu else [],
            ),
        ]

    # -- public API -------------------------------------------------------------------

    def rank(self, cfg: TransformerConfig) -> List[Sensitivity]:
        """All knobs, largest payoff first.

        The base config and every knob's moves are priced in one grid.
        Each knob keeps its first move with the strictly largest
        speedup; the microbatch move is measured per token (doubling b
        doubles the work) and is reported whatever its speedup.
        """
        knobs = self.knobs(cfg)
        moves = [move for knob in knobs for move in knob.moves]
        base, *priced = self.model.model_breakdowns(
            [cfg] + [cand for _, cand in moves]
        )
        latency = iter(bd.total_s for bd in priced)
        results = []
        for knob in knobs:
            best = Sensitivity(knob.name, knob.idle, speedup=1.0, config=None)
            for move, cand in knob.moves:
                cand_s = next(latency)
                if knob.name == "microbatch":
                    per_token_base = base.total_s / cfg.tokens_per_microbatch
                    per_token_new = cand_s / cand.tokens_per_microbatch
                    best = Sensitivity(
                        knob.name, move, per_token_base / per_token_new, cand
                    )
                elif base.total_s / cand_s > best.speedup:
                    best = Sensitivity(knob.name, move, base.total_s / cand_s, cand)
            results.append(best)
        return sorted(results, key=lambda s: -s.speedup)

    def report(self, cfg: TransformerConfig) -> str:
        lines = [cfg.describe(), f"target: {self.model.spec.name}", ""]
        lines += [s.describe() for s in self.rank(cfg)]
        return "\n".join(lines)
