"""The shape neighbourhood: nearby shapes, knob by knob, priced in one grid.

This module is the paper's Sec VI-B/VII-B method, "search for a good
nearby shape".  :func:`moves` builds every candidate move of a config
and :func:`price_moves` prices the config and all its moves in one
``model_breakdowns`` grid.  Two consumers read that one priced list:
:class:`ShapeAdvisor` ranks the moves as reshaping proposals, and
:class:`~repro.analysis.whatif.WhatIfAnalyzer` keeps the best move per knob.

The knobs and their neighbourhoods:

- **heads** — every other head count dividing h within 2x of ``a``;
  the parameter count is *unchanged* (the head count does not appear
  in the parameter formula), which is exactly the GPT-3 2.7B -> C2 fix,
- **vocabulary** — padding to the next multiple of 64 (Fig 20,
  Karpathy's nanoGPT trick),
- **SwiGLU width** — the +/-1 and +/-2 multiples of 256 and of 64
  around d_ff (Sec VII-B),
- **hidden size** — a misaligned h rounded to the 64-multiples just
  below and just above it, with the layer count compensated to hold
  12 h^2 L; an aligned h has no move,
- **microbatch** — doubling b (what-if only: it changes the work per
  step, not the architecture, so the advisor drops it).

Every move is tensor-parallel feasible: a move that
:func:`~repro.core.gemms.layer_gemms` would reject at the config's
``tp_degree`` is never generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.autotune.vocab import pad_vocab
from repro.core.config import TransformerConfig
from repro.core.gemms import tp_problem
from repro.core.latency import LayerLatencyModel
from repro.errors import ConfigError
from repro.gpu.alignment import largest_pow2_divisor
from repro.gpu.specs import GPUSpec
from repro.types import DType


class Move(NamedTuple):
    """One candidate move: its knob, how whatif and the advisor word it,
    and the config it produces."""

    knob: str
    label: str
    rationale: str
    config: TransformerConfig


def head_counts_near(cfg: TransformerConfig) -> List[int]:
    """Head counts other than ``a`` that divide h, within 2x of ``a``.

    Under grouped-query attention a head count must also be a multiple
    of ``num_kv_heads``.
    """
    h, a0, kv = cfg.hidden_size, cfg.num_heads, cfg.num_kv_heads or 1
    return [
        a
        for a in range(max(1, a0 // 2), 2 * a0 + 1)
        if a != a0 and h % a == 0 and a % kv == 0
    ]


def padded_vocab(cfg: TransformerConfig) -> Optional[int]:
    """The vocabulary padded to a multiple of 64, or None if aligned."""
    padded = pad_vocab(cfg.vocab_size)
    return padded if padded != cfg.vocab_size else None


def _swiglu_widths(cfg: TransformerConfig) -> List[int]:
    """Nearby multiples of 256 and 64 around the nominal SwiGLU width.

    ``mult = 0`` is the floor multiple: a move for an unaligned width,
    the width itself (and so dropped) for an aligned one.
    """
    if cfg.mlp_kind != "swiglu":
        return []
    d0 = cfg.d_ff
    widths: List[int] = []
    for step in (256, 64):
        for mult in (-2, -1, 0, 1, 2):
            d = (d0 // step + mult) * step
            if d > 0 and d != d0 and d not in widths:
                widths.append(d)
    return widths


def _hidden_sizes(cfg: TransformerConfig) -> List[int]:
    """The 64-multiples just below and above a misaligned h."""
    h = cfg.hidden_size
    if h % 64 == 0:
        return []
    below = h // 64 * 64
    return [x for x in (below, below + 64) if x > 0 and x % cfg.num_heads == 0]


def moves(cfg: TransformerConfig) -> List[Move]:
    """Every TP-feasible candidate move of ``cfg``, knob by knob."""
    h0, a0, L0, b = cfg.hidden_size, cfg.num_heads, cfg.num_layers, cfg.microbatch
    out: List[Move] = []
    for a in head_counts_near(cfg):
        cand = cfg.with_overrides(name=f"{cfg.name}/a{a}", num_heads=a)
        out.append(
            Move(
                "heads",
                f"a: {a0} -> {a}",
                f"retune heads {a0} -> {a}: h/a {cfg.head_dim} "
                f"(pow2 {cfg.head_dim_pow2}) -> {cand.head_dim} "
                f"(pow2 {cand.head_dim_pow2}), params unchanged",
                cand,
            )
        )
    padded = padded_vocab(cfg)
    if padded is not None:
        out.append(
            Move(
                "vocabulary",
                f"v: {cfg.vocab_size} -> {padded}",
                f"pad vocabulary {cfg.vocab_size} -> {padded} "
                "(multiple of 64) for the logit GEMM",
                cfg.with_overrides(name=f"{cfg.name}/v{padded}", vocab_size=padded),
            )
        )
    for d in _swiglu_widths(cfg):
        out.append(
            Move(
                "swiglu_width",
                f"d_ff: {cfg.d_ff} -> {d}",
                f"retune SwiGLU intermediate size {cfg.d_ff} -> {d} "
                f"(pow2 {largest_pow2_divisor(d)})",
                cfg.with_overrides(name=f"{cfg.name}/dff{d}", intermediate_size=d),
            )
        )
    for h in _hidden_sizes(cfg):
        L = max(1, round(h0 * h0 * L0 / (h * h)))
        out.append(
            Move(
                "hidden",
                f"h: {h0} -> {h} (L -> {L})",
                f"round h {h0} -> {h} (multiple of 64) with "
                f"L {L0} -> {L} to hold params",
                cfg.with_overrides(
                    name=f"{cfg.name}/h{h}L{L}", hidden_size=h, num_layers=L
                ),
            )
        )
    out.append(
        Move(
            "microbatch",
            f"b: {b} -> {2 * b}",
            f"double the microbatch {b} -> {2 * b}",
            cfg.with_overrides(name=f"{cfg.name}/b{2 * b}", microbatch=2 * b),
        )
    )
    return [move for move in out if tp_problem(move.config) is None]


def price_moves(
    model: LayerLatencyModel, cfg: TransformerConfig
) -> Tuple[float, List[Tuple[Move, float]]]:
    """``cfg``'s model latency and every move with its latency.

    The config and all its moves are priced in one ``model_breakdowns``
    grid.
    """
    candidates = moves(cfg)
    base, *priced = model.model_breakdowns(
        [cfg] + [move.config for move in candidates]
    )
    return base.total_s, [(m, bd.total_s) for m, bd in zip(candidates, priced)]


@dataclass(frozen=True)
class Proposal:
    """One candidate reshaping, with its modelled effect."""

    config: TransformerConfig
    latency_s: float
    baseline_latency_s: float
    rationale: str
    baseline_params: int = 0

    @property
    def speedup(self) -> float:
        """Baseline latency / proposal latency (>1 is an improvement)."""
        return self.baseline_latency_s / self.latency_s

    @property
    def param_ratio(self) -> float:
        return self.config.param_count() / max(self.baseline_params, 1)

    def describe(self) -> str:
        return (
            f"{self.config.describe()}\n"
            f"  {self.rationale}\n"
            f"  modelled speedup {self.speedup:.2f}x, "
            f"params {self.param_ratio:.3f}x baseline"
        )


class ShapeAdvisor:
    """Searches hardware-friendlier shapes near a given configuration."""

    def __init__(
        self,
        gpu: "str | GPUSpec" = "A100",
        dtype: "str | DType" = DType.FP16,
        flash_attention: bool = False,
    ) -> None:
        self.model = LayerLatencyModel(gpu, dtype, flash_attention=flash_attention)

    def propose(
        self,
        cfg: TransformerConfig,
        max_param_increase: float = 0.01,
        top: int = 10,
    ) -> List[Proposal]:
        """Rank the reshaping moves by modelled forward latency.

        Only moves within ``max_param_increase`` relative parameter
        growth are returned (the paper's premise is equal-size
        comparisons), sorted fastest-first.  The original configuration
        is *not* included; compare via ``baseline_latency_s``.
        """
        if max_param_increase < 0:
            raise ConfigError("max_param_increase must be non-negative")
        baseline_params = cfg.param_count()
        limit = baseline_params * (1 + max_param_increase)
        baseline_s, priced = price_moves(self.model, cfg)
        proposals = [
            Proposal(
                config=move.config,
                latency_s=latency_s,
                baseline_latency_s=baseline_s,
                rationale=move.rationale,
                baseline_params=baseline_params,
            )
            for move, latency_s in priced
            if move.knob != "microbatch" and move.config.param_count() <= limit
        ]
        proposals.sort(key=lambda p: p.latency_s)
        return proposals[:top]

    def best(self, cfg: TransformerConfig, **kwargs) -> Optional[Proposal]:
        """The single fastest proposal, or None if nothing qualifies."""
        proposals = self.propose(cfg, **kwargs)
        return proposals[0] if proposals else None
