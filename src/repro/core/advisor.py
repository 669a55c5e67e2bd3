"""Shape-improvement search (the paper's case-study methodology).

Given a model configuration and a target GPU, propose near-identical
configurations with better hardware alignment and rank them by modelled
end-to-end latency.  The candidate moves mirror the paper's Sec VI-B
discussion:

- **retune heads** — change ``a`` to improve pow2(h/a); parameter count
  is *unchanged* (the head count does not appear in the parameter
  formula), which is exactly the GPT-3 2.7B -> C2 fix,
- **pad the vocabulary** to the next multiple of 64 (Fig 20,
  Karpathy's nanoGPT trick),
- **retune the SwiGLU intermediate size** near 8h/3 (Sec VII-B),
- **widen the hidden size** to the next 64-multiple with a layer-count
  compensation to hold parameters roughly constant (opt-in, since it
  changes the architecture more substantially).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.autotune.vocab import pad_vocab
from repro.core.config import TransformerConfig
from repro.core.latency import LayerLatencyModel
from repro.errors import ConfigError
from repro.gpu.alignment import largest_pow2_divisor
from repro.gpu.specs import GPUSpec
from repro.types import DType


def head_counts_near(cfg: TransformerConfig) -> List[int]:
    """Head counts other than ``a`` that divide h, within 2x of ``a``.

    The head neighbourhood the advisor and the what-if analyzer share.
    """
    h, a0 = cfg.hidden_size, cfg.num_heads
    return [
        a for a in range(max(1, a0 // 2), 2 * a0 + 1) if a != a0 and h % a == 0
    ]


def padded_vocab(cfg: TransformerConfig) -> Optional[int]:
    """The vocabulary padded to a multiple of 64, or None if aligned."""
    padded = pad_vocab(cfg.vocab_size)
    return padded if padded != cfg.vocab_size else None


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

    # -- candidate generators -----------------------------------------------------

    def _head_candidates(self, cfg: TransformerConfig) -> List[TransformerConfig]:
        """Alternative head counts dividing h, within 2x of the original.

        Keeping h fixed keeps the parameter count identical; the paper
        prefers *decreasing* a (raising h/a) because the attention BMMs
        are memory-bound in h/a, but larger a candidates are scored too
        so the ranking demonstrates why.
        """
        return [
            cfg.with_overrides(name=f"{cfg.name}/a{a}", num_heads=a)
            for a in head_counts_near(cfg)
        ]

    def _vocab_candidate(self, cfg: TransformerConfig) -> Optional[TransformerConfig]:
        padded = padded_vocab(cfg)
        if padded is None:
            return None
        return cfg.with_overrides(name=f"{cfg.name}/v{padded}", vocab_size=padded)

    def _swiglu_candidates(self, cfg: TransformerConfig) -> List[TransformerConfig]:
        if cfg.mlp_kind != "swiglu":
            return []
        d0 = cfg.d_ff
        out = []
        # Nearby multiples of 256 and 64 around the nominal width.
        for step in (256, 64):
            for mult in (-2, -1, 1, 2):
                d = (d0 // step + mult) * step
                if d > 0 and d != d0:
                    out.append(
                        cfg.with_overrides(
                            name=f"{cfg.name}/dff{d}", intermediate_size=d
                        )
                    )
        return out

    def _widen_candidate(self, cfg: TransformerConfig) -> Optional[TransformerConfig]:
        """Round h up to a 64-multiple, shedding layers to hold params."""
        h0, L0 = cfg.hidden_size, cfg.num_layers
        if h0 % 64 == 0:
            return None
        h = -(-h0 // 64) * 64
        # Hold 12 h^2 L approximately constant.
        L = max(1, round(12 * h0 * h0 * L0 / (12 * h * h)))
        return cfg.with_overrides(
            name=f"{cfg.name}/h{h}L{L}", hidden_size=h, num_layers=L
        )

    # -- public API ------------------------------------------------------------------

    def propose(
        self,
        cfg: TransformerConfig,
        max_param_increase: float = 0.01,
        include_widen: bool = True,
        top: int = 10,
    ) -> List[Proposal]:
        """Rank candidate reshapes by modelled forward latency.

        Only proposals within ``max_param_increase`` relative parameter
        growth are returned (the paper's premise is equal-size
        comparisons), sorted fastest-first.  The original configuration
        is *not* included; compare via ``baseline_latency_s``.
        """
        if max_param_increase < 0:
            raise ConfigError("max_param_increase must be non-negative")
        baseline_params = cfg.param_count()

        candidates: List[tuple[TransformerConfig, str]] = []
        for cand in self._head_candidates(cfg):
            candidates.append(
                (
                    cand,
                    f"retune heads {cfg.num_heads} -> {cand.num_heads}: "
                    f"h/a {cfg.head_dim} (pow2 {cfg.head_dim_pow2}) -> "
                    f"{cand.head_dim} (pow2 {cand.head_dim_pow2}), params unchanged",
                )
            )
        vocab = self._vocab_candidate(cfg)
        if vocab is not None:
            candidates.append(
                (
                    vocab,
                    f"pad vocabulary {cfg.vocab_size} -> {vocab.vocab_size} "
                    "(multiple of 64) for the logit GEMM",
                )
            )
        for cand in self._swiglu_candidates(cfg):
            candidates.append(
                (
                    cand,
                    f"retune SwiGLU intermediate size {cfg.d_ff} -> {cand.d_ff} "
                    f"(pow2 {largest_pow2_divisor(cand.d_ff)})",
                )
            )
        if include_widen:
            widen = self._widen_candidate(cfg)
            if widen is not None:
                candidates.append(
                    (
                        widen,
                        f"widen h {cfg.hidden_size} -> {widen.hidden_size} with "
                        f"L {cfg.num_layers} -> {widen.num_layers} to hold params",
                    )
                )

        limit = baseline_params * (1 + max_param_increase)
        candidates = [(c, why) for c, why in candidates if c.param_count() <= limit]
        # The baseline and every surviving candidate, priced in one grid.
        baseline, *priced = self.model.model_breakdowns(
            [cfg] + [cand for cand, _ in candidates]
        )
        proposals = [
            Proposal(
                config=cand,
                latency_s=bd.total_s,
                baseline_latency_s=baseline.total_s,
                rationale=why,
                baseline_params=baseline_params,
            )
            for (cand, why), bd in zip(candidates, priced)
        ]
        proposals.sort(key=lambda p: p.latency_s)
        return proposals[:top]

    def best(self, cfg: TransformerConfig, **kwargs) -> Optional[Proposal]:
        """The single fastest proposal, or None if nothing qualifies."""
        proposals = self.propose(cfg, **kwargs)
        return proposals[0] if proposals else None
