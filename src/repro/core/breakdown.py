"""Latency-proportion analyses (paper Figs 2 and 11, Sec I).

- :func:`component_proportions` — Fig 2: the share of one layer's
  latency spent in each transformer component, including the non-GEMM
  remainder.
- :func:`gemm_proportions` — Fig 11: the share of the *GEMM* latency
  contributed by each GEMM module, across model sizes.
- :func:`gemm_share` — the Sec I headline numbers: GEMM kernels account
  for ~68.3% of a medium model's latency and ~94.9% of a large model's;
  :func:`gemm_shares` prices many configs' shares in one engine grid.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.config import TransformerConfig
from repro.core.latency import LayerLatencyModel

# Reference shapes for "medium" and "large" models used by the Sec I /
# Fig 2 discussion; medium ~ GPT-3 1.3B-class layer, large ~ 20B-class.
MEDIUM_CONFIG = TransformerConfig(
    name="medium", hidden_size=2048, num_heads=32, num_layers=24
)
LARGE_CONFIG = TransformerConfig(
    name="large", hidden_size=6144, num_heads=64, num_layers=44
)


def component_proportions(
    cfg: TransformerConfig, model: "LayerLatencyModel | None" = None
) -> Dict[str, float]:
    """Fig 2: fraction of single-layer latency per component."""
    model = model or LayerLatencyModel()
    return model.layer_breakdown(cfg).proportions()


def gemm_proportions(
    cfg: TransformerConfig, model: "LayerLatencyModel | None" = None
) -> Dict[str, float]:
    """Fig 11: fraction of the layer's *GEMM* latency per GEMM module."""
    model = model or LayerLatencyModel()
    return model.layer_breakdown(cfg).gemm_proportions()


def gemm_share(
    cfg: TransformerConfig, model: "LayerLatencyModel | None" = None
) -> float:
    """Fraction of one layer's latency spent in GEMM kernels."""
    model = model or LayerLatencyModel()
    return model.layer_breakdown(cfg).gemm_fraction


def gemm_shares(
    cfgs: Sequence[TransformerConfig], model: "LayerLatencyModel | None" = None
) -> List[float]:
    """:func:`gemm_share` of every config, priced in one engine grid."""
    model = model or LayerLatencyModel()
    return [bd.gemm_fraction for bd in model.layer_breakdowns(cfgs)]


def share_sweep_config(h: int, heads_ratio: int = 64) -> TransformerConfig:
    """The one-layer config at hidden size ``h`` with ``h/a`` held fixed."""
    return TransformerConfig(
        name=f"h{h}",
        hidden_size=h,
        num_heads=max(1, h // heads_ratio),
        num_layers=1,
    )


def gemm_share_sweep(
    hidden_sizes: Sequence[int],
    heads_ratio: int = 64,
    model: "LayerLatencyModel | None" = None,
) -> "List[tuple[int, float]]":
    """GEMM latency share as h grows (holding h/a fixed).

    Reproduces the Sec I claim that the GEMM share rises with model
    size, which is why shape tuning matters more for larger models.
    """
    cfgs = [share_sweep_config(h, heads_ratio) for h in hidden_sizes]
    return list(zip(hidden_sizes, gemm_shares(cfgs, model)))


def dominant_gemms(
    cfg: TransformerConfig,
    model: "LayerLatencyModel | None" = None,
    top: int = 3,
) -> List[str]:
    """The GEMM modules contributing most latency, best-first (Fig 11).

    For large models the paper finds QKV and the MLP GEMMs dominate
    while attention-over-value is smallest.
    """
    props = gemm_proportions(cfg, model)
    return [name for name, _ in sorted(props.items(), key=lambda kv: -kv[1])][:top]
