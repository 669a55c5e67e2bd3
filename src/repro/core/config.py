"""Transformer shape configurations and named presets.

:class:`TransformerConfig` carries exactly the paper's Table I variables
(h, a, L, s, b, v, t) plus the Sec VI-C architectural options, validated
on construction.  The registry holds the real published shapes the paper
references — the GPT-3 family (Brown et al.), the Pythia suite
(Biderman et al.), Llama-2, OPT/GPT-Neo/RedPajama clones of GPT-3 2.7B,
and the paper's own Fig 1 retunes C1/C2 — so experiments and examples
can refer to them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.core import formulas
from repro.errors import ConfigError
from repro.gpu.alignment import largest_pow2_divisor


@dataclass(frozen=True)
class TransformerConfig:
    """Shape of a decoder-only transformer (paper Table I variables).

    Attributes
    ----------
    hidden_size, num_heads, num_layers, vocab_size, seq_len:
        h, a, L, v, s.
    microbatch:
        b — the per-GPU microbatch used for throughput evaluation.
    tp_degree:
        t — tensor-parallel degree; per-GPU GEMM shapes divide by it.
    mlp_kind / intermediate_size:
        ``"classic"`` (default d_ff = 4h) or ``"swiglu"`` (default
        d_ff = round(8h/3), Sec VI-C4).
    """

    name: str
    hidden_size: int
    num_heads: int
    num_layers: int
    vocab_size: int = 50304
    seq_len: int = 2048
    microbatch: int = 4
    tp_degree: int = 1
    mlp_kind: str = "classic"
    intermediate_size: Optional[int] = None
    positional: str = "learned"
    parallel_layers: bool = False
    #: Grouped-query attention: number of key/value heads.  ``None``
    #: means classic multi-head attention (= num_heads); 1 is MQA.
    #: Llama-2-70B uses 8.  Query-head count and head dim — the
    #: quantities the paper's h/a rules govern — are unchanged by GQA;
    #: what shrinks is the KV projection width and the KV cache.
    num_kv_heads: Optional[int] = None
    #: Sliding-window attention span (Mistral-style): each token attends
    #: to at most this many predecessors.  ``None`` = full causal.  The
    #: paper's GEMM shapes are unchanged on the naive path (the mask is
    #: applied post-GEMM); the wins are in fused kernels and the
    #: bounded decode-time KV cache.
    attention_window: Optional[int] = None
    #: Mixture-of-experts: number of expert MLPs (``None`` = dense).
    #: Mixtral-8x7B uses 8 experts with top-2 routing.  Each expert has
    #: the configured MLP kind/width; tokens visit ``moe_top_k`` of them.
    num_experts: Optional[int] = None
    moe_top_k: int = 2

    def __post_init__(self) -> None:
        dims = {
            "hidden_size": self.hidden_size,
            "num_heads": self.num_heads,
            "num_layers": self.num_layers,
            "vocab_size": self.vocab_size,
            "seq_len": self.seq_len,
            "microbatch": self.microbatch,
            "tp_degree": self.tp_degree,
        }
        for key, value in dims.items():
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(f"{key} must be a positive int, got {value!r}")
        if self.hidden_size % self.num_heads:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.mlp_kind not in ("classic", "swiglu"):
            raise ConfigError(f"unknown mlp_kind {self.mlp_kind!r}")
        if self.intermediate_size is not None and self.intermediate_size <= 0:
            raise ConfigError("intermediate_size must be positive")
        if self.num_kv_heads is not None:
            if self.num_kv_heads <= 0:
                raise ConfigError("num_kv_heads must be positive")
            if self.num_heads % self.num_kv_heads:
                raise ConfigError(
                    f"num_heads {self.num_heads} not divisible by "
                    f"num_kv_heads {self.num_kv_heads}"
                )
        if self.attention_window is not None and self.attention_window <= 0:
            raise ConfigError("attention_window must be positive")
        if self.num_experts is not None:
            if self.num_experts < 2:
                raise ConfigError("num_experts must be >= 2")
            if not (1 <= self.moe_top_k <= self.num_experts):
                raise ConfigError(
                    f"moe_top_k must be in [1, num_experts], got "
                    f"{self.moe_top_k}/{self.num_experts}"
                )

    # -- derived quantities ------------------------------------------------

    @property
    def head_dim(self) -> int:
        """h/a, the dimension whose pow-2 divisibility drives Figs 7/21-47."""
        return self.hidden_size // self.num_heads

    @property
    def head_dim_pow2(self) -> int:
        """Largest power of two dividing h/a."""
        return largest_pow2_divisor(self.head_dim)

    @property
    def kv_heads(self) -> int:
        """Resolved key/value head count (= num_heads for classic MHA)."""
        return self.num_kv_heads if self.num_kv_heads is not None else self.num_heads

    @property
    def kv_dim(self) -> int:
        """Width of each of the K and V projections: kv_heads * (h/a)."""
        return self.kv_heads * self.head_dim

    @property
    def d_ff(self) -> int:
        """MLP intermediate width (resolved default per mlp_kind)."""
        if self.intermediate_size is not None:
            return self.intermediate_size
        if self.mlp_kind == "swiglu":
            return int(round(8 * self.hidden_size / 3))
        return 4 * self.hidden_size

    @property
    def mlp_matrices(self) -> int:
        """2 for the classic MLP, 3 for SwiGLU (Sec VII-B)."""
        return 3 if self.mlp_kind == "swiglu" else 2

    @property
    def tokens_per_expert(self) -> int:
        """Balanced per-expert row count: ceil(b*s*k / E) (dense: b*s).

        The analytic MoE mapping assumes balanced, capacity-padded
        routing; the NumPy substrate routes exactly, so traced expert
        GEMMs vary around this value while conserving the total.
        """
        if self.num_experts is None:
            return self.tokens_per_microbatch
        total = self.tokens_per_microbatch * self.moe_top_k
        return -(-total // self.num_experts)

    @property
    def tokens_per_microbatch(self) -> int:
        """b*s, the row count of the big activation GEMMs."""
        return self.microbatch * self.seq_len

    def param_count(self) -> int:
        """Learned parameters (exact sum over the actual weight shapes)."""
        return formulas.param_count_config(
            h=self.hidden_size,
            L=self.num_layers,
            v=self.vocab_size,
            s=self.seq_len if self.positional == "learned" else 0,
            d_ff=self.d_ff,
            mlp_matrices=self.mlp_matrices,
            kv_dim=self.kv_dim,
            num_experts=self.num_experts,
        )

    def forward_flops(self) -> int:
        """Forward-pass FLOPs of the whole model for one microbatch."""
        return formulas.forward_flops_model(
            b=self.microbatch,
            s=self.seq_len,
            h=self.hidden_size,
            L=self.num_layers,
            v=self.vocab_size,
            d_ff=self.d_ff,
            mlp_matrices=self.mlp_matrices,
        )

    def with_overrides(self, **kwargs) -> "TransformerConfig":
        """Copy with fields replaced (name defaults to a '*' suffix)."""
        if "name" not in kwargs:
            kwargs["name"] = self.name + "*"
        return replace(self, **kwargs)

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"{self.name}: h={self.hidden_size} a={self.num_heads} "
            f"L={self.num_layers} v={self.vocab_size} s={self.seq_len} "
            f"b={self.microbatch} t={self.tp_degree} h/a={self.head_dim} "
            f"({self.param_count() / 1e9:.2f}B params)"
        )


_MODELS: Dict[str, TransformerConfig] = {}


def register_model(cfg: TransformerConfig, *, aliases: Tuple[str, ...] = ()) -> None:
    """Register a named preset (and optional aliases)."""
    _MODELS[cfg.name.lower()] = cfg
    for alias in aliases:
        _MODELS[alias.lower()] = cfg


def get_model(name: "str | TransformerConfig", **overrides) -> TransformerConfig:
    """Look up a preset by name, optionally overriding fields."""
    if isinstance(name, TransformerConfig):
        cfg = name
    else:
        try:
            cfg = _MODELS[str(name).strip().lower()]
        except KeyError:
            known = ", ".join(sorted({c.name for c in _MODELS.values()}))
            raise ConfigError(f"unknown model {name!r}; known: {known}") from None
    if overrides:
        overrides.setdefault("name", cfg.name)
        cfg = replace(cfg, **overrides)
    return cfg


def list_models() -> Tuple[TransformerConfig, ...]:
    """All distinct registered presets sorted by parameter count."""
    seen = {cfg.name: cfg for cfg in _MODELS.values()}
    return tuple(sorted(seen.values(), key=lambda c: c.param_count()))


def _gpt3(name: str, h: int, a: int, L: int, **kw) -> TransformerConfig:
    kw.setdefault("vocab_size", 50304)
    kw.setdefault("seq_len", 2048)
    return TransformerConfig(
        name=name, hidden_size=h, num_heads=a, num_layers=L, **kw
    )


# GPT-3 family (Brown et al. 2020, Table 2.1).
register_model(_gpt3("gpt3-125m", 768, 12, 12))
register_model(_gpt3("gpt3-350m", 1024, 16, 24))
register_model(_gpt3("gpt3-760m", 1536, 16, 24))
# Brown et al. list 24 heads with d_head=128 for 1.3B, which is
# internally inconsistent (24*128 != 2048); replications (GPT-Neo 1.3B,
# Pythia-1.4B) use 16 heads, which we follow.
register_model(_gpt3("gpt3-1.3b", 2048, 16, 24))
register_model(_gpt3("gpt3-2.7b", 2560, 32, 32), aliases=("gpt3-2.7b-default",))
register_model(_gpt3("gpt3-6.7b", 4096, 32, 32))
# Brown et al. print d_model=5140 for 13B (40 heads, d_head=128: an
# apparent typo for 5120, which every replication uses — itself a small
# example of the paper's point about copied hyperparameters).
register_model(_gpt3("gpt3-13b", 5120, 40, 40))
register_model(_gpt3("gpt3-175b", 12288, 96, 96))

# The paper's Fig 1 retunes of GPT-3 2.7B (same h -> same params).
register_model(_gpt3("c1", 2560, 64, 32), aliases=("gpt3-2.7b-c1",))
register_model(_gpt3("c2", 2560, 40, 32), aliases=("gpt3-2.7b-c2",))
# The alternative fix the paper mentions: h -> 4096 doubles params.
register_model(_gpt3("gpt3-2.7b-wide", 4096, 32, 32))

# Clones of the GPT-3 2.7B shape the paper lists (Sec VI-B).
register_model(_gpt3("gpt-neo-2.7b", 2560, 32, 32, vocab_size=50257))
register_model(_gpt3("opt-2.7b", 2560, 32, 32, vocab_size=50272))
register_model(_gpt3("redpajama-3b", 2560, 32, 32, positional="rotary"))
register_model(_gpt3("pythia-2.8b", 2560, 32, 32, positional="rotary"))

# Pythia suite (Biderman et al. 2023) — used for the Fig 13 inference
# trend study; 410M and 1B are the off-trend pair.
register_model(_gpt3("pythia-70m", 512, 8, 6, positional="rotary"))
register_model(_gpt3("pythia-160m", 768, 12, 12, positional="rotary"))
register_model(_gpt3("pythia-410m", 1024, 16, 24, positional="rotary"))
register_model(_gpt3("pythia-1b", 2048, 8, 16, positional="rotary"))
register_model(_gpt3("pythia-1.4b", 2048, 16, 24, positional="rotary"))
register_model(_gpt3("pythia-6.9b", 4096, 32, 32, positional="rotary"))
register_model(_gpt3("pythia-12b", 5120, 40, 36, positional="rotary"))

# Llama-2 (Sec VII-B SwiGLU case study).
register_model(
    TransformerConfig(
        name="llama2-7b",
        hidden_size=4096,
        num_heads=32,
        num_layers=32,
        vocab_size=32000,
        seq_len=4096,
        mlp_kind="swiglu",
        intermediate_size=11008,
        positional="rotary",
    )
)
# Mixtral-8x7B: 8 SwiGLU experts with top-2 routing over the Mistral
# trunk (GQA kv=8); ~46.5B parameters, ~13B active per token.
register_model(
    TransformerConfig(
        name="mixtral-8x7b",
        hidden_size=4096,
        num_heads=32,
        num_layers=32,
        vocab_size=32000,
        seq_len=8192,
        mlp_kind="swiglu",
        intermediate_size=14336,
        positional="rotary",
        num_kv_heads=8,
        num_experts=8,
        moe_top_k=2,
    )
)

# Mistral-7B: SwiGLU + GQA + sliding-window attention — every Sec VI-C
# style architectural modification at once, and d_ff = 14336 = 2^11 * 7
# (heavily aligned, like Llama's choices).
register_model(
    TransformerConfig(
        name="mistral-7b",
        hidden_size=4096,
        num_heads=32,
        num_layers=32,
        vocab_size=32000,
        seq_len=8192,
        mlp_kind="swiglu",
        intermediate_size=14336,
        positional="rotary",
        num_kv_heads=8,
        attention_window=4096,
    )
)

register_model(
    TransformerConfig(
        name="llama2-70b",
        hidden_size=8192,
        num_heads=64,
        num_layers=80,
        vocab_size=32000,
        seq_len=4096,
        mlp_kind="swiglu",
        intermediate_size=28672,
        positional="rotary",
        num_kv_heads=8,  # grouped-query attention
    )
)
