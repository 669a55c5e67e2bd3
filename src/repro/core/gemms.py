"""The Table II mapping: transformer operators -> GEMM/BMM shapes.

This is the analytical counterpart of what the traced NumPy transformer
actually executes; tests diff the two.  Per transformer layer with
tensor-parallel degree ``t`` (per-GPU shapes, paper Sec III-C):

====================  =========================================================
operator              GEMM size
====================  =========================================================
QKV transform         ``(b*s, h) x (h, 3h/t)``
attention score       ``b*a/t`` BMMs of ``(s, h/a) x (h/a, s)``
attention over value  ``b*a/t`` BMMs of ``(s, s) x (s, h/a)``
linear projection     ``(b*s, h/t) x (h/t, h)``
MLP h -> d_ff         ``(b*s, h) x (h, d_ff/t)``
MLP d_ff -> h         ``(b*s, d_ff/t) x (d_ff/t, h)``
logit layer           ``(b*s, h) x (h, v)``
====================  =========================================================

SwiGLU MLPs contribute three matmuls (gate, up, down).  The logit GEMM
appears once per model, not per layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import TransformerConfig
from repro.errors import ParallelismError
from repro.gpu.bmm_model import BmmShape


@dataclass(frozen=True)
class TransformerGemm:
    """One operator of Table II, with its (batched) GEMM shape.

    ``module`` labels match the NumPy transformer's trace labels so the
    two can be compared mechanically.
    """

    module: str
    m: int
    k: int
    n: int
    batch: int = 1

    @property
    def flops(self) -> int:
        return 2 * self.batch * self.m * self.n * self.k

    @property
    def is_bmm(self) -> bool:
        return self.batch > 1

    def bmm_shape(self) -> BmmShape:
        """As a :class:`~repro.gpu.bmm_model.BmmShape` for evaluation."""
        return BmmShape(batch=self.batch, m=self.m, k=self.k, n=self.n)

    def shape_tuple(self) -> "tuple[int, int, int, int]":
        return (self.batch, self.m, self.k, self.n)


def tp_problem(
    cfg: TransformerConfig, t: Optional[int] = None
) -> Optional[str]:
    """Why ``t``-way TP (default ``cfg.tp_degree``) cannot shard cfg, or None.

    The one tensor-parallel feasibility rule: ``a``, ``kv_heads`` and
    ``d_ff`` must each be divisible by ``t``.  Config validation
    guarantees ``h % a == 0``, so ``a % t == 0`` already makes ``h``,
    ``3h`` and ``b*a`` divisible by ``t``.
    """
    t = cfg.tp_degree if t is None else t
    if t <= 0:
        return f"tp degree must be positive, got {t}"
    problems = [
        f"{name}={value} not divisible by t={t}"
        for name, value in (
            ("a", cfg.num_heads), ("kv_heads", cfg.kv_heads), ("d_ff", cfg.d_ff)
        )
        if value % t
    ]
    return "infeasible TP: " + "; ".join(problems) if problems else None


def _validate_tp(cfg: TransformerConfig) -> None:
    problem = tp_problem(cfg)
    if problem is not None:
        raise ParallelismError(f"{cfg.name}: {problem}")


def layer_gemms(cfg: TransformerConfig) -> List[TransformerGemm]:
    """Per-GPU GEMMs of one transformer layer, in execution order."""
    _validate_tp(cfg)
    b, s, h, a, t = (
        cfg.microbatch,
        cfg.seq_len,
        cfg.hidden_size,
        cfg.num_heads,
        cfg.tp_degree,
    )
    bs = b * s
    d = cfg.head_dim
    heads = b * a // t

    # Fused QKV width: h for Q plus 2*kv_dim for K and V (= 3h for
    # classic MHA; narrower under grouped-query attention).  The score
    # and attention-over-value BMMs are unchanged by GQA — each query
    # head still attends over an (s x d) key/value slice, the slices
    # are just shared between query groups.
    qkv_cols = h + 2 * cfg.kv_dim
    ops = [
        TransformerGemm("qkv_transform", m=bs, k=h, n=qkv_cols // t),
        TransformerGemm("attention_score", m=s, k=d, n=s, batch=heads),
        TransformerGemm("attention_over_value", m=s, k=s, n=d, batch=heads),
        TransformerGemm("attention_projection", m=bs, k=h // t, n=h),
    ]
    d_ff_shard = cfg.d_ff // t
    if cfg.num_experts is not None:
        # Mixture of experts: a router GEMM plus E expert MLPs executed
        # as a grouped (batched) GEMM over the balanced per-expert row
        # count (capacity-padded; the NumPy substrate routes exactly).
        m_e = cfg.tokens_per_expert
        E = cfg.num_experts
        ops.append(TransformerGemm("moe_router", m=bs, k=h, n=E))
        if cfg.mlp_kind == "swiglu":
            ops += [
                TransformerGemm("moe_mlp_gate", m=m_e, k=h, n=d_ff_shard, batch=E),
                TransformerGemm("moe_mlp_up", m=m_e, k=h, n=d_ff_shard, batch=E),
                TransformerGemm("moe_mlp_down", m=m_e, k=d_ff_shard, n=h, batch=E),
            ]
        else:
            ops += [
                TransformerGemm("moe_mlp_h_to_4h", m=m_e, k=h, n=d_ff_shard, batch=E),
                TransformerGemm("moe_mlp_4h_to_h", m=m_e, k=d_ff_shard, n=h, batch=E),
            ]
    elif cfg.mlp_kind == "swiglu":
        ops += [
            TransformerGemm("mlp_gate", m=bs, k=h, n=d_ff_shard),
            TransformerGemm("mlp_up", m=bs, k=h, n=d_ff_shard),
            TransformerGemm("mlp_down", m=bs, k=d_ff_shard, n=h),
        ]
    else:
        ops += [
            TransformerGemm("mlp_h_to_4h", m=bs, k=h, n=d_ff_shard),
            TransformerGemm("mlp_4h_to_h", m=bs, k=d_ff_shard, n=h),
        ]
    return ops


def logit_gemm(cfg: TransformerConfig) -> TransformerGemm:
    """The final vocabulary projection (Table II 'Linear Output', Fig 20).

    Computed as ``(b*s, h) x (h, v)``; the paper's table writes the
    transposed orientation, which has the same (m, n, k) multiset and
    identical performance characteristics.
    """
    return TransformerGemm(
        "logit", m=cfg.microbatch * cfg.seq_len, k=cfg.hidden_size, n=cfg.vocab_size
    )


def model_gemms(cfg: TransformerConfig) -> List[TransformerGemm]:
    """All per-GPU GEMMs of a full forward pass, in execution order.

    One layer's operator list repeated L times, plus the logit GEMM.
    (With tensor parallelism each listed GEMM runs once *per GPU*; this
    list is the per-GPU view.)
    """
    per_layer = layer_gemms(cfg)
    return per_layer * cfg.num_layers + [logit_gemm(cfg)]


def layer_gemm_flops(cfg: TransformerConfig) -> int:
    """Total matmul FLOPs of one layer (per tensor-parallel rank x t)."""
    return sum(op.flops for op in layer_gemms(cfg)) * cfg.tp_degree


def backward_gemms_for(op: TransformerGemm) -> List[TransformerGemm]:
    """The two backward GEMMs induced by one forward GEMM.

    For ``y = x @ W`` with x: (m, k) and W: (k, n)::

        dgrad:  dx = dy @ W^T   — (m, n) x (n, k)
        wgrad:  dW = x^T @ dy   — (k, m) x (m, n)

    Both have exactly the forward GEMM's FLOP count, which is why
    training costs ~3x a forward pass.  Module labels carry ``.dgrad``
    / ``.wgrad`` suffixes matching the traced backward pass.
    """
    return [
        TransformerGemm(f"{op.module}.dgrad", m=op.m, k=op.n, n=op.k, batch=op.batch),
        TransformerGemm(f"{op.module}.wgrad", m=op.k, k=op.m, n=op.n, batch=op.batch),
    ]


def training_gemms(cfg: TransformerConfig) -> List[TransformerGemm]:
    """All per-GPU GEMMs of one training step (fwd + bwd), per layer
    repeated L times, plus the logit GEMM triple."""
    ops: List[TransformerGemm] = []
    per_layer = layer_gemms(cfg)
    layer_full = list(per_layer)
    for op in per_layer:
        layer_full += backward_gemms_for(op)
    ops += layer_full * cfg.num_layers
    logit = logit_gemm(cfg)
    ops += [logit] + backward_gemms_for(logit)
    return ops
