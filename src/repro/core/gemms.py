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

The table has one row source: :func:`layer_rows` (``t`` an argument),
:func:`logit_row` and :func:`backward_rows` write it as integer
``(batch, m, n, k)`` rows, which every pricing path reads directly;
the :class:`TransformerGemm` lists are views of the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.config import TransformerConfig
from repro.errors import ParallelismError

#: One Table II GEMM as ``(batch, m, n, k)``: ``batch`` independent
#: ``(m, k) x (k, n)`` products.
Row = Tuple[int, int, int, int]


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


def validate_tp_feasible(cfg: TransformerConfig, t: int) -> None:
    """Raise :class:`ParallelismError` if ``t``-way TP cannot shard cfg
    (:func:`tp_problem`)."""
    problem = tp_problem(cfg, t)
    if problem is not None:
        raise ParallelismError(f"{cfg.name}: {problem}")


def layer_rows(
    cfg: TransformerConfig, t: Optional[int] = None
) -> Tuple[List[str], List[Row]]:
    """Module labels and rows of one layer's forward GEMMs on one of
    ``t`` ranks (default ``cfg.tp_degree``), in execution order.

    Raises :class:`ParallelismError` if ``t``-way TP cannot shard cfg.
    """
    t = cfg.tp_degree if t is None else t
    validate_tp_feasible(cfg, t)
    b, s, h = cfg.microbatch, cfg.seq_len, cfg.hidden_size
    bs = b * s
    d = cfg.head_dim
    heads = b * cfg.num_heads // t
    # Fused QKV width: h for Q plus 2*kv_dim for K and V (= 3h for
    # classic MHA; narrower under grouped-query attention).  The score
    # and attention-over-value BMMs are unchanged by GQA — each query
    # head still attends over an (s x d) key/value slice, the slices
    # are just shared between query groups.
    labels = [
        "qkv_transform",
        "attention_score",
        "attention_over_value",
        "attention_projection",
    ]
    rows: List[Row] = [
        (1, bs, (h + 2 * cfg.kv_dim) // t, h),
        (heads, s, s, d),
        (heads, s, d, s),
        (1, bs, h, h // t),
    ]
    d_ff = cfg.d_ff // t
    prefix, batch, m = "", 1, bs
    if cfg.num_experts is not None:
        # Mixture of experts: a router GEMM plus E expert MLPs executed
        # as a grouped (batched) GEMM over the balanced per-expert row
        # count (capacity-padded; the NumPy substrate routes exactly).
        labels.append("moe_router")
        rows.append((1, bs, cfg.num_experts, h))
        prefix, batch, m = "moe_", cfg.num_experts, cfg.tokens_per_expert
    up, down = (batch, m, d_ff, h), (batch, m, h, d_ff)
    if cfg.mlp_kind == "swiglu":
        labels += [prefix + "mlp_gate", prefix + "mlp_up", prefix + "mlp_down"]
        rows += [up, up, down]
    else:
        labels += [prefix + "mlp_h_to_4h", prefix + "mlp_4h_to_h"]
        rows += [up, down]
    return labels, rows


def logit_row(cfg: TransformerConfig) -> Row:
    """The final vocabulary projection (Table II 'Linear Output', Fig 20).

    Computed as ``(b*s, h) x (h, v)``; the paper's table writes the
    transposed orientation, which has the same (m, n, k) multiset and
    identical performance characteristics.
    """
    return (1, cfg.microbatch * cfg.seq_len, cfg.vocab_size, cfg.hidden_size)


def backward_rows(
    labels: Sequence[str], rows: Sequence[Row]
) -> Tuple[List[str], List[Row]]:
    """The dgrad and wgrad rows of each forward row, pair by pair.

    For ``y = x @ W`` with x: (m, k) and W: (k, n)::

        dgrad:  dx = dy @ W^T   — (m, n) x (n, k), row (batch, m, k, n)
        wgrad:  dW = x^T @ dy   — (k, m) x (m, n), row (batch, k, n, m)

    Both have exactly the forward GEMM's FLOP count, which is why
    training costs ~3x a forward pass.  Labels carry ``.dgrad`` /
    ``.wgrad`` suffixes matching the traced backward pass.
    """
    return (
        [f"{label}.{grad}" for label in labels for grad in ("dgrad", "wgrad")],
        [pair for b, m, n, k in rows for pair in ((b, m, k, n), (b, k, n, m))],
    )


def as_gemms(labels: Sequence[str], rows: Sequence[Row]) -> List[TransformerGemm]:
    """Labelled rows as :class:`TransformerGemm` operators."""
    return [
        TransformerGemm(label, m=m, k=k, n=n, batch=b)
        for label, (b, m, n, k) in zip(labels, rows)
    ]


def layer_gemms(cfg: TransformerConfig) -> List[TransformerGemm]:
    """Per-GPU GEMMs of one transformer layer, in execution order."""
    return as_gemms(*layer_rows(cfg))


def logit_gemm(cfg: TransformerConfig) -> TransformerGemm:
    """The logit GEMM of :func:`logit_row`."""
    return as_gemms(["logit"], [logit_row(cfg)])[0]


def backward_gemms_for(op: TransformerGemm) -> List[TransformerGemm]:
    """The dgrad and wgrad GEMMs (:func:`backward_rows`) of one forward GEMM."""
    return as_gemms(*backward_rows([op.module], [(op.batch, op.m, op.n, op.k)]))


def training_gemms(cfg: TransformerConfig) -> List[TransformerGemm]:
    """All per-GPU GEMMs of one training step (fwd + bwd), per layer
    repeated L times, plus the logit GEMM triple."""
    labels, rows = layer_rows(cfg)
    grad_labels, grad_rows = backward_rows(labels, rows)
    logit = [logit_row(cfg)]
    logit_labels, logit_grads = backward_rows(["logit"], logit)
    layer = as_gemms(labels + grad_labels, rows + grad_rows)
    return layer * cfg.num_layers + as_gemms(
        ["logit"] + logit_labels, logit + logit_grads
    )
