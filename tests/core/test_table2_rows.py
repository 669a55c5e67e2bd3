"""Differential wall: the Table II row source vs the former object builder.

``repro.core.gemms.layer_rows`` writes Table II once, as integer
``(batch, m, n, k)`` rows with ``t`` an argument; the layer, logit,
backward and training-step views (``layer_gemms``, ``backward_rows``,
``training_gemms``, ``trainstep.step.step_rows``/``training_grid``) and
the latency model's priced rows all read it.  The reference below is
the builder those views replaced: one ``TransformerGemm`` per operator
of a sharded config (``tp_degree = t``), mechanically transposed into
its dgrad/wgrad pair, the forward layer repeated for recompute, and the
logit triple appended.  Every comparison is ``==`` over the zoo x every
feasible t in {1, 2, 3, 4, 6, 8} x both checkpointing policies.
"""

from typing import List, Tuple

import pytest

from repro.core.config import TransformerConfig, list_models
from repro.core.gemms import (
    TransformerGemm,
    backward_gemms_for,
    backward_rows,
    layer_gemms,
    layer_rows,
    logit_gemm,
    logit_row,
    tp_problem,
    training_gemms,
)
from repro.core.latency import LayerLatencyModel
from repro.errors import ParallelismError
from repro.trainstep.step import step_rows, training_grid

DEGREES = (1, 2, 3, 4, 6, 8)
POLICIES = ("none", "full")
CASES = [
    (cfg, t) for cfg in list_models() for t in DEGREES if tp_problem(cfg, t) is None
]
IDS = [f"{cfg.name}-t{t}" for cfg, t in CASES]


# -- the former object builder ---------------------------------------------------


def reference_layer(cfg: TransformerConfig) -> List[TransformerGemm]:
    """One layer's per-rank operators at ``cfg.tp_degree``, built one
    object per Table II operator."""
    b, s, h, a, t = (
        cfg.microbatch, cfg.seq_len, cfg.hidden_size, cfg.num_heads, cfg.tp_degree
    )
    bs = b * s
    d = cfg.head_dim
    heads = b * a // t
    ops = [
        TransformerGemm("qkv_transform", m=bs, k=h, n=(h + 2 * cfg.kv_dim) // t),
        TransformerGemm("attention_score", m=s, k=d, n=s, batch=heads),
        TransformerGemm("attention_over_value", m=s, k=s, n=d, batch=heads),
        TransformerGemm("attention_projection", m=bs, k=h // t, n=h),
    ]
    d_ff_shard = cfg.d_ff // t
    if cfg.num_experts is not None:
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


def reference_logit(cfg: TransformerConfig) -> TransformerGemm:
    return TransformerGemm(
        "logit", m=cfg.microbatch * cfg.seq_len, k=cfg.hidden_size, n=cfg.vocab_size
    )


def reference_backward(op: TransformerGemm) -> List[TransformerGemm]:
    """dx = dy @ W^T is (m, n) x (n, k); dW = x^T @ dy is (k, m) x (m, n)."""
    return [
        TransformerGemm(f"{op.module}.dgrad", m=op.m, k=op.n, n=op.k, batch=op.batch),
        TransformerGemm(f"{op.module}.wgrad", m=op.k, k=op.m, n=op.n, batch=op.batch),
    ]


def reference_step(
    cfg: TransformerConfig, checkpointing: str
) -> Tuple[List[str], List[str], List[int], List[Tuple[int, int, int, int]]]:
    """(labels, phases, counts, (batch, m, n, k) rows), one add per row."""
    out: Tuple[list, list, list, list] = ([], [], [], [])

    def add(op: TransformerGemm, phase: str, count: int) -> None:
        for column, value in zip(
            out, (op.module, phase, count, (op.batch, op.m, op.n, op.k))
        ):
            column.append(value)

    per_layer = reference_layer(cfg)
    L = cfg.num_layers
    for op in per_layer:
        add(op, "forward", L)
    for op in per_layer:
        for bop in reference_backward(op):
            add(bop, "backward", L)
    if checkpointing == "full":
        for op in per_layer:
            add(op, "recompute", L)
    logit = reference_logit(cfg)
    add(logit, "forward", 1)
    for bop in reference_backward(logit):
        add(bop, "backward", 1)
    return out


def _shard(cfg: TransformerConfig, t: int) -> TransformerConfig:
    return cfg.with_overrides(name=f"{cfg.name}@tp{t}", tp_degree=t)


def _rows(ops: List[TransformerGemm]):
    return [op.module for op in ops], [(op.batch, op.m, op.n, op.k) for op in ops]


# -- the wall ----------------------------------------------------------------------


@pytest.mark.parametrize("cfg, t", CASES, ids=IDS)
class TestRowSource:
    def test_layer_rows_match_reference(self, cfg, t):
        want = _rows(reference_layer(_shard(cfg, t)))
        assert layer_rows(cfg, t) == want
        assert layer_rows(_shard(cfg, t)) == want

    def test_logit_and_backward_rows_match_reference(self, cfg, t):
        shard = _shard(cfg, t)
        assert logit_row(shard) == _rows([reference_logit(shard)])[1][0]
        forward = reference_layer(shard) + [reference_logit(shard)]
        want = _rows([bop for op in forward for bop in reference_backward(op)])
        assert backward_rows(*_rows(forward)) == want

    def test_object_views_match_reference(self, cfg, t):
        shard = _shard(cfg, t)
        layer = reference_layer(shard)
        assert layer_gemms(shard) == layer
        assert logit_gemm(shard) == reference_logit(shard)
        for op in layer:
            assert backward_gemms_for(op) == reference_backward(op)
        full_layer = layer + [bop for op in layer for bop in reference_backward(op)]
        logit = reference_logit(shard)
        want = full_layer * cfg.num_layers + [logit] + reference_backward(logit)
        assert training_gemms(shard) == want

    @pytest.mark.parametrize("checkpointing", POLICIES)
    def test_step_rows_match_reference(self, cfg, t, checkpointing):
        shard = _shard(cfg, t)
        labels, phases, counts, rows = reference_step(shard, checkpointing)
        assert step_rows(shard, checkpointing) == (labels, phases, counts, rows)
        grid = training_grid(shard, checkpointing)
        assert grid.shapes.tolist() == [list(row) for row in rows]
        assert grid.column("module").tolist() == labels
        assert grid.column("phase").tolist() == phases
        assert grid.column("count").tolist() == counts

    @pytest.mark.parametrize("flash", (False, True))
    def test_priced_rows_drop_only_the_fused_bmms(self, cfg, t, flash):
        ops = reference_layer(_shard(cfg, t))
        if flash:
            fused = ("attention_score", "attention_over_value")
            ops = [op for op in ops if op.module not in fused]
        model = LayerLatencyModel("A100", flash_attention=flash)
        assert model.layer_rows(cfg, t) == _rows(ops)


def test_cases_cover_non_power_of_two_degrees():
    assert {3, 6} <= {t for _, t in CASES}


def test_infeasible_degree_raises():
    cfg = list_models()[0]
    bad = next(t for t in range(2, 64) if tp_problem(cfg, t) is not None)
    with pytest.raises(ParallelismError):
        layer_rows(cfg, bad)
