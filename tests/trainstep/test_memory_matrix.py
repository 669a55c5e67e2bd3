"""Differential wall: the memory model's module matrix vs per-module floats.

``estimate_memory`` (one cell) and ``estimate_memory_cells`` (many) are
one (modules x cells) NumPy matrix: element counts as an int64 column
times ``ceil(L/p) / (L t)``, phase totals an ordered top-to-bottom sum.
The reference below is the arithmetic that matrix replaced, written
with Python ints and floats one module at a time and summed left to
right with plain adds.  Every comparison is ``==``; the zoo keeps every
element count times layers per stage far below 2**53, where int64 and
Python int division round alike.
"""

from typing import List, Tuple

import pytest

from repro.core.config import TransformerConfig, list_models
from repro.trainstep.memory import (
    BOUNDARY_MODULE,
    GRADIENT_BYTES,
    OPTIMIZER_STATE_BYTES,
    PARAM_BYTES,
    PHASES,
    boundary_bytes_per_layer,
    estimate_memory,
    estimate_memory_cells,
    module_activation_bytes,
    module_param_elements,
)

DEGREES = (1, 2, 3, 4, 6, 8)
STAGES = (1, 2, 3, 4, 8, 16, 64)
MODELS = list_models()


def reference_modules(
    cfg: TransformerConfig, t: int, p: int, checkpointing: str, flash: bool
) -> List[Tuple[str, float, float]]:
    """``(module, parameter elements, activation bytes)`` per module."""
    L = cfg.num_layers
    lps = -(-L // p)
    param_elems = module_param_elements(cfg)
    act_layer = module_activation_bytes(cfg, t, flash)
    names = list(param_elems) + [n for n in act_layer if n not in param_elems]
    rows = []
    for name in names:
        elems = param_elems.get(name, 0)
        if name in ("embedding", "logit"):
            elems_rank = elems / t
        else:
            elems_rank = elems * lps / (L * t)
        act = act_layer.get(name, 0.0)
        if checkpointing != "full":
            act = act * lps
        rows.append((name, elems_rank, act))
    if checkpointing == "full" and lps > 1:
        rows.append(
            (BOUNDARY_MODULE, 0.0, boundary_bytes_per_layer(cfg, t) * (lps - 1))
        )
    return rows


def reference_phases(rows) -> List[Tuple[str, float, float, float, float]]:
    params = grads = opt = acts = 0
    for _name, elems, act in rows:
        params = params + elems * PARAM_BYTES
        grads = grads + elems * GRADIENT_BYTES
        opt = opt + elems * OPTIMIZER_STATE_BYTES
        acts = acts + act
    return [
        ("forward", params, 0.0, opt, acts),
        ("backward", params, grads, opt, acts),
        ("optimizer", params, grads, opt, 0.0),
    ]


def _total(parts) -> float:
    parameter, gradient, optimizer_state, activation = parts
    return parameter + gradient + optimizer_state + activation + 0.0


@pytest.mark.parametrize("checkpointing", ("none", "full"))
@pytest.mark.parametrize("cfg", MODELS, ids=[cfg.name for cfg in MODELS])
class TestModuleMatrix:
    @pytest.mark.parametrize("flash", (False, True))
    def test_one_cell_matches_per_module_floats(self, cfg, checkpointing, flash):
        for t in DEGREES:
            for p in STAGES:
                rows = reference_modules(cfg, t, p, checkpointing, flash)
                got = estimate_memory(
                    cfg, tp=t, pipeline_stages=p, checkpointing=checkpointing,
                    flash_attention=flash,
                )
                assert [
                    (m.module, m.parameter_bytes, m.gradient_bytes,
                     m.optimizer_state_bytes, m.activation_bytes, m.kv_cache_bytes)
                    for m in got.modules
                ] == [
                    (name, e * PARAM_BYTES, e * GRADIENT_BYTES,
                     e * OPTIMIZER_STATE_BYTES, act, 0.0)
                    for name, e, act in rows
                ], (t, p)
                assert [
                    (ph.phase, ph.parameter_bytes, ph.gradient_bytes,
                     ph.optimizer_state_bytes, ph.activation_bytes)
                    for ph in got.phases
                ] == reference_phases(rows), (t, p)

    def test_cells_match_per_module_floats(self, cfg, checkpointing):
        cells = [(t, p) for t in DEGREES for p in STAGES]
        got = estimate_memory_cells(
            cfg, [t for t, _ in cells], [p for _, p in cells], checkpointing
        )
        want = [
            [
                _total(parts[1:])
                for parts in reference_phases(
                    reference_modules(cfg, t, p, checkpointing, False)
                )
            ]
            for t, p in cells
        ]
        assert got.phase_bytes.T.tolist() == want
        assert got.peak_phase == [
            PHASES[row.index(max(row))] for row in want
        ]
