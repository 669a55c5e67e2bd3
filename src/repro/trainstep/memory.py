"""Per-module, per-phase peak-memory model for one training step.

The one answer to "does this training step fit?": the planner's
capacity wall, ``repro estimate``, the ``shape_rules`` capacity advisory,
and the what-if microbatch gate all read it.
The accounting is:

- **per module** — every learned tensor is attributed to the module
  label the GEMM trace uses (``qkv_transform``, ``mlp_h_to_4h``, ...),
  with parameter, gradient, optimizer-state, activation, and KV-cache
  bytes per (t, p) rank,
- **per phase** — the rolled-up residency of the ``forward`` /
  ``backward`` / ``optimizer`` phases, so an OOM rejection can *name*
  the overflowing phase instead of one opaque total,
- **under a checkpointing policy** — ``"none"`` stores every per-layer
  activation; ``"full"`` keeps only the 2sbh/t layer-boundary tensors
  plus one live layer's activations during recomputation,
- **over one cell or many** — the per-module terms are one
  (modules x cells) matrix: element counts as an int64 column times
  ``ceil(L/p) / (L t)`` (``/ t`` for the vocab-sharded rows), and
  phase totals an ordered top-to-bottom sum of it, so
  :func:`estimate_memory` (one (t, p) cell, with its per-module rows)
  and :func:`estimate_memory_cells` (the per-phase totals of a whole
  cell array) are the same code and agree bit for bit.

Accounting identities (pinned by the conservation-law suite):

- the tied-dedup module walk sums *exactly* to ``cfg.param_count()``
  (the tied logit projection weight IS the embedding table and is
  counted once — see :func:`module_param_elements`),
- for the classic GPT block the per-module activation walk sums exactly
  to Korthikanti's ``(34 s b h + 5 a s^2 b) / t`` per-layer closed form
  (:func:`repro.core.memory.activation_bytes_per_layer`),
- peak memory is monotone non-increasing in both t and p, and
  checkpointing never increases it.

Mixed-precision Adam residency per parameter element: fp16 weight (2 B)
+ fp16 gradient (2 B) + fp32 master weight, m, v (12 B) =
:data:`repro.core.training.ADAM_STATE_BYTES_PER_PARAM`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple, Union

import numpy as np

from repro.core.config import TransformerConfig
from repro.core.memory import MemoryBudget
from repro.core.training import ADAM_STATE_BYTES_PER_PARAM
from repro.errors import CapacityError, ConfigError

#: fp16 storage of the live weight / gradient, bytes per element.
PARAM_BYTES = 2
GRADIENT_BYTES = 2
#: fp32 Adam master weight + first and second moments, bytes per element.
OPTIMIZER_STATE_BYTES = ADAM_STATE_BYTES_PER_PARAM - PARAM_BYTES - GRADIENT_BYTES

#: Phase timeline of one training step, in execution order.
PHASES = ("forward", "backward", "optimizer")

#: Supported activation-checkpointing policies.
CHECKPOINTING_POLICIES = ("none", "full")

#: Synthetic module label holding the stored layer-boundary activations
#: under full checkpointing.
BOUNDARY_MODULE = "layer_boundary"

#: A tensor or pipeline degree: an int for one (t, p) cell, or an int
#: array with one entry per cell.
Degree = Union[int, np.ndarray]


def _check_sharding(t: int, p: int) -> None:
    if t <= 0 or p <= 0:
        raise ConfigError(f"tp and pipeline_stages must be positive, got ({t}, {p})")


def _check_policy(checkpointing: str) -> None:
    if checkpointing not in CHECKPOINTING_POLICIES:
        raise ConfigError(
            f"unknown checkpointing policy {checkpointing!r} "
            f"(choose from {CHECKPOINTING_POLICIES})"
        )


def embedding_elements(cfg: TransformerConfig) -> int:
    """Learned elements of the (tied) embedding: ``(v + s) h``, with
    ``s = 0`` for non-learned positional embeddings."""
    s_pos = cfg.seq_len if cfg.positional == "learned" else 0
    return (cfg.vocab_size + s_pos) * cfg.hidden_size


def module_param_elements(
    cfg: TransformerConfig, dedup_tied: bool = True
) -> Dict[str, int]:
    """Learned elements per module label for the whole unsharded model.

    With ``dedup_tied`` (the default) the ``logit`` entry is zero — its
    ``(h, v)`` weight *is* the tied embedding table, already counted
    under ``embedding`` — and the values sum exactly to
    ``cfg.param_count()``.  ``dedup_tied=False`` is the naive
    GEMM-operand walk that counts the tied weight twice (the historical
    planner bug this module exists to make visible: under tensor
    parallelism it inflates every rank by ``v*h/t`` extra elements).
    """
    h, L, d = cfg.hidden_size, cfg.num_layers, cfg.d_ff
    kv = cfg.kv_dim
    out: Dict[str, int] = {"embedding": embedding_elements(cfg)}
    layer: Dict[str, int] = {
        # Q weight + bias, K/V weights + biases (GQA-narrowed).
        "qkv_transform": h * (h + 2 * kv) + h + 2 * kv,
        "attention_projection": h * h + h,
        # Two pre-norms, gamma + beta each.
        "layernorm": 4 * h,
    }
    if cfg.num_experts is not None:
        E = cfg.num_experts
        layer["moe_router"] = h * E
        if cfg.mlp_kind == "swiglu":
            layer["moe_mlp_gate"] = E * h * d
            layer["moe_mlp_up"] = E * h * d
            layer["moe_mlp_down"] = E * d * h
        else:
            layer["moe_mlp_h_to_4h"] = E * (h * d + d)
            layer["moe_mlp_4h_to_h"] = E * (d * h + h)
    elif cfg.mlp_kind == "swiglu":
        layer["mlp_gate"] = h * d
        layer["mlp_up"] = h * d
        layer["mlp_down"] = d * h
    else:
        layer["mlp_h_to_4h"] = h * d + d
        layer["mlp_4h_to_h"] = d * h + h
    for name, elems in layer.items():
        out[name] = elems * L
    out["logit"] = 0 if dedup_tied else cfg.vocab_size * h
    return out


def module_activation_bytes(
    cfg: TransformerConfig, t: Degree, flash_attention: bool = False
) -> Dict[str, Any]:
    """Stored activation bytes of one layer per module, per (t,) rank.

    The per-module split of Korthikanti et al.'s unfused-transformer
    coefficient: each module is charged its stored *inputs* plus the
    outputs only it needs for backward (fp16, dropout masks one byte
    per element).  For the classic GPT block (2-matrix MLP,
    ``d_ff = 4h``) the values sum exactly to ``(34 s b h + 5 a s^2 b)/t``;
    SwiGLU and MoE blocks generalize the MLP terms honestly instead of
    forcing the classic total.  With an array ``t`` each value is an
    array over the degrees.
    """
    s, b, h, a = cfg.seq_len, cfg.microbatch, cfg.hidden_size, cfg.num_heads
    d = cfg.d_ff
    sbh = float(s * b * h)
    score = 0.0 if flash_attention else float(a * s * s * b)
    out: Dict[str, float] = {
        # LN output feeding QKV.
        "qkv_transform": 2 * sbh,
        # Q and K (4sbh) + the raw score matrix (2as^2b).
        "attention_score": 4 * sbh + 2 * score,
        # V (2sbh) + softmax output (2as^2b) + dropout mask (as^2b).
        "attention_over_value": 2 * sbh + 3 * score,
        # Its input (2sbh) + the post-projection dropout mask (sbh).
        "attention_projection": 3 * sbh,
        # Two norms, input + mean/var working set: 2sbh each.
        "layernorm": 4 * sbh,
    }
    sbd = float(s * b * d)
    if cfg.num_experts is not None:
        k_route = float(cfg.moe_top_k or 1)
        out["moe_router"] = 2.0 * s * b * cfg.num_experts
        if cfg.mlp_kind == "swiglu":
            out["moe_mlp_gate"] = 2 * sbh + k_route * 2 * sbd
            out["moe_mlp_up"] = k_route * 2 * sbd
            out["moe_mlp_down"] = k_route * 2 * sbd
        else:
            out["moe_mlp_h_to_4h"] = 2 * sbh + k_route * 2 * sbd
            out["moe_mlp_4h_to_h"] = k_route * (2 * sbd + sbh / max(k_route, 1.0))
    elif cfg.mlp_kind == "swiglu":
        out["mlp_gate"] = 2 * sbh + 2 * sbd
        out["mlp_up"] = 2 * sbd
        out["mlp_down"] = 2 * sbd
    else:
        # Input (2sbh) + fc1 output (2sbd) | GELU output (2sbd) +
        # dropout mask (sbh).  With d = 4h: 10sbh and 9sbh.
        out["mlp_h_to_4h"] = 2 * sbh + 2 * sbd
        out["mlp_4h_to_h"] = 2 * sbd + sbh
    return {name: bytes_ / t for name, bytes_ in out.items()}


def boundary_bytes_per_layer(cfg: TransformerConfig, t: Degree) -> Any:
    """The fp16 layer-input tensor kept per layer under full
    checkpointing: ``2 s b h / t`` bytes."""
    return 2.0 * cfg.seq_len * cfg.microbatch * cfg.hidden_size / t


def _total(
    parameter: Any, gradient: Any, optimizer_state: Any, activation: Any,
    kv_cache: Any = 0.0,
) -> Any:
    """Resident bytes of one module or phase, summed in one fixed order."""
    return parameter + gradient + optimizer_state + activation + kv_cache


#: Bytes per resident parameter element held as weight, gradient and
#: optimizer state: the first three components of a module's bytes.
_ELEMENT_BYTES = np.array([PARAM_BYTES, GRADIENT_BYTES, OPTIMIZER_STATE_BYTES])

#: Which of (parameter, gradient, optimizer-state, activation) bytes are
#: resident in each of :data:`PHASES`.  Forward: weights + persistent
#: optimizer states, activations accumulating to their full footprint.
#: Backward start: activations still live, gradients now too — the
#: step's peak.  Optimizer: activations freed, gradients consumed in
#: place.
_RESIDENT = np.array(
    [[True, False, True, True], [True, True, True, True], [True, True, True, False]]
)


def _module_bytes(
    cfg: TransformerConfig,
    t: np.ndarray,
    p: np.ndarray,
    checkpointing: str,
    flash_attention: bool,
) -> Tuple[List[str], np.ndarray]:
    """Module labels and the ``(modules, 4, cells)`` matrix of their
    parameter, gradient, optimizer-state and activation bytes on the
    heaviest stage's rank, one column per ``(t[i], p[i])`` cell.

    Under ``"full"`` the last module is :data:`BOUNDARY_MODULE`, whose
    bytes are exactly 0.0 where a stage holds a single layer.
    """
    L = cfg.num_layers
    # ceil(L / p): at least one layer for L, p >= 1.
    lps = -(-L // p)
    param_elems = module_param_elements(cfg)
    # One unsharded layer's bytes (x / 1 == x), divided by each t below.
    act_layer = module_activation_bytes(cfg, 1, flash_attention)
    # Union of labels: weighted modules plus activation-only ones (the
    # attention BMMs store scores/probs but own no learned tensors).
    names = list(param_elems)
    names += [n for n in act_layer if n not in param_elems]
    if checkpointing == "full":
        names.append(BOUNDARY_MODULE)
    elems = np.array([param_elems.get(n, 0) for n in names], dtype=np.int64)[:, None]
    # Vocab-sharded across t and resident in full on its stage (the
    # logit entry is zero under tied dedup); per-layer weights are
    # t-sharded with the layers split over stages.
    vocab = np.array([n in ("embedding", "logit") for n in names])[:, None]
    elems_rank = np.where(vocab, elems / t, elems * lps / (L * t))
    act = np.array([act_layer.get(n, 0.0) for n in names])[:, None] / t
    if checkpointing == "full":
        # Only the live (recomputing) layer's activations exist, plus
        # the stored layer-boundary tensors.
        act[-1] = boundary_bytes_per_layer(cfg, t) * (lps - 1)
    else:
        act = act * lps
    return names, np.concatenate(
        [elems_rank[:, None, :] * _ELEMENT_BYTES[:, None], act[:, None, :]], axis=1
    )


def _phase_bytes(module_bytes: np.ndarray) -> np.ndarray:
    """``(phases, 4, cells)`` component bytes of each of :data:`PHASES`,
    from the module matrix summed top to bottom (``np.add.accumulate``
    adds strictly in order; ``np.sum`` leaves its order to NumPy)."""
    totals = np.add.accumulate(module_bytes, axis=0)[-1]
    return np.where(_RESIDENT[:, :, None], totals, 0.0)


@dataclass(frozen=True)
class ModuleMemory:
    """Bytes attributed to one module label on one (t, p) rank."""

    module: str
    parameter_bytes: float
    gradient_bytes: float
    optimizer_state_bytes: float
    activation_bytes: float
    kv_cache_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        return float(
            _total(
                self.parameter_bytes,
                self.gradient_bytes,
                self.optimizer_state_bytes,
                self.activation_bytes,
                self.kv_cache_bytes,
            )
        )


@dataclass(frozen=True)
class PhaseMemory:
    """Peak residency of one training-step phase on one rank."""

    phase: str
    parameter_bytes: float
    gradient_bytes: float
    optimizer_state_bytes: float
    activation_bytes: float
    kv_cache_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        return float(
            _total(
                self.parameter_bytes,
                self.gradient_bytes,
                self.optimizer_state_bytes,
                self.activation_bytes,
                self.kv_cache_bytes,
            )
        )

    def gb(self) -> float:
        return self.total_bytes / 1e9


@dataclass(frozen=True)
class TrainStepMemory:
    """The full memory estimate: per-module rows + per-phase timeline."""

    model: str
    tp: int
    pipeline_stages: int
    checkpointing: str
    modules: Tuple[ModuleMemory, ...]
    phases: Tuple[PhaseMemory, ...]

    # -- component totals (backward-phase residency) -----------------------

    @property
    def parameter_bytes(self) -> float:
        return sum(m.parameter_bytes for m in self.modules)

    @property
    def gradient_bytes(self) -> float:
        return sum(m.gradient_bytes for m in self.modules)

    @property
    def optimizer_state_bytes(self) -> float:
        return sum(m.optimizer_state_bytes for m in self.modules)

    @property
    def activation_bytes(self) -> float:
        return sum(m.activation_bytes for m in self.modules)

    @property
    def kv_cache_bytes(self) -> float:
        return sum(m.kv_cache_bytes for m in self.modules)

    @property
    def parameter_elements(self) -> float:
        """Learned elements resident on this rank (tied weights once)."""
        return self.parameter_bytes / PARAM_BYTES

    # -- peaks -------------------------------------------------------------

    @property
    def peak_bytes(self) -> float:
        return max(p.total_bytes for p in self.phases)

    @property
    def peak_phase(self) -> str:
        return max(self.phases, key=lambda p: p.total_bytes).phase

    def phase(self, name: str) -> PhaseMemory:
        for p in self.phases:
            if p.phase == name:
                return p
        raise KeyError(f"unknown phase {name!r}")

    def fits(self, budget: MemoryBudget) -> bool:
        return self.peak_bytes <= budget.usable_bytes

    def require_fits(self, budget: MemoryBudget) -> None:
        """Raise :class:`CapacityError` naming the overflowing phase."""
        if self.fits(budget):
            return
        peak = self.phase(self.peak_phase)
        raise CapacityError(
            f"{self.model}: (t={self.tp}, p={self.pipeline_stages}, "
            f"checkpointing={self.checkpointing}) does not fit: "
            f"{peak.phase} phase needs {peak.total_bytes / 1e9:.1f} GB "
            f"against a {budget.usable_bytes / 1e9:.1f} GB budget",
            phase=peak.phase,
            required_bytes=peak.total_bytes,
            budget_bytes=budget.usable_bytes,
        )


def estimate_memory(
    cfg: TransformerConfig,
    tp: "int | None" = None,
    pipeline_stages: int = 1,
    checkpointing: str = "none",
    flash_attention: bool = False,
) -> TrainStepMemory:
    """The per-module / per-phase memory estimate for one (t, p) rank.

    ``tp`` defaults to ``cfg.tp_degree``.  The modelled rank is the
    *heaviest* pipeline stage: it holds ``ceil(L / p)`` layers plus the
    full vocab-sharded embedding, so the estimate upper-bounds every
    stage and is monotone non-increasing in both t and p.
    """
    t = cfg.tp_degree if tp is None else tp
    p = pipeline_stages
    _check_sharding(t, p)
    _check_policy(checkpointing)

    names, module_bytes = _module_bytes(
        cfg, np.array([t], dtype=np.int64), np.array([p], dtype=np.int64),
        checkpointing, flash_attention,
    )
    rows = module_bytes[:, :, 0].tolist()
    # A one-layer stage stores no boundary tensors: no row for them.
    if names[-1] == BOUNDARY_MODULE and -(-cfg.num_layers // p) == 1:
        names, rows = names[:-1], rows[:-1]
    modules = tuple(
        # No decode cache during training.
        ModuleMemory(name, *row, kv_cache_bytes=0.0)
        for name, row in zip(names, rows)
    )
    phases = tuple(
        PhaseMemory(phase, *parts)
        for phase, parts in zip(PHASES, _phase_bytes(module_bytes)[:, :, 0].tolist())
    )
    return TrainStepMemory(
        model=cfg.name,
        tp=t,
        pipeline_stages=p,
        checkpointing=checkpointing,
        modules=modules,
        phases=phases,
    )


@dataclass(frozen=True)
class MemoryCells:
    """Per-phase totals of many (t, p) cells under one policy.

    Column ``i`` of :attr:`phase_bytes` holds, in :data:`PHASES` order,
    the phase totals ``estimate_memory(cfg, tp[i], pipeline_stages[i],
    checkpointing)`` reports, equal bit for bit.
    """

    #: ``(len(PHASES), cells)`` total bytes per phase and cell.
    phase_bytes: np.ndarray

    @property
    def peak_bytes(self) -> np.ndarray:
        return self.phase_bytes.max(axis=0)

    @property
    def peak_index(self) -> np.ndarray:
        """Index into :data:`PHASES` of each cell's peak (first on ties,
        as :attr:`TrainStepMemory.peak_phase`)."""
        return self.phase_bytes.argmax(axis=0)

    @property
    def peak_phase(self) -> List[str]:
        return [PHASES[i] for i in self.peak_index.tolist()]

    def fits(self, budget: MemoryBudget) -> np.ndarray:
        return self.peak_bytes <= budget.usable_bytes


def estimate_memory_cells(
    cfg: TransformerConfig,
    tp: "int | List[int] | np.ndarray",
    pipeline_stages: "int | List[int] | np.ndarray",
    checkpointing: str = "none",
) -> MemoryCells:
    """:func:`estimate_memory`'s phase totals over a cell array at once.

    ``tp`` and ``pipeline_stages`` broadcast against each other to one
    1-D cell array.  The module matrix is :func:`estimate_memory`'s
    own with one column per cell, so callers that sweep (t, p) — the
    planner, ``capacity_matrix``, the capacity lint's fix-it — price
    every cell in one pass, bit-identical to the one-cell view.
    """
    t, p = np.broadcast_arrays(
        np.atleast_1d(np.asarray(tp, dtype=np.int64)),
        np.atleast_1d(np.asarray(pipeline_stages, dtype=np.int64)),
    )
    if t.ndim != 1:
        raise ConfigError(f"cells must be 1-D, got shape {t.shape}")
    if (t <= 0).any() or (p <= 0).any():
        raise ConfigError(
            f"tp and pipeline_stages must be positive, got ({t.tolist()}, "
            f"{p.tolist()})"
        )
    _check_policy(checkpointing)
    phase_bytes = _phase_bytes(_module_bytes(cfg, t, p, checkpointing, False)[1])
    return MemoryCells(np.add.accumulate(phase_bytes, axis=1)[:, -1])
