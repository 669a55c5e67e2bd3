"""The co-design shape linter (prong 1).

Statically checks a :class:`~repro.core.config.TransformerConfig`
against the paper's sizing rules *under its tensor-parallel degree*:
every per-GPU GEMM dimension the config induces — ``h/t``, ``h/a``,
``d_ff/t``, ``v/t`` — should be divisible by 64 for full Tensor Core
utilization (Sec VI-B, VII-A/B), and the microbatch should not sit
just past a tile/wave-quantization cliff (Sec III-B).  This is the one
implementation of the paper's Sec VI-B rule list: ``repro lint``, the
harness preflight and the advisory service's lint queries all run it.

Every shape fix-it is *quantified*: the rule proposes the nearest
compliant value and batch-evaluates the whole candidate neighborhood
through the memoized engine (:mod:`repro.analysis.fixit`), so
suggestions carry modeled before/after latencies and the neighborhood
ranking is by modeled latency, not divisibility alone.  The advisory
rules (``b*s`` alignment, microbatch size, minimal ``t``, MoE tokens
per expert) state the paper's recommendation without a fix-it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import (
    FixIt,
    LintDiagnostic,
    LintReport,
    Location,
    Severity,
)
from repro.analysis.fixit import (
    GemmShape,
    modeled_latency,
    neighborhood_multiples,
    rank_candidates,
    strictly_better,
)
from repro.core.config import TransformerConfig
from repro.core.memory import MemoryBudget
from repro.engine.core import default_engine
from repro.engine.vectorized import shape_array
from repro.gpu.alignment import largest_pow2_divisor
from repro.gpu.specs import GPUSpec, get_gpu
from repro.trainstep.memory import estimate_memory, estimate_memory_cells

#: "There is no further benefit to going beyond 64" (Sec VI-B).
POW2_TARGET = 64

#: Head dims worth proposing: small enough for attention kernels, large
#: enough that per-head GEMMs are not overhead-dominated.
_HEAD_DIM_RANGE = (8, 256)

#: Wave efficiency below which the microbatch rule flags cliff proximity.
_WAVE_EFF_THRESHOLD = 0.90

#: Minimum modeled gain before a microbatch fix-it is worth suggesting.
_MICROBATCH_MIN_GAIN = 0.02

ShapeRuleFn = Callable[["ShapeLinter", TransformerConfig], List[LintDiagnostic]]


def _loc(cfg: TransformerConfig, field: str) -> Location:
    return Location(config_path=f"{cfg.name}.{field}")


def _pow2_shortfall(p: int) -> Tuple[Severity, str]:
    """Severity and reason for a dimension whose largest power-of-two
    divisor ``p`` is below :data:`POW2_TARGET`."""
    if p < 8:
        return Severity.ERROR, "below the 8-element MMA fragment granularity"
    return (
        Severity.WARNING,
        f"Tensor Core efficiency improves up to divisibility by {POW2_TARGET}",
    )


class ShapeLinter:
    """Applies the quantified co-design rules on one target GPU."""

    def __init__(self, gpu: "str | GPUSpec" = "A100", dtype: str = "fp16") -> None:
        self.spec = get_gpu(gpu)
        self.dtype = dtype

    # -- entry points -------------------------------------------------------

    def lint(
        self, cfg: TransformerConfig, pipeline_stages: int = 1
    ) -> LintReport:
        """Run every shape rule against one configuration."""
        report = LintReport(target=f"{cfg.describe()} on {self.spec.name}")
        report.extend(self.diagnose(cfg, pipeline_stages))
        return report

    def diagnose(
        self, cfg: TransformerConfig, pipeline_stages: int = 1
    ) -> List[LintDiagnostic]:
        out: List[LintDiagnostic] = []
        out += self.rule_vocab(cfg)
        out += self.rule_head_alignment(cfg)
        out += self.rule_hidden_tp(cfg)
        out += self.rule_dff_alignment(cfg)
        out += self.rule_heads_tp(cfg)
        out += self.rule_tokens_alignment(cfg)
        out += self.rule_microbatch_size(cfg)
        out += self.rule_tp_minimal(cfg)
        out += self.rule_moe_tokens(cfg)
        out += self.rule_microbatch_wave(cfg)
        out += self.rule_layers_pipeline(cfg, pipeline_stages)
        out += self.rule_memory_capacity(cfg, pipeline_stages)
        return out

    def lint_grid(
        self, configs: Sequence[TransformerConfig], pipeline_stages: int = 1
    ) -> LintReport:
        """Lint an experiment grid; diagnostics keep per-config paths."""
        report = LintReport(
            target=f"grid of {len(configs)} configs on {self.spec.name}"
        )
        for cfg in configs:
            report.extend(self.diagnose(cfg, pipeline_stages))
        return report

    # -- rules --------------------------------------------------------------

    def rule_vocab(self, cfg: TransformerConfig) -> List[LintDiagnostic]:
        """``v`` must be divisible by 64*t so each rank's logit shard is
        64-aligned (Sec VI-B rule 1, Fig 20; vocab-parallel sharding
        additionally needs ``t | v``)."""
        v, t, h = cfg.vocab_size, cfg.tp_degree, cfg.hidden_size
        tokens = cfg.tokens_per_microbatch
        align = POW2_TARGET * t
        if v % align == 0:
            return [
                LintDiagnostic(
                    "shape/vocab-divisible",
                    Severity.OK,
                    f"v = {v} is a multiple of {align} (64*t); the logit "
                    "shard is fully Tensor-Core aligned",
                    _loc(cfg, "vocab_size"),
                    paper_ref="Sec VI-B",
                )
            ]

        # Modeled per-rank logit GEMM: (b*s, h) x (h, ceil(v/t)).
        shard_before = -(-v // t)
        before_s = modeled_latency(
            [(tokens, shard_before, h, 1)], self.spec.name, self.dtype
        )
        candidates = neighborhood_multiples(v, align, span=4, up_only=True)
        ranked = rank_candidates(
            candidates,
            lambda vc: [(tokens, vc // t, h, 1)],
            self.spec.name,
            self.dtype,
        )
        best = ranked[0]
        ragged = f" and not divisible by t={t} (ragged shard)" if v % t else ""
        message = (
            f"v = {v} is not a multiple of {align} (64*t){ragged}; the "
            f"logit GEMM ({tokens}, {h}) x ({h}, ~{shard_before}) per rank "
            "loses Tensor Core efficiency"
        )
        fixit: Optional[FixIt] = None
        speedup = strictly_better(before_s, best.latency_s)
        if speedup is not None:
            waste = best.value - v
            fixit = FixIt(
                field="vocab_size",
                current=v,
                suggested=best.value,
                latency_before_s=before_s,
                latency_after_s=best.latency_s,
                note=(
                    f"padding waste: {waste} unused tokens "
                    f"(~{waste * h / 1e6:.1f}M embedding params)"
                ),
            )
        return [
            LintDiagnostic(
                "shape/vocab-divisible",
                Severity.WARNING,
                message,
                _loc(cfg, "vocab_size"),
                fixit=fixit,
                paper_ref="Sec VI-B",
            )
        ]

    def _attention_shapes(
        self, cfg: TransformerConfig, a: int
    ) -> List[GemmShape]:
        """The two BMMs whose shapes depend on the head count."""
        d = cfg.hidden_size // a
        s = cfg.seq_len
        heads = cfg.microbatch * a // cfg.tp_degree
        return [(s, s, d, heads), (s, d, s, heads)]

    def _compliant_head_counts(
        self, cfg: TransformerConfig, align: int
    ) -> List[int]:
        h, t, b = cfg.hidden_size, cfg.tp_degree, cfg.microbatch
        lo, hi = _HEAD_DIM_RANGE
        out = []
        for a in range(max(1, t), h + 1):
            if h % a or a % t or (b * a) % t:
                continue
            d = h // a
            if d < lo or d > hi or d % align:
                continue
            out.append(a)
        return out

    def rule_head_alignment(self, cfg: TransformerConfig) -> List[LintDiagnostic]:
        """``h/a`` should be divisible by a power of two, ideally 64
        (Sec VI-B rule 3, Figs 7/21-47)."""
        d = cfg.head_dim
        p = largest_pow2_divisor(d)
        if p >= POW2_TARGET:
            return [
                LintDiagnostic(
                    "shape/head-alignment",
                    Severity.OK,
                    f"h/a = {d} is a multiple of {POW2_TARGET}",
                    _loc(cfg, "num_heads"),
                    paper_ref="Sec VI-B",
                )
            ]
        severity, detail = _pow2_shortfall(p)
        message = f"h/a = {d} is divisible only by {p}; {detail}"

        # Nearest compliant head count, with the whole neighborhood
        # batch-ranked by modeled attention-BMM latency.
        candidates = self._compliant_head_counts(cfg, POW2_TARGET)
        if not candidates:
            candidates = self._compliant_head_counts(cfg, 8)
        fixit: Optional[FixIt] = None
        if candidates:
            ranked = rank_candidates(
                candidates,
                lambda a: self._attention_shapes(cfg, a),
                self.spec.name,
                self.dtype,
            )
            latency_of = {c.value: c.latency_s for c in ranked}
            # Propose the *nearest* compliant head count (the smallest
            # change to the published architecture); break distance ties
            # by modeled latency.
            suggested = min(
                candidates,
                key=lambda a: (abs(a - cfg.num_heads), latency_of[a]),
            )
            before_s = modeled_latency(
                self._attention_shapes(cfg, cfg.num_heads),
                self.spec.name,
                self.dtype,
            )
            speedup = strictly_better(before_s, latency_of[suggested])
            if speedup is not None:
                note = f"h/a becomes {cfg.hidden_size // suggested}; params unchanged"
                fastest = ranked[0]
                if fastest.value != suggested:
                    note += (
                        f"; a={fastest.value} models even faster "
                        f"({fastest.latency_s * 1e6:.0f} us) but is a "
                        "larger change in attention parallelism"
                    )
                fixit = FixIt(
                    field="num_heads",
                    current=cfg.num_heads,
                    suggested=suggested,
                    latency_before_s=before_s,
                    latency_after_s=latency_of[suggested],
                    note=note,
                )
        return [
            LintDiagnostic(
                "shape/head-alignment",
                severity,
                message,
                _loc(cfg, "num_heads"),
                fixit=fixit,
                paper_ref="Sec VI-B",
            )
        ]

    def _dense_layer_shapes(
        self, cfg: TransformerConfig, tokens: int, h: int
    ) -> List[GemmShape]:
        """The layer GEMMs of :func:`~repro.core.gemms.layer_gemms` other
        than the attention BMMs, at ``tokens`` rows and hidden size ``h``
        (d_ff and the head counts held)."""
        t, d_ff = cfg.tp_degree, cfg.d_ff
        qkv_cols = h + 2 * h * cfg.kv_heads // cfg.num_heads
        mlp_up = [(tokens, d_ff // t, h, 1)] * (cfg.mlp_matrices - 1)
        return [
            (tokens, qkv_cols // t, h, 1),
            (tokens, h, h // t, 1),
            *mlp_up,
            (tokens, h, d_ff // t, 1),
        ]

    def rule_hidden_tp(self, cfg: TransformerConfig) -> List[LintDiagnostic]:
        """``h/t`` should be divisible by 64 (Sec VII-A: Summit's t=6
        costs h=2560 its power-of-two factor)."""
        h, t = cfg.hidden_size, cfg.tp_degree
        loc = _loc(cfg, "hidden_size")
        if h % t:
            return [
                LintDiagnostic(
                    "shape/hidden-tp-alignment",
                    Severity.ERROR,
                    f"h = {h} is not divisible by t = {t}; tensor-parallel "
                    "sharding of the hidden dimension is infeasible",
                    loc,
                    fixit=FixIt(
                        field="tp_degree",
                        current=t,
                        suggested=max(
                            (x for x in range(1, t + 1) if h % x == 0)
                        ),
                        note="largest feasible t <= current; or choose h divisible by t",
                    ),
                    paper_ref="Sec VII-A",
                )
            ]
        shard = h // t
        p = largest_pow2_divisor(shard)
        if p >= POW2_TARGET:
            return [
                LintDiagnostic(
                    "shape/hidden-tp-alignment",
                    Severity.OK,
                    f"h/t = {shard} is a multiple of {POW2_TARGET}",
                    loc,
                    paper_ref="Sec VII-A",
                )
            ]
        severity = Severity.ERROR if p < 8 else Severity.WARNING
        align = POW2_TARGET * t
        candidates = [
            hc
            for hc in neighborhood_multiples(h, align, span=2)
            if hc % cfg.num_heads == 0
        ] or neighborhood_multiples(h, align, span=2)
        ranked = rank_candidates(
            candidates,
            lambda hc: self._dense_layer_shapes(
                cfg, cfg.tokens_per_microbatch, hc
            ),
            self.spec.name,
            self.dtype,
        )
        latency_of = {c.value: c.latency_s for c in ranked}
        suggested = min(candidates, key=lambda hc: (abs(hc - h), latency_of[hc]))
        before_s = modeled_latency(
            self._dense_layer_shapes(cfg, cfg.tokens_per_microbatch, h),
            self.spec.name,
            self.dtype,
        )
        speedup = strictly_better(before_s, latency_of[suggested])
        fixit = None
        if speedup is not None:
            fixit = FixIt(
                field="hidden_size",
                current=h,
                suggested=suggested,
                latency_before_s=before_s,
                latency_after_s=latency_of[suggested],
                note="changes the parameter count; retune L or d_ff to compensate",
            )
        return [
            LintDiagnostic(
                "shape/hidden-tp-alignment",
                severity,
                f"h/t = {shard} is divisible only by {p}; per-rank GEMMs "
                f"lose Tensor Core efficiency (target {POW2_TARGET})",
                loc,
                fixit=fixit,
                paper_ref="Sec VII-A",
            )
        ]

    def _mlp_shapes(self, cfg: TransformerConfig, d_ff: int) -> List[GemmShape]:
        tokens = cfg.tokens_per_microbatch
        h, t = cfg.hidden_size, cfg.tp_degree
        shard = d_ff // t
        up_count = cfg.mlp_matrices - 1
        return [(tokens, shard, h, 1)] * up_count + [(tokens, h, shard, 1)]

    def rule_dff_alignment(self, cfg: TransformerConfig) -> List[LintDiagnostic]:
        """``d_ff/t`` should be divisible by 64 (Sec VII-B: SwiGLU's
        8h/3 rounding; Llama-2's 11008 = 2^8 * 43 is the model fix)."""
        d_ff, t = cfg.d_ff, cfg.tp_degree
        loc = _loc(cfg, "intermediate_size")
        if d_ff % t:
            return [
                LintDiagnostic(
                    "shape/dff-alignment",
                    Severity.ERROR,
                    f"d_ff = {d_ff} is not divisible by t = {t}; MLP "
                    "sharding is infeasible",
                    loc,
                    paper_ref="Sec VII-B",
                )
            ]
        shard = d_ff // t
        p = largest_pow2_divisor(shard)
        if p >= POW2_TARGET:
            return [
                LintDiagnostic(
                    "shape/dff-alignment",
                    Severity.OK,
                    f"d_ff/t = {shard} is a multiple of {POW2_TARGET}",
                    loc,
                    paper_ref="Sec VII-B",
                )
            ]
        severity = Severity.WARNING if p < 8 else Severity.INFO
        candidates = neighborhood_multiples(d_ff, POW2_TARGET * t, span=4)
        ranked = rank_candidates(
            candidates,
            lambda dc: self._mlp_shapes(cfg, dc),
            self.spec.name,
            self.dtype,
        )
        # Candidates differ in width and therefore useful work; rank by
        # latency per unit width so narrow sizes get no free win.
        per_width = sorted(ranked, key=lambda c: (c.latency_s / c.value, c.value))
        latency_of = {c.value: c.latency_s for c in ranked}
        suggested = min(
            candidates, key=lambda dc: (abs(dc - d_ff), latency_of[dc])
        )
        before_s = modeled_latency(
            self._mlp_shapes(cfg, d_ff), self.spec.name, self.dtype
        )
        speedup = strictly_better(before_s, latency_of[suggested])
        fixit = None
        if speedup is not None:
            note = f"MLP width changes by {suggested - d_ff:+d} columns"
            if per_width[0].value != suggested:
                note += f"; best latency/width in range: {per_width[0].value}"
            fixit = FixIt(
                field="intermediate_size",
                current=d_ff,
                suggested=suggested,
                latency_before_s=before_s,
                latency_after_s=latency_of[suggested],
                note=note,
            )
        return [
            LintDiagnostic(
                "shape/dff-alignment",
                severity,
                f"d_ff/t = {shard} is divisible only by {p}; MLP GEMMs "
                f"lose Tensor Core efficiency (target {POW2_TARGET})",
                loc,
                fixit=fixit,
                paper_ref="Sec VII-B",
            )
        ]

    def rule_heads_tp(self, cfg: TransformerConfig) -> List[LintDiagnostic]:
        """``a`` (and hence ``(b*a)/t``) must shard evenly over ``t``
        (Sec VI-B rule 4)."""
        a, b, t = cfg.num_heads, cfg.microbatch, cfg.tp_degree
        if a % t == 0 and (b * a) % t == 0:
            return [
                LintDiagnostic(
                    "shape/heads-tp-divisible",
                    Severity.OK,
                    f"a = {a} shards evenly over t = {t} "
                    f"((b*a)/t = {b * a // t})",
                    _loc(cfg, "num_heads"),
                    paper_ref="Sec VI-B",
                )
            ]
        nearest = None
        for delta in range(1, cfg.hidden_size):
            for cand in (a - delta, a + delta):
                if (
                    0 < cand
                    and cfg.hidden_size % cand == 0
                    and cand % t == 0
                ):
                    nearest = cand
                    break
            if nearest is not None:
                break
        fixit = None
        if nearest is not None:
            fixit = FixIt(
                field="num_heads",
                current=a,
                suggested=nearest,
                note="nearest head count dividing h with t | a",
            )
        return [
            LintDiagnostic(
                "shape/heads-tp-divisible",
                Severity.ERROR,
                f"a = {a} does not shard over t = {t}: the attention BMM "
                f"batch (b*a = {b * a}) cannot split evenly across ranks",
                _loc(cfg, "num_heads"),
                fixit=fixit,
                paper_ref="Sec VI-B",
            )
        ]

    def rule_tokens_alignment(self, cfg: TransformerConfig) -> List[LintDiagnostic]:
        """``b*s`` should be divisible by a power of two, ideally 64
        (Sec VI-B rule 3).  ``b`` itself needs no divisibility because
        ``s`` is normally a large power of two already."""
        tokens = cfg.tokens_per_microbatch
        p = largest_pow2_divisor(tokens)
        if p >= POW2_TARGET:
            severity = Severity.OK
            message = f"b*s = {tokens} is a multiple of {POW2_TARGET}"
        else:
            severity, detail = _pow2_shortfall(p)
            message = f"b*s = {tokens} is divisible only by {p}; {detail}"
        return [
            LintDiagnostic(
                "shape/tokens-alignment",
                severity,
                message,
                _loc(cfg, "seq_len"),
                paper_ref="Sec VI-B",
            )
        ]

    def rule_microbatch_size(self, cfg: TransformerConfig) -> List[LintDiagnostic]:
        """``b`` should be as large as memory allows (Sec VI-B rule 2)."""
        b = cfg.microbatch
        if b >= 4:
            severity, message = Severity.OK, f"b = {b}"
        else:
            severity = Severity.INFO
            message = (
                f"b = {b} is small; larger microbatches raise GEMM "
                "arithmetic intensity until activation memory binds"
            )
        return [
            LintDiagnostic(
                "shape/microbatch-size",
                severity,
                message,
                _loc(cfg, "microbatch"),
                paper_ref="Sec VI-B",
            )
        ]

    def rule_tp_minimal(self, cfg: TransformerConfig) -> List[LintDiagnostic]:
        """``t`` should be as small as memory allows (Sec VI-B rule 5)."""
        t = cfg.tp_degree
        if t == 1:
            severity, message = Severity.OK, "t = 1"
        else:
            severity = Severity.INFO
            message = (
                f"t = {t} shrinks every per-GPU GEMM by {t}x; use the "
                "smallest t that fits memory"
            )
        return [
            LintDiagnostic(
                "shape/tp-minimal",
                severity,
                message,
                _loc(cfg, "tp_degree"),
                paper_ref="Sec VI-B",
            )
        ]

    def rule_moe_tokens(self, cfg: TransformerConfig) -> List[LintDiagnostic]:
        """MoE: the per-expert row count ``b*s*k/E`` should be large and
        64-aligned; small or ragged values waste tiles and launches."""
        if cfg.num_experts is None:
            return []
        experts, m_e = cfg.num_experts, cfg.tokens_per_expert
        total = cfg.tokens_per_microbatch * cfg.moe_top_k
        found = []
        if total % experts:
            found.append(
                (
                    Severity.INFO,
                    f"b*s*k = {total} does not divide evenly over {experts} "
                    f"experts; capacity padding wastes {experts * m_e - total} "
                    "token slots per layer",
                )
            )
        if m_e < 256:
            found.append(
                (
                    Severity.WARNING,
                    f"only ~{m_e} tokens per expert: expert GEMMs are launch-"
                    "overhead- and tile-quantization-dominated; increase b, "
                    "reduce experts, or raise top_k",
                )
            )
        elif m_e % POW2_TARGET:
            found.append(
                (
                    Severity.INFO,
                    f"tokens per expert ({m_e}) is not a multiple of "
                    f"{POW2_TARGET}; expert GEMM tile rows are padded",
                )
            )
        else:
            found.append(
                (Severity.OK, f"~{m_e} tokens per expert ({POW2_TARGET}-aligned)")
            )
        loc = _loc(cfg, "num_experts")
        return [
            LintDiagnostic("shape/moe-tokens", sev, msg, loc, paper_ref="Sec VI-B")
            for sev, msg in found
        ]

    def rule_microbatch_wave(self, cfg: TransformerConfig) -> List[LintDiagnostic]:
        """Flag microbatches sitting just past a wave-quantization cliff
        on the widest layer GEMM (Sec III-B; the Figs 8/9 sawtooth)."""
        tokens = cfg.tokens_per_microbatch
        h, t = cfg.hidden_size, cfg.tp_degree
        widest = shape_array(tokens, cfg.d_ff // t, h, 1)
        result = default_engine().evaluate(widest, self.spec.name, self.dtype)
        wave_eff = float(result.wave_eff[0])
        loc = _loc(cfg, "microbatch")
        if wave_eff >= _WAVE_EFF_THRESHOLD:
            return [
                LintDiagnostic(
                    "shape/microbatch-wave",
                    Severity.OK,
                    f"b = {cfg.microbatch}: the widest layer GEMM runs at "
                    f"{100 * wave_eff:.0f}% wave efficiency "
                    f"({int(result.waves[0])} waves on {self.spec.num_sms} SMs)",
                    loc,
                    paper_ref="Sec III-B",
                )
            ]
        b = cfg.microbatch
        candidates = sorted({bc for bc in range(max(1, b - 2), b + 3)})
        ranked = rank_candidates(
            candidates,
            lambda bc: self._dense_layer_shapes(
                cfg, bc * cfg.seq_len, cfg.hidden_size
            ),
            self.spec.name,
            self.dtype,
        )
        per_token = {c.value: c.latency_s / c.value for c in ranked}
        suggested = min(candidates, key=lambda bc: (per_token[bc], abs(bc - b)))
        fixit = None
        speedup = strictly_better(
            per_token[b], per_token[suggested], _MICROBATCH_MIN_GAIN
        )
        if suggested != b and speedup is not None:
            fixit = FixIt(
                field="microbatch",
                current=b,
                suggested=suggested,
                latency_before_s=per_token[b],
                latency_after_s=per_token[suggested],
                note="latencies are per microbatch row (per-token comparison)",
            )
        tile = result.tile(0)
        return [
            LintDiagnostic(
                "shape/microbatch-wave",
                Severity.INFO,
                f"b = {b}: the widest layer GEMM ({tokens} x {cfg.d_ff // t}) "
                f"has a partial tail wave ({100 * wave_eff:.0f}% wave "
                f"efficiency, tile {tile.name}, {self.spec.num_sms} SMs); "
                "nearby microbatches may cost the same time",
                loc,
                fixit=fixit,
                paper_ref="Sec III-B",
            )
        ]

    def rule_layers_pipeline(
        self, cfg: TransformerConfig, pipeline_stages: int = 1
    ) -> List[LintDiagnostic]:
        """``L`` should divide evenly into pipeline stages (Sec VI-B rule 6)."""
        if pipeline_stages <= 1:
            return []
        L = cfg.num_layers
        loc = _loc(cfg, "num_layers")
        if L % pipeline_stages == 0:
            return [
                LintDiagnostic(
                    "shape/layers-pipeline",
                    Severity.OK,
                    f"L = {L} divides evenly into {pipeline_stages} stages",
                    loc,
                    paper_ref="Sec VI-B",
                )
            ]
        up = -(-L // pipeline_stages) * pipeline_stages
        down = (L // pipeline_stages) * pipeline_stages
        suggested = up if (L - down) > (up - L) or down == 0 else down
        return [
            LintDiagnostic(
                "shape/layers-pipeline",
                Severity.WARNING,
                f"L = {L} is not divisible by {pipeline_stages} pipeline "
                "stages; the pipeline runs at the slowest (deepest) "
                "stage's rate",
                loc,
                fixit=FixIt(
                    field="num_layers",
                    current=L,
                    suggested=suggested,
                    note="changes depth and parameter count",
                ),
                paper_ref="Sec VI-B",
            )
        ]

    def rule_memory_capacity(
        self, cfg: TransformerConfig, pipeline_stages: int = 1
    ) -> List[LintDiagnostic]:
        """The training step must fit the target GPU's HBM under the
        config's own (t, p) — a shape rule like any other, since the
        fix is the same levers: t, p, b, or checkpointing.

        Severity policy: every outcome is an OK-level advisory —
        fits, fits-with-checkpointing, or the minimum tensor degree
        that would fit (surface them with ``--min-severity ok``).
        Capacity is *enforced* by the planner's typed
        :class:`~repro.errors.CapacityError` wall and ``repro estimate
        --enforce`` — the linter judges shapes, and a 13B preset at
        its default t=1 is a fine shape that simply needs sharding,
        not a lint finding.
        """
        budget = MemoryBudget.for_gpu(self.spec)
        loc = _loc(cfg, "tp_degree")
        plain = estimate_memory(
            cfg, pipeline_stages=pipeline_stages, checkpointing="none"
        )
        if plain.fits(budget):
            return [
                LintDiagnostic(
                    "shape/memory-capacity",
                    Severity.OK,
                    f"training step fits: peak "
                    f"{plain.peak_bytes / 1e9:.1f} GB "
                    f"({plain.peak_phase}) of "
                    f"{budget.usable_bytes / 1e9:.1f} GB usable on "
                    f"{self.spec.name}",
                    loc,
                    paper_ref="Sec VII-A",
                )
            ]
        ckpt = estimate_memory(
            cfg, pipeline_stages=pipeline_stages, checkpointing="full"
        )
        if ckpt.fits(budget):
            return [
                LintDiagnostic(
                    "shape/memory-capacity",
                    Severity.OK,
                    f"training step fits only with full activation "
                    f"checkpointing: peak {plain.peak_bytes / 1e9:.1f} GB "
                    f"({plain.peak_phase}) without vs "
                    f"{ckpt.peak_bytes / 1e9:.1f} GB with, against "
                    f"{budget.usable_bytes / 1e9:.1f} GB usable on "
                    f"{self.spec.name}; checkpointing costs one extra "
                    "forward pass per layer",
                    loc,
                    paper_ref="Sec VII-A",
                )
            ]
        peak = ckpt.phase(ckpt.peak_phase)
        # Double t up to 64; price every doubling that divides h in one
        # array pass and suggest the first that fits (else the last).
        suggested = cfg.tp_degree
        doublings = []
        while suggested < 64:
            suggested *= 2
            doublings.append(suggested)
        sharded = [t for t in doublings if cfg.hidden_size % t == 0]
        if sharded:
            fits = estimate_memory_cells(
                cfg, sharded, pipeline_stages, checkpointing="full"
            ).fits(budget)
            if fits.any():
                suggested = sharded[int(fits.argmax())]
        return [
            LintDiagnostic(
                "shape/memory-capacity",
                Severity.OK,
                f"training step cannot fit {self.spec.name} at "
                f"t={cfg.tp_degree} even with full checkpointing: "
                f"{peak.phase} phase needs {peak.total_bytes / 1e9:.1f} GB "
                f"against {budget.usable_bytes / 1e9:.1f} GB usable "
                "(weights + Adam state alone overflow); shard with "
                "tensor/pipeline parallelism",
                loc,
                fixit=FixIt(
                    field="tp_degree",
                    current=cfg.tp_degree,
                    suggested=suggested,
                    note="smallest power-of-two degree whose full-"
                    "checkpointing step fits (each doubling halves "
                    "per-rank parameter and optimizer bytes)",
                ),
                paper_ref="Sec VII-A",
            )
        ]
