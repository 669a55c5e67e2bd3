"""Registry: every paper figure/table -> a runnable experiment.

Experiment ids match DESIGN.md's per-experiment index.  The appendix
families (Figs 21-33 and 35-47) are registered both as one combined
experiment per family and individually per head count
(``fig21_33/a8`` etc.) for targeted runs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List

from repro.engine.core import default_engine
from repro.engine.grid import ShapeGrid
from repro.errors import ExperimentError
from repro.harness import experiments_cases as cases
from repro.harness import experiments_kernels as kernels
from repro.harness import experiments_transformer as tfm
from repro.harness import sweep
from repro.harness.compare import CheckResult, check_series_ordered_blocks
from repro.harness.experiment import Experiment
from repro.harness.results import ResultTable

_REGISTRY: Dict[str, Experiment] = {}


def register(exp: Experiment) -> None:
    if exp.id in _REGISTRY:
        raise ExperimentError(f"duplicate experiment id {exp.id!r}")
    _REGISTRY[exp.id] = exp


def get_experiment(exp_id: str) -> Experiment:
    """Look up an experiment by id."""
    try:
        return _REGISTRY[exp_id.strip().lower()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ExperimentError(f"unknown experiment {exp_id!r}; known: {known}") from None


def list_experiments(include_family_members: bool = False) -> List[Experiment]:
    """All registered experiments in id order."""
    exps = sorted(_REGISTRY.values(), key=lambda e: e.id)
    if include_family_members:
        return exps
    return [e for e in exps if "/" not in e.id]


# -- main figures ---------------------------------------------------------------

register(
    Experiment(
        id="fig1",
        title="Single-layer throughput of equal-parameter 2.7B shapes",
        paper_ref="Fig 1 / Sec VI-B",
        run_fn=tfm.run_fig1,
        check_fn=tfm.check_fig1,
        lint_configs=("gpt3-2.7b", "c1", "c2"),
    )
)
register(
    Experiment(
        id="fig2",
        title="Latency proportion per transformer component (medium model)",
        paper_ref="Fig 2 / Sec I",
        run_fn=tfm.run_fig2,
        check_fn=tfm.check_fig2,
    )
)
register(
    Experiment(
        id="fig5",
        title="GEMM throughput vs size (V100/A100, fixed vs auto tiles)",
        paper_ref="Fig 5",
        run_fn=kernels.run_fig5,
        check_fn=kernels.check_fig5,
    )
)
register(
    Experiment(
        id="fig6",
        title="Batched matrix multiplication throughput",
        paper_ref="Fig 6",
        run_fn=kernels.run_fig6,
        check_fn=kernels.check_fig6,
    )
)
register(
    Experiment(
        id="fig7",
        title="Attention BMMs at a=32, split by pow2(h/a)",
        paper_ref="Fig 7a/7b",
        run_fn=kernels.run_fig7,
        check_fn=kernels.check_fig7,
    )
)
register(
    Experiment(
        id="fig8",
        title="Attention score BMM at fixed h/a=64",
        paper_ref="Fig 8",
        run_fn=kernels.run_fig8,
        check_fn=kernels.check_fig8_9,
    )
)
register(
    Experiment(
        id="fig9",
        title="Attention over value BMM at fixed h/a=64",
        paper_ref="Fig 9",
        run_fn=kernels.run_fig9,
        check_fn=kernels.check_fig8_9,
    )
)
register(
    Experiment(
        id="fig10",
        title="MLP GEMM throughput vs hidden size",
        paper_ref="Fig 10a/10b",
        run_fn=tfm.run_fig10,
        check_fn=tfm.check_fig10,
    )
)
register(
    Experiment(
        id="fig11",
        title="Per-GEMM latency proportions across model sizes",
        paper_ref="Fig 11",
        run_fn=tfm.run_fig11,
        check_fn=tfm.check_fig11,
    )
)
register(
    Experiment(
        id="fig12",
        title="FlashAttention hidden-size sweep (roofline)",
        paper_ref="Fig 12 / Sec VI-C3",
        run_fn=tfm.run_fig12,
        check_fn=tfm.check_fig12,
    )
)
register(
    Experiment(
        id="fig13",
        title="Pythia suite inference latency trend",
        paper_ref="Fig 13 / Sec VII-C",
        run_fn=cases.run_fig13,
        check_fn=cases.check_fig13,
        lint_configs=("pythia-410m", "pythia-1.4b", "pythia-2.8b", "pythia-6.9b"),
    )
)
register(
    Experiment(
        id="fig14",
        title="GEMM dimension-ordering invariance",
        paper_ref="Fig 14 (appendix)",
        run_fn=kernels.run_fig14,
        check_fn=kernels.check_fig14,
    )
)
register(
    Experiment(
        id="fig15",
        title="QKV transform vs h and tensor-parallel degree",
        paper_ref="Figs 15/16",
        run_fn=tfm.run_fig15,
        check_fn=tfm.check_fig15,
    )
)
register(
    Experiment(
        id="fig17",
        title="Attention key-query score GEMM sweep (a=128)",
        paper_ref="Fig 17",
        run_fn=tfm.run_fig17,
        check_fn=tfm.check_rises,
    )
)
register(
    Experiment(
        id="fig18",
        title="Attention score times values sweep (a=128)",
        paper_ref="Fig 18",
        run_fn=tfm.run_fig18,
        check_fn=tfm.check_rises,
    )
)
register(
    Experiment(
        id="fig19",
        title="Post-attention linear projection sweep",
        paper_ref="Fig 19",
        run_fn=tfm.run_fig19,
        check_fn=tfm.check_rises,
    )
)
register(
    Experiment(
        id="fig20",
        title="Logit layer throughput vs vocabulary size",
        paper_ref="Fig 20a/20b",
        run_fn=tfm.run_fig20,
        check_fn=tfm.check_fig20,
    )
)

# -- appendix families ------------------------------------------------------------


@lru_cache(maxsize=8)
def _family_grid(kind: str):
    # One SoA grid spanning every head count: the full family is a
    # single engine evaluation (one ufunc chain, one cache entry)
    # instead of 13 per-head-count calls.  Memoized like the per-head
    # sweep grids — the concat of 13 frozen grids is itself frozen and
    # reused across warm runs.
    return sweep._frozen(
        ShapeGrid.concat(
            [
                sweep.attention_grid(kind, heads)
                for heads in kernels.APPENDIX_HEAD_COUNTS
            ]
        )
    )


def _family_run(kind: str):
    def run() -> ResultTable:
        table = ResultTable(
            f"Appendix family: attention {kind} BMM across head counts",
            ["heads", "hidden", "head_dim", "pow2", "tflops"],
        )
        result = default_engine().evaluate_grid(_family_grid(kind), "A100")
        table.add_columns(
            **result.columns(("heads", "hidden", "head_dim", "pow2", "tflops"))
        )
        return table

    return run


def _family_check(table: ResultTable) -> CheckResult:
    # One fused pass over the whole family: same semantics as running
    # check_pow2_ordering per head count, without rebuilding 13
    # sub-tables row by row.  table.column() reads the pending SoA
    # chunks directly, so the check never materializes row tuples.
    checks = check_series_ordered_blocks(
        table.column("heads"),
        table.column("pow2"),
        table.column("hidden"),
        table.column("tflops"),
        min_fraction=0.7,
    )
    return CheckResult.all_of(checks)


register(
    Experiment(
        id="fig21_33",
        title="Attention score BMM per head count (pow2 series)",
        paper_ref="Figs 21-33",
        run_fn=_family_run("score"),
        check_fn=_family_check,
    )
)
register(
    Experiment(
        id="fig35_47",
        title="Attention over value BMM per head count (pow2 series)",
        paper_ref="Figs 35-47",
        run_fn=_family_run("aov"),
        check_fn=_family_check,
    )
)
for _heads in kernels.APPENDIX_HEAD_COUNTS:
    register(
        Experiment(
            id=f"fig21_33/a{_heads}",
            title=f"Attention score BMM, a={_heads}",
            paper_ref="Figs 21-33",
            run_fn=kernels.make_attention_experiment("score", _heads),
            check_fn=kernels.check_pow2_ordering,
        )
    )
    register(
        Experiment(
            id=f"fig35_47/a{_heads}",
            title=f"Attention over value BMM, a={_heads}",
            paper_ref="Figs 35-47",
            run_fn=kernels.make_attention_experiment("aov", _heads),
            check_fn=kernels.check_pow2_ordering,
        )
    )

register(
    Experiment(
        id="fig34",
        title="Attention score BMM at h/a=64, full range",
        paper_ref="Fig 34",
        run_fn=kernels.run_fig8,
        check_fn=kernels.check_fig8_9,
    )
)

# -- tables and case studies ---------------------------------------------------------

register(
    Experiment(
        id="table2",
        title="Analytic GEMM mapping vs traced transformer",
        paper_ref="Table II",
        run_fn=tfm.run_table2,
        check_fn=tfm.check_table2,
    )
)
register(
    Experiment(
        id="gemm_share",
        title="GEMM share of layer latency vs model size",
        paper_ref="Sec I (68.3% / 94.9%)",
        run_fn=tfm.run_gemm_share,
        check_fn=tfm.check_gemm_share,
    )
)
register(
    Experiment(
        id="case_gpt3",
        title="Retuning GPT-3 2.7B",
        paper_ref="Sec VI-B",
        run_fn=cases.run_case_gpt3,
        check_fn=cases.check_case_gpt3,
        lint_configs=("gpt3-2.7b", "c1", "c2"),
    )
)
register(
    Experiment(
        id="case_swiglu",
        title="SwiGLU intermediate-size brute force",
        paper_ref="Sec VII-B",
        run_fn=cases.run_case_swiglu,
        check_fn=cases.check_case_swiglu,
    )
)
register(
    Experiment(
        id="case_6gpu",
        title="6-GPU Summit nodes vs 8-GPU nodes",
        paper_ref="Sec VII-A",
        run_fn=cases.run_case_6gpu,
        check_fn=cases.check_case_6gpu,
    )
)

# -- ablations and extensions (see experiments_extensions) ---------------------------

from repro.harness import experiments_extensions as ext  # noqa: E402

register(
    Experiment(
        id="ablation_tile",
        title="Tile auto-selection vs pinned 128x256",
        paper_ref="ablation (Sec V)",
        run_fn=ext.run_ablation_tile,
        check_fn=ext.check_ablation_tile,
    )
)
register(
    Experiment(
        id="ablation_dtype",
        title="Alignment breakpoints by dtype",
        paper_ref="ablation (Sec III-B)",
        run_fn=ext.run_ablation_dtype,
        check_fn=ext.check_ablation_dtype,
    )
)
register(
    Experiment(
        id="ext_seqlen",
        title="Attention share vs sequence length",
        paper_ref="extension (Sec III-C formula)",
        run_fn=ext.run_ext_seqlen,
        check_fn=ext.check_ext_seqlen,
    )
)
register(
    Experiment(
        id="ext_flash_e2e",
        title="FlashAttention end-to-end layer speedup",
        paper_ref="extension (Sec VI-C3)",
        run_fn=ext.run_ext_flash,
        check_fn=ext.check_ext_flash,
    )
)
register(
    Experiment(
        id="ext_training",
        title="Training-step throughput of 2.7B shapes",
        paper_ref="extension (Sec I claim)",
        run_fn=ext.run_ext_training,
        check_fn=ext.check_ext_training,
        lint_configs=("gpt3-2.7b", "c1", "c2"),
    )
)
register(
    Experiment(
        id="ext_gqa",
        title="Grouped-query attention decode effect",
        paper_ref="extension (Sec VI-C)",
        run_fn=ext.run_ext_gqa,
        check_fn=ext.check_ext_gqa,
    )
)
register(
    Experiment(
        id="ext_gpus",
        title="The 2.7B retune across the GPU zoo",
        paper_ref="extension (Sec II-B / VIII)",
        run_fn=ext.run_ext_gpus,
        check_fn=ext.check_ext_gpus,
    )
)
register(
    Experiment(
        id="ext_seqpar",
        title="Sequence parallelism on top of TP",
        paper_ref="extension (Sec III-C future work)",
        run_fn=ext.run_ext_seqpar,
        check_fn=ext.check_ext_seqpar,
    )
)
register(
    Experiment(
        id="ext_moe",
        title="MoE expert count vs expert-GEMM efficiency",
        paper_ref="extension (shape rules for MoE)",
        run_fn=ext.run_ext_moe,
        check_fn=ext.check_ext_moe,
    )
)
register(
    Experiment(
        id="ext_batching",
        title="Decode batching curve",
        paper_ref="extension (Sec VII-C)",
        run_fn=ext.run_ext_batching,
        check_fn=ext.check_ext_batching,
    )
)
register(
    Experiment(
        id="ext_window",
        title="Sliding-window attention at long context",
        paper_ref="extension (Sec VI-C)",
        run_fn=ext.run_ext_window,
        check_fn=ext.check_ext_window,
    )
)
register(
    Experiment(
        id="ext_quant",
        title="Weight-only quantized decode",
        paper_ref="extension (Sec VII-C)",
        run_fn=ext.run_ext_quant,
        check_fn=ext.check_ext_quant,
    )
)
register(
    Experiment(
        id="ext_pipeline_sim",
        title="Pipeline schedule simulation vs closed form",
        paper_ref="extension (Sec VI-B rule 6)",
        run_fn=ext.run_ext_pipeline_sim,
        check_fn=ext.check_ext_pipeline_sim,
    )
)

from repro.harness import experiments_trainstep as trainstep  # noqa: E402

register(
    Experiment(
        id="ext_trainstep",
        title="Training-step phase shares across the zoo",
        paper_ref="extension (whole-step co-design)",
        run_fn=trainstep.run_ext_trainstep,
        check_fn=trainstep.check_ext_trainstep,
    )
)
register(
    Experiment(
        id="ext_capacity",
        title="Planner capacity wall: fits/rejects matrix",
        paper_ref="extension (Sec VII-A memory)",
        run_fn=trainstep.run_ext_capacity,
        check_fn=trainstep.check_ext_capacity,
    )
)
