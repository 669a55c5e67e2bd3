"""Case-study experiments: Fig 13 and the Sec VII studies.

- ``fig13`` — Pythia-suite inference latency trend,
- ``case_gpt3`` — the GPT-3 2.7B retune (Sec VI-B / Fig 1's claim),
- ``case_swiglu`` — the Llama-2 intermediate-size brute force (VII-B),
- ``case_6gpu`` — Summit's 6-GPU nodes vs 8-GPU p4d nodes (VII-A).
"""

from __future__ import annotations

from repro.autotune.swiglu import swiglu_intermediate_search
from repro.core.advisor import ShapeAdvisor
from repro.core.config import get_model
from repro.gpu.alignment import largest_pow2_divisor
from repro.harness.compare import CheckResult, check_ratio
from repro.harness.results import ResultTable
from repro.inference.pythia import OFF_TREND_EXPECTED, run_suite
from repro.parallelism.tensor_parallel import TensorParallelLayer


# -- Fig 13: Pythia inference trend ---------------------------------------------


def run_fig13() -> ResultTable:
    """Per-token decode latency across the Pythia suite, with trend fit."""
    table = ResultTable(
        "Fig 13: Pythia suite inference latency",
        ["model", "params_m", "latency_ms", "trend_ms", "residual"],
        notes="trend fitted through the on-trend suite members; positive "
        "residual = slower than the scaling trend",
    )
    for point in run_suite():
        table.add(
            point.name,
            point.params / 1e6,
            point.latency_ms,
            point.predicted_ms,
            point.residual,
        )
    return table


def check_fig13(table: ResultTable) -> CheckResult:
    residuals = dict(zip(table.column("model"), table.column("residual")))
    checks = []
    for name, sign in OFF_TREND_EXPECTED.items():
        res = residuals[name]
        checks.append(
            CheckResult(
                res * sign > 0.05,
                f"{name}: residual {res:+.3f} (expected sign {sign:+d})",
            )
        )
    # The off-trend pair should be more extreme than every on-trend model.
    on_trend_max = max(
        abs(r) for name, r in residuals.items() if name not in OFF_TREND_EXPECTED
    )
    checks.append(
        CheckResult(
            abs(residuals["pythia-410m"]) > on_trend_max
            and abs(residuals["pythia-1b"]) > on_trend_max,
            f"off-trend pair exceeds on-trend max |residual| {on_trend_max:.3f}",
        )
    )
    return CheckResult.all_of(checks)


# -- GPT-3 2.7B retune case study -------------------------------------------------


def run_case_gpt3() -> ResultTable:
    """Advisor proposals for GPT-3 2.7B on A100 (the Sec VI-B fix)."""
    advisor = ShapeAdvisor("A100")
    cfg = get_model("gpt3-2.7b")
    table = ResultTable(
        "Case study: retuning GPT-3 2.7B (Sec VI-B)",
        ["proposal", "heads", "head_dim", "speedup", "param_ratio"],
        notes=f"baseline: {cfg.describe()}",
    )
    for prop in advisor.propose(cfg, top=8):
        table.add(
            prop.config.name,
            prop.config.num_heads,
            prop.config.head_dim,
            prop.speedup,
            prop.param_ratio,
        )
    return table


def check_case_gpt3(table: ResultTable) -> CheckResult:
    best = table.best_row(by="speedup")
    checks = [
        check_ratio(best["speedup"], 1.0, 1.10, 1.60, "best retune speedup (paper: 1.18x)"),
        CheckResult(
            best["head_dim"] > 80 and best["head_dim"] % 8 == 0,
            f"best proposal raises h/a: {best['head_dim']} (was 80)",
        ),
        CheckResult(
            abs(best["param_ratio"] - 1.0) < 1e-9,
            f"head retune keeps params identical (ratio {best['param_ratio']:.6f})",
        ),
    ]
    return CheckResult.all_of(checks)


# -- SwiGLU intermediate-size search -----------------------------------------------


def run_case_swiglu() -> ResultTable:
    """Brute-force d_ff near 8h/3 for h=4096 (Llama-2-7B, Sec VII-B).

    A step-8 grid keeps the run quick while covering every alignment
    class that matters (odd values are hopeless on all counts); the
    published 11008 and the naive round(8h/3)=10923 are force-included.
    """
    naive = round(8 * 4096 / 3)
    candidates = swiglu_intermediate_search(
        h=4096, gpu="A100", window=0.06, step=8, must_include=[naive, 11008]
    )
    table = ResultTable(
        "Case study: SwiGLU intermediate size search, h=4096 (Sec VII-B)",
        ["d_ff", "coefficient", "pow2", "latency_us", "percentile"],
        notes="nominal 8h/3 = 10922.67; Llama-2-7B ships 11008",
    )
    for cand in candidates:
        table.add(
            cand.d_ff,
            cand.coefficient,
            cand.pow2,
            cand.latency_s * 1e6,
            cand.percentile,
        )
    return table


def check_case_swiglu(table: ResultTable) -> CheckResult:
    rows = {r[0]: r for r in table.rows}
    llama = rows[11008]
    naive = rows[10923]
    checks = [
        CheckResult(
            llama[4] >= 0.9,
            f"Llama-2's 11008 is top-decile in its range (percentile {llama[4]:.2f})",
        ),
        # The odd 10923 loses vectorized alignment entirely; the paper
        # does not quantify the gap, only that it is "much slower".
        check_ratio(naive[3], llama[3], 1.05, 8.0, "naive 10923 vs 11008 latency"),
    ]
    return CheckResult.all_of(checks)


# -- 6-GPU nodes (Summit) case study ------------------------------------------------


#: (hidden, heads) shapes contrasted by the 6-GPU study: the 8-GPU
#: standard 2.7B shape, and a Summit-friendly variant divisible by 6.
_6GPU_SHAPES = ((2560, 32), (2688, 24))


def run_case_6gpu() -> ResultTable:
    """The Sec VII-A trilemma, quantified.

    1. The standard 8-GPU-friendly h=2560 cannot run t=6 at all
       (neither h nor a divides by 6).
    2. A Summit-friendly h=2688 (divisible by 6 *and* 64) works at t=6
       with pow2(h/t)=64...
    3. ...but that concession bites downstream: at t=8 its per-rank
       width 336 has pow-2 factor only 16, degrading every GEMM for
       users fine-tuning or serving on 8-GPU nodes.
    """
    table = ResultTable(
        "Case study: 6-GPU nodes (Sec VII-A)",
        ["system", "hidden", "tp", "feasible", "h_over_t", "pow2", "layer_ms"],
    )
    for system in ("ornl-summit", "aws-p4d"):
        tp_model = TensorParallelLayer(system)
        max_t = tp_model.topology.gpus_per_node
        for h, a in _6GPU_SHAPES:
            cfg = get_model("gpt3-2.7b").with_overrides(
                name=f"h{h}", hidden_size=h, num_heads=a, microbatch=6
            )
            degrees = [t for t in (1, 2, 4, 6, 8) if t <= max_t]
            costs = tp_model.layer_costs(cfg, degrees)
            for t in degrees:
                cost = costs.get(t)
                if cost is None:
                    table.add(system, h, t, False, 0, 0, float("nan"))
                    continue
                h_t = h // t
                table.add(
                    system,
                    h,
                    t,
                    True,
                    h_t,
                    largest_pow2_divisor(h_t),
                    cost.total_s * 1e3,
                )
    return table


def check_case_6gpu(table: ResultTable) -> CheckResult:
    rows = table.rows_as_dicts()

    def find(system, h, t):
        for r in rows:
            if r["system"] == system and r["hidden"] == h and r["tp"] == t:
                return r
        return None

    summit_2560_t6 = find("ornl-summit", 2560, 6)
    summit_2688_t6 = find("ornl-summit", 2688, 6)
    p4d_2688_t8 = find("aws-p4d", 2688, 8)
    p4d_2560_t8 = find("aws-p4d", 2560, 8)
    checks = [
        CheckResult(
            summit_2560_t6 is not None and summit_2560_t6["feasible"] is False,
            "h=2560/a=32 is infeasible at t=6",
        ),
        CheckResult(
            summit_2688_t6 is not None
            and summit_2688_t6["feasible"] is True
            and summit_2688_t6["pow2"] >= 64,
            "Summit-friendly h=2688 runs t=6 with pow2(h/t) >= 64",
        ),
        CheckResult(
            p4d_2688_t8 is not None
            and p4d_2688_t8["feasible"] is True
            and p4d_2688_t8["pow2"] < 64,
            "the 6-GPU concession degrades 8-GPU deployment: "
            f"pow2(2688/8) = {p4d_2688_t8['pow2'] if p4d_2688_t8 else '?'} < 64",
        ),
        CheckResult(
            p4d_2560_t8 is not None and p4d_2560_t8["pow2"] >= 64,
            "while the 8-GPU shape keeps pow2(2560/8) >= 64",
        ),
    ]
    return CheckResult.all_of(checks)
