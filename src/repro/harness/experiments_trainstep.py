"""Training-step estimator experiments: phase shares + the OOM wall.

Two figure-family extensions backed by :mod:`repro.trainstep`:

- ``ext_trainstep`` sweeps the model zoo and tabulates how the step's
  runtime splits between forward, backward, and optimizer — the paper's
  "training is ~3x forward GEMMs plus a bandwidth-bound tail" claim,
  per size.
- ``ext_capacity`` snapshots the planner's fits/rejects matrix for the
  GPT-3 6.7B case on an A100-40GB node: which (t, p) cells OOM, which
  phase overflows, and the modelled peak — the golden form of the
  planner's capacity wall.
"""

from __future__ import annotations

from repro.core.config import get_model
from repro.harness.compare import CheckResult
from repro.harness.results import ResultTable
from repro.parallelism.planner import ParallelPlanner, capacity_matrix
from repro.trainstep.step import TrainStepEstimator

#: Zoo for the phase-share sweep: ascending Pythia sizes + the GPT-3
#: case study configs.
TRAINSTEP_ZOO = (
    "pythia-160m",
    "pythia-410m",
    "pythia-1.4b",
    "pythia-2.8b",
    "pythia-6.9b",
    "gpt3-2.7b",
    "c1",
    "c2",
)


def run_ext_trainstep() -> ResultTable:
    """Fwd/bwd/optimizer runtime shares across the model zoo."""
    estimator = TrainStepEstimator("A100")
    table = ResultTable(
        "Extension: training-step phase shares across the zoo",
        [
            "model",
            "params_b",
            "step_ms",
            "fwd_share",
            "bwd_share",
            "opt_share",
            "bwd_over_fwd_flops",
            "peak_gb",
        ],
        notes="A100/fp16, t=1 p=1, no checkpointing",
    )
    for name in TRAINSTEP_ZOO:
        cfg = get_model(name)
        est = estimator.estimate(cfg)
        total = est.total_s
        table.add(
            name,
            cfg.param_count() / 1e9,
            total * 1e3,
            est.phase("forward").seconds / total,
            est.phase("backward").seconds / total,
            est.phase("optimizer").seconds / total,
            est.backward_to_forward_flops,
            est.memory.peak_bytes / 1e9,
        )
    return table


def check_ext_trainstep(table: ResultTable) -> CheckResult:
    rows = {r[0]: r for r in table.rows}
    checks = []
    for name, row in rows.items():
        fwd, bwd, opt = row[3], row[4], row[5]
        checks.append(
            CheckResult(
                abs(fwd + bwd + opt - 1.0) < 1e-9,
                f"{name}: phase shares sum to 1",
            )
        )
        checks.append(
            CheckResult(
                row[6] == 2.0, f"{name}: backward GEMM flops == 2x forward"
            )
        )
        checks.append(
            CheckResult(
                bwd > fwd, f"{name}: backward runtime exceeds forward"
            )
        )
    # The optimizer is bandwidth-bound: its share should *grow* with
    # model size slower than the GEMM phases shrink, but always stay a
    # minority of the step.
    checks.append(
        CheckResult(
            all(r[5] < 0.5 for r in table.rows),
            "optimizer is a minority of every step",
        )
    )
    checks.append(
        CheckResult(
            rows["pythia-6.9b"][7] > rows["pythia-160m"][7],
            "peak memory grows with model size",
        )
    )
    return CheckResult.all_of(checks)


def run_ext_capacity() -> ResultTable:
    """The planner OOM wall: fits/rejects matrix for 6.7B on A100-40GB."""
    planner = ParallelPlanner("aws-p4d")
    cfg = get_model("gpt3-6.7b", microbatch=1)
    table = ResultTable(
        "Extension: planner capacity wall, GPT-3 6.7B on aws-p4d",
        ["tp", "pp", "fits", "phase", "peak_gb", "budget_gb"],
        notes="microbatch 1, no checkpointing; phase = overflowing "
        "(or peak, when it fits)",
    )
    for row in capacity_matrix(
        planner, cfg, tp_degrees=(1, 2, 4, 8), pipeline_stages=(1, 2, 4)
    ):
        table.add(
            row["tp"],
            row["pp"],
            row["fits"],
            row["phase"],
            row["peak_gb"],
            row["budget_gb"],
        )
    return table


def check_ext_capacity(table: ResultTable) -> CheckResult:
    cells = {(r[0], r[1]): r for r in table.rows}
    checks = [
        CheckResult(
            not cells[(1, 1)][2] and cells[(1, 1)][3] == "backward",
            "(t=1,p=1) OOMs in the backward phase",
        ),
        CheckResult(cells[(8, 1)][2], "(t=8,p=1) fits"),
        CheckResult(
            all(
                r[4] <= r[5] for r in table.rows if r[2]
            ),
            "every accepted cell is within budget",
        ),
        CheckResult(
            all(
                r[4] > r[5] for r in table.rows if not r[2]
            ),
            "every rejected cell is over budget",
        ),
    ]
    # Peak memory is monotone non-increasing along both axes.
    for (t, p), row in cells.items():
        if (t * 2, p) in cells:
            checks.append(
                CheckResult(
                    cells[(t * 2, p)][4] <= row[4],
                    f"peak non-increasing in t at (t={t},p={p})",
                )
            )
        if (t, p * 2) in cells:
            checks.append(
                CheckResult(
                    cells[(t, p * 2)][4] <= row[4],
                    f"peak non-increasing in p at (t={t},p={p})",
                )
            )
    return CheckResult.all_of(checks)
