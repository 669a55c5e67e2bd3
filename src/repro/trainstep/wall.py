"""Differential wall: grid-path estimator vs scalar per-record brute force.

Like the kernels wall, this is a *blocking* parity gate:
the training-step estimator prices the whole step through one engine
evaluation over the step's distinct shapes, and this module re-prices
every row of the identical grid through the scalar
:class:`~repro.gpu.gemm_model.GemmModel`, one ``evaluate`` call per
record, then demands the per-phase runtime totals be **bit-identical**
(``==`` on float64, no tolerance) and the GEMM FLOP totals be exactly
equal as integers against the fully expanded analytic mapping
(:func:`repro.core.gemms.training_gemms`).

Bit-identity works because both sides reduce per-row float64 latencies
in the same grid row order with the same masked ``np.sum``; the engine's
scalar-parity contract (``verify_against_scalar``) guarantees equal
per-row latencies, so any drift in grid expansion, phase masking, or
count weighting surfaces as a hard inequality — not a tolerance tweak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.config import TransformerConfig, get_model
from repro.core.gemms import training_gemms
from repro.gpu.gemm_model import GemmModel
from repro.trainstep.step import (
    PHASE_OPTIMIZER,
    TrainStepEstimate,
    TrainStepEstimator,
    training_grid,
)
from repro.transformer.trace import ADAM_FLOPS_PER_PARAM

#: The paper's model zoo for the wall: every Pythia size plus the GPT-3
#: case study (and its small config) — the same families the figures
#: sweep.
WALL_MODELS: Tuple[str, ...] = (
    "pythia-70m",
    "pythia-160m",
    "pythia-410m",
    "pythia-1b",
    "pythia-1.4b",
    "pythia-2.8b",
    "pythia-6.9b",
    "pythia-12b",
    "gpt3-2.7b",
    "gpt3-175b",
)


@dataclass(frozen=True)
class WallCase:
    """One model's parity outcome."""

    model: str
    checkpointing: str
    phase_mismatches: Tuple[str, ...]
    gemm_flops_grid: int
    gemm_flops_analytic: int

    @property
    def passed(self) -> bool:
        return (
            not self.phase_mismatches
            and self.gemm_flops_grid == self.gemm_flops_analytic
        )


@dataclass(frozen=True)
class WallReport:
    """Aggregate parity report over the zoo."""

    gpu: str
    dtype: str
    cases: Tuple[WallCase, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def describe(self) -> str:
        lines = [
            f"trainstep wall on {self.gpu}/{self.dtype}: "
            f"{sum(c.passed for c in self.cases)}/{len(self.cases)} cases "
            f"bit-identical"
        ]
        for c in self.cases:
            status = "ok" if c.passed else "MISMATCH"
            detail = ""
            if c.phase_mismatches:
                detail = f" phases={','.join(c.phase_mismatches)}"
            if c.gemm_flops_grid != c.gemm_flops_analytic:
                detail += (
                    f" flops grid={c.gemm_flops_grid}"
                    f" analytic={c.gemm_flops_analytic}"
                )
            lines.append(
                f"  {c.model:<14} ckpt={c.checkpointing:<4} {status}{detail}"
            )
        return "\n".join(lines)


def scalar_phase_seconds(
    cfg: TransformerConfig,
    gpu: str,
    dtype: str,
    checkpointing: str = "none",
) -> dict:
    """Brute-force re-pricing of the step, one scalar call per record.

    Rebuilds the estimator's exact grid, walks its rows through the
    scalar model, then reduces with the identical masked ``np.sum`` the
    estimator uses — the only difference under test is batch-vs-scalar
    evaluation.
    """
    grid = training_grid(cfg, checkpointing)
    model = GemmModel(gpu, dtype)
    lat: List[float] = []
    for bb, mm, nn, kk in grid.shapes:
        # The scalar loop IS the point of the wall: it is the brute-
        # force side of the differential against the batched grid path.
        perf = model.evaluate(int(mm), int(nn), int(kk), int(bb))  # lint: allow(scalar-eval-in-loop)
        lat.append(perf.latency_s)
    latency = np.asarray(lat, dtype=np.float64)
    seconds = latency * grid.column("count").astype(np.float64)
    phase_col = grid.column("phase")
    return {
        str(name): float(np.sum(seconds[phase_col == name]))
        for name in dict.fromkeys(phase_col.tolist())
    }


def analytic_gemm_flops(cfg: TransformerConfig) -> int:
    """Exact fwd+bwd GEMM FLOPs from the fully expanded Table II map."""
    return sum(op.flops for op in training_gemms(cfg))


def check_model(
    name: str,
    gpu: str = "A100",
    dtype: str = "fp16",
    checkpointing: str = "none",
) -> WallCase:
    """Run the wall for one model; returns the per-phase verdict."""
    cfg = get_model(name)
    estimator = TrainStepEstimator(gpu=gpu, dtype=dtype)
    est: TrainStepEstimate = estimator.estimate(cfg, checkpointing=checkpointing)
    scalar = scalar_phase_seconds(cfg, gpu, dtype, checkpointing)

    mismatches: List[str] = []
    for phase in est.phases:
        if phase.phase == PHASE_OPTIMIZER:
            continue  # not a GEMM; no scalar counterpart to diff
        if phase.seconds != scalar[phase.phase]:
            mismatches.append(phase.phase)

    grid_gemm_flops = sum(
        p.flops for p in est.phases
        if p.phase in ("forward", "backward")
    )
    case = WallCase(
        model=cfg.name,
        checkpointing=checkpointing,
        phase_mismatches=tuple(mismatches),
        gemm_flops_grid=grid_gemm_flops,
        gemm_flops_analytic=analytic_gemm_flops(cfg),
    )
    # Cheap internal invariants, independent of the scalar diff: the
    # optimizer flops must follow the Adam constant exactly, and the
    # derived backward must cost exactly twice the forward.
    assert est.phase(PHASE_OPTIMIZER).flops == (
        est.memory.parameter_elements * ADAM_FLOPS_PER_PARAM
    )
    assert est.phase("backward").flops == 2 * est.phase("forward").flops
    return case


def run_wall(
    models: Tuple[str, ...] = WALL_MODELS,
    gpu: str = "A100",
    dtype: str = "fp16",
) -> WallReport:
    """The blocking differential wall over the paper's model zoo.

    Each model is checked under both checkpointing policies, so the
    recompute phase's grid expansion is also under the bit-identity
    contract.
    """
    cases: List[WallCase] = []
    for name in models:
        cases.append(check_model(name, gpu=gpu, dtype=dtype, checkpointing="none"))
    # Full-checkpointing parity on a subset keeps the wall fast while
    # still covering the recompute expansion on both families.
    for name in (models[0], "gpt3-2.7b"):
        cases.append(check_model(name, gpu=gpu, dtype=dtype, checkpointing="full"))
    return WallReport(gpu=gpu, dtype=dtype, cases=tuple(cases))
