"""Differential wall: the planner's one-pass cell scoring vs per-cell scoring.

``ParallelPlanner.plan`` scores every (t, p, d) cell in one array pass
over :func:`~repro.trainstep.memory.estimate_memory_cells`.  The
references below are the per-cell path it replaced: one ``_score`` per
(t, p, policy) over one-cell ``estimate_memory`` and ``PipelinePlan``,
and one ``check_capacity`` per ``capacity_matrix`` cell.  Every
comparison is ``==``: the array pass runs the same arithmetic in the same
order, so any drift is a bug, not noise.
"""

import pytest

from repro.analysis.shape_rules import ShapeLinter
from repro.core.config import get_model, list_models
from repro.errors import CapacityError, ParallelismError
from repro.parallelism.pipeline import PipelinePlan
from repro.parallelism.planner import ParallelPlan, ParallelPlanner, capacity_matrix
from repro.parallelism.tensor_parallel import validate_tp_feasible
from repro.trainstep.memory import (
    CHECKPOINTING_POLICIES,
    PHASES,
    estimate_memory,
    estimate_memory_cells,
)

SYSTEMS = ("aws-p4d", "ornl-summit", "sdsc-expanse")
MODELS = [cfg.name for cfg in list_models()]
NUM_GPUS = (8, 16, 24, 48, 64, 96, 128, 512, 1536)
POLICIES = ("auto", "none", "full")
TP = (1, 2, 3, 4, 6, 8)
PP = (1, 2, 3, 4, 8, 16, 64)


class ReferencePlanner(ParallelPlanner):
    """The per-cell planner: one ``_score`` per (t, p, policy)."""

    def _score_one(self, cfg, t, p, d, checkpointing, layer):
        if cfg.num_layers < p:
            raise ParallelismError(
                f"{p} pipeline stages exceed {cfg.num_layers} layers"
            )
        layer_time = layer.total_s
        if checkpointing == "full":
            layer_time *= 2.0
        boundary_bytes = (
            cfg.microbatch * cfg.seq_len * cfg.hidden_size * self.dtype.bytes
        )
        boundary = (
            self.topology.comm_for(t * p).send(boundary_bytes) if p > 1 else 0.0
        )
        pipe = PipelinePlan(
            num_layers=cfg.num_layers,
            num_stages=p,
            num_microbatches=self.num_microbatches,
            layer_time_s=layer_time,
            stage_boundary_s=boundary,
        )
        iteration = pipe.iteration_time_s
        if d > 1:
            grad_bytes = cfg.param_count() / (t * p) * self.dtype.bytes
            comm = self.topology.comm_for(d * t * p)
            iteration += 0.5 * comm.allreduce(grad_bytes, d)
        comm_s = layer.comm_s * cfg.num_layers / p * self.num_microbatches
        comm_frac = min(1.0, comm_s / iteration) if iteration else 0.0
        memory = estimate_memory(
            cfg, tp=t, pipeline_stages=p, checkpointing=checkpointing
        )
        return ParallelPlan(
            tp=t,
            pp=p,
            dp=d,
            iteration_time_s=iteration,
            comm_fraction=comm_frac,
            fits_memory=memory.fits(self.budget()),
            balanced_pipeline=pipe.balanced,
            checkpointing=checkpointing,
            peak_memory_bytes=memory.peak_bytes,
            peak_memory_phase=memory.peak_phase,
        )

    def plan(self, cfg, num_gpus, require_fit=True, checkpointing="auto"):
        policies = ("none", "full") if checkpointing == "auto" else (checkpointing,)
        degrees = [
            t
            for t in range(1, num_gpus + 1)
            if num_gpus % t == 0 and t <= self.topology.gpus_per_node
        ]
        plans = []
        for t, layer in self.tp_model.layer_costs(cfg, degrees).items():
            rest = num_gpus // t
            for p in [i for i in range(1, rest + 1) if rest % i == 0]:
                d = rest // p
                for policy in policies:
                    try:
                        plan = self._score_one(cfg, t, p, d, policy, layer)
                    except ParallelismError:
                        break
                    if plan.fits_memory or not require_fit:
                        plans.append(plan)
                        break
        plans.sort(key=lambda pl: pl.iteration_time_s)
        return plans


def reference_capacity_matrix(planner, cfg, tp_degrees, pipeline_stages, ckpt):
    """``capacity_matrix`` as one ``check_capacity`` per cell."""
    rows = []
    budget_gb = planner.budget().usable_bytes / 1e9
    for t in tp_degrees:
        for p in pipeline_stages:
            row = {"tp": t, "pp": p}
            try:
                validate_tp_feasible(cfg, t)
                if cfg.num_layers < p:
                    raise ParallelismError("too many stages")
                report = planner.check_capacity(cfg, t, p, ckpt)
            except CapacityError as exc:
                row.update(fits=False, phase=exc.phase, peak_gb=exc.required_bytes / 1e9)
            except ParallelismError:
                row.update(fits=False, phase="infeasible", peak_gb=0.0)
            else:
                row.update(
                    fits=True, phase=report.peak_phase, peak_gb=report.peak_bytes / 1e9
                )
            row["budget_gb"] = budget_gb
            rows.append(row)
    return rows


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("name", MODELS)
class TestPlanWall:
    def test_plan_matches_per_cell_reference(self, name, system):
        cfg = get_model(name)
        planner = ParallelPlanner(system)
        reference = ReferencePlanner(system)
        for num_gpus in NUM_GPUS:
            for ckpt in POLICIES:
                for require_fit in (True, False):
                    case = (num_gpus, ckpt, require_fit)
                    got = planner.plan(
                        cfg, num_gpus, require_fit=require_fit, checkpointing=ckpt
                    )
                    want = reference.plan(
                        cfg, num_gpus, require_fit=require_fit, checkpointing=ckpt
                    )
                    assert got == want, case

    def test_evaluate_equals_plan_cell(self, name, system):
        cfg = get_model(name)
        planner = ParallelPlanner(system)
        for plan in planner.plan(cfg, 64, require_fit=False, checkpointing="full"):
            assert (
                planner.evaluate(cfg, plan.tp, plan.pp, plan.dp, plan.checkpointing)
                == plan
            )
        for plan in planner.plan(cfg, 48):
            assert (
                planner.evaluate(cfg, plan.tp, plan.pp, plan.dp, plan.checkpointing)
                == plan
            )

    def test_capacity_matrix_matches_check_capacity(self, name, system):
        cfg = get_model(name)
        planner = ParallelPlanner(system)
        for ckpt in CHECKPOINTING_POLICIES:
            assert capacity_matrix(planner, cfg, TP, PP, ckpt) == (
                reference_capacity_matrix(planner, cfg, TP, PP, ckpt)
            )


@pytest.mark.parametrize("name", MODELS)
def test_memory_cells_equal_one_cell_estimates(name):
    """Every cell's phase totals, peak and peak phase are the one-cell
    estimate's, including t in {3, 6} and more stages than layers."""
    cfg = get_model(name)
    tp = [t for t in TP for _p in PP]
    pp = [p for _t in TP for p in PP]
    for ckpt in CHECKPOINTING_POLICIES:
        cells = estimate_memory_cells(cfg, tp, pp, ckpt)
        assert cells.phase_bytes.shape == (len(PHASES), len(tp))
        for i, (t, p) in enumerate(zip(tp, pp)):
            one = estimate_memory(cfg, tp=t, pipeline_stages=p, checkpointing=ckpt)
            case = (t, p, ckpt)
            assert cells.phase_bytes[:, i].tolist() == [
                phase.total_bytes for phase in one.phases
            ], case
            assert [phase.phase for phase in one.phases] == list(PHASES)
            assert cells.peak_bytes[i] == one.peak_bytes, case
            assert cells.peak_phase[i] == one.peak_phase, case


def test_wall_covers_more_stages_than_layers():
    assert any(get_model(name).num_layers < max(PP) for name in MODELS)


def test_memory_cells_broadcast_a_scalar_degree():
    cfg = get_model("gpt3-6.7b")
    cells = estimate_memory_cells(cfg, [1, 2, 4, 8], 2, "full")
    for i, t in enumerate((1, 2, 4, 8)):
        one = estimate_memory(cfg, tp=t, pipeline_stages=2, checkpointing="full")
        assert cells.peak_bytes[i] == one.peak_bytes


def test_evaluate_keeps_its_errors():
    planner = ParallelPlanner("aws-p4d")
    with pytest.raises(ParallelismError, match="infeasible TP"):
        planner.evaluate(get_model("gpt3-2.7b"), 6, 1, 1)
    with pytest.raises(ParallelismError, match="exceed 6 layers"):
        planner.evaluate(get_model("pythia-70m"), 1, 16, 1)
    with pytest.raises(ParallelismError):
        planner.evaluate(get_model("pythia-70m"), 1, 0, 1)


def _reference_fixit(cfg, spec, p):
    """The capacity lint's suggested t, one ``estimate_memory`` per doubling."""
    from repro.core.memory import MemoryBudget

    budget = MemoryBudget.for_gpu(spec)
    suggested = cfg.tp_degree
    while suggested < 64:
        suggested *= 2
        if cfg.hidden_size % suggested:
            continue
        trial = estimate_memory(
            cfg, tp=suggested, pipeline_stages=p, checkpointing="full"
        )
        if trial.fits(budget):
            break
    return suggested


@pytest.mark.parametrize("gpu", ("A100", "A100-80GB", "H100", "V100"))
def test_capacity_fixit_matches_per_degree_search(gpu):
    linter = ShapeLinter(gpu)
    seen = set()
    for cfg in list_models():
        for t in (1, 3):
            sharded = cfg.with_overrides(tp_degree=t)
            for p in (1, 2, 4):
                (diag,) = linter.rule_memory_capacity(sharded, p)
                if diag.fixit is None:
                    continue
                want = _reference_fixit(sharded, linter.spec, p)
                assert diag.fixit.suggested == want, (cfg.name, t, p)
                seen.add(want)
    # Both outcomes are exercised: a fitting degree and the 64+ fallback.
    assert any(s < 64 for s in seen) and any(s >= 64 for s in seen)
