"""Differential wall: every training-memory verdict is the estimator's.

Four entry points answer "does this training step fit?": the what-if
microbatch gate, :func:`~repro.trainstep.memory.max_microbatch`,
:meth:`~repro.parallelism.planner.ParallelPlanner.fits` and the
``shape/memory-capacity`` lint advisory.  Over the model zoo on three
GPUs and every feasible (t, p, checkpointing) below, each must agree with
``estimate_memory(...).fits(budget)``.
"""

import pytest

from repro.analysis.shape_rules import ShapeLinter
from repro.core.config import list_models
from repro.core.memory import MemoryBudget
from repro.core.whatif import WhatIfAnalyzer
from repro.errors import ParallelismError
from repro.gpu.specs import get_gpu
from repro.parallelism.planner import ParallelPlanner
from repro.parallelism.tensor_parallel import validate_tp_feasible
from repro.parallelism.topology import NodeTopology
from repro.trainstep.memory import (
    CHECKPOINTING_POLICIES,
    estimate_memory,
    max_microbatch,
)

GPUS = ("A100", "A100-80GB", "H100")
TP = (1, 2, 4, 8)
PP = (1, 2, 4)
CONFIGS = list_models()
MODELS = [cfg.name for cfg in CONFIGS]
LIMIT = 512


def _sharded(cfg):
    """``(t, cfg at tensor degree t)`` for every t in TP that shards cfg."""
    out = []
    for t in TP:
        try:
            validate_tp_feasible(cfg, t)
        except ParallelismError:
            continue
        out.append((t, cfg.with_overrides(tp_degree=t)))
    return out


def _fits(cfg, gpu, p=1, checkpointing="none", microbatch=None):
    """The reference verdict for ``cfg`` at its own tensor degree."""
    if microbatch is not None:
        cfg = cfg.with_overrides(microbatch=microbatch)
    mem = estimate_memory(cfg, pipeline_stages=p, checkpointing=checkpointing)
    return mem.fits(MemoryBudget.for_gpu(gpu))


@pytest.mark.parametrize("gpu", GPUS)
@pytest.mark.parametrize("index", range(len(CONFIGS)), ids=MODELS)
class TestVerdictsMatchEstimator:
    def test_whatif_microbatch_gate(self, gpu, index):
        analyzer = WhatIfAnalyzer(gpu)
        for t, cfg in _sharded(CONFIGS[index]):
            knob = {k.name: k for k in analyzer.knobs(cfg)}["microbatch"]
            gated = not knob.moves
            assert gated == (not _fits(cfg, gpu, microbatch=2 * cfg.microbatch)), t

    def test_max_microbatch_is_the_fit_boundary(self, gpu, index):
        budget = MemoryBudget.for_gpu(gpu)
        for t, cfg in _sharded(CONFIGS[index]):
            for p in PP:
                for ckpt in CHECKPOINTING_POLICIES:
                    b = max_microbatch(cfg, budget, p, ckpt, limit=LIMIT)
                    case = (t, p, ckpt, b)
                    if b > 0:
                        assert _fits(cfg, gpu, p, ckpt, microbatch=b), case
                    if b < LIMIT:
                        assert not _fits(cfg, gpu, p, ckpt, microbatch=b + 1), case

    def test_planner_fits(self, gpu, index):
        topology = NodeTopology(
            name=f"diff-{gpu}",
            gpu=get_gpu(gpu),
            gpus_per_node=8,
            intra_node_bw=600e9,
            inter_node_bw=50e9,
        )
        planner = ParallelPlanner(topology)
        cfg = CONFIGS[index]
        for t, sharded in _sharded(cfg):
            for p in PP:
                for ckpt in CHECKPOINTING_POLICIES:
                    got = planner.fits(cfg, t, p, ckpt)
                    assert got == _fits(sharded, gpu, p, ckpt), (t, p, ckpt)

    def test_capacity_lint(self, gpu, index):
        linter = ShapeLinter(gpu)
        for t, cfg in _sharded(CONFIGS[index]):
            for p in PP:
                (diag,) = linter.rule_memory_capacity(cfg, p)
                verdict = (
                    diag.message.startswith("training step fits:"),
                    not diag.message.startswith("training step cannot fit"),
                )
                expected = (_fits(cfg, gpu, p), _fits(cfg, gpu, p, "full"))
                assert verdict == expected, (t, p, diag.message)
