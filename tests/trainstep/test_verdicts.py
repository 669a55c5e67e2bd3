"""Differential wall: every training-memory verdict is the estimator's.

Three entry points answer "does this training step fit?": the what-if
microbatch gate, :meth:`~repro.parallelism.planner.ParallelPlanner.fits`
and the ``shape/memory-capacity`` lint advisory.  Over the model zoo on three
GPUs and every feasible (t, p, checkpointing) below, each must agree with
``estimate_memory(...).fits(budget)``.
"""

import pytest

from repro.analysis.shape_rules import ShapeLinter
from repro.analysis.whatif import WhatIfAnalyzer
from repro.core.config import list_models
from repro.core.memory import MemoryBudget
from repro.errors import ParallelismError
from repro.gpu.specs import get_gpu
from repro.parallelism.planner import ParallelPlanner
from repro.parallelism.tensor_parallel import validate_tp_feasible
from repro.parallelism.topology import NodeTopology
from repro.trainstep.memory import CHECKPOINTING_POLICIES, estimate_memory

GPUS = ("A100", "A100-80GB", "H100")
TP = (1, 2, 4, 8)
PP = (1, 2, 4)
CONFIGS = list_models()
MODELS = [cfg.name for cfg in CONFIGS]


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
            (sens,) = [s for s in analyzer.rank(cfg) if s.knob == "microbatch"]
            gated = sens.config is None
            assert gated == (not _fits(cfg, gpu, microbatch=2 * cfg.microbatch)), t

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


@pytest.mark.parametrize("index", range(len(CONFIGS)), ids=MODELS)
def test_peak_is_monotone_in_microbatch(index):
    """Peak memory never falls as b grows, so every budget has one fit
    boundary in b and "does 2b fit?" is the whole microbatch question."""
    for t, cfg in _sharded(CONFIGS[index]):
        for p in PP:
            for ckpt in CHECKPOINTING_POLICIES:
                peaks = [
                    estimate_memory(
                        cfg.with_overrides(microbatch=b),
                        pipeline_stages=p,
                        checkpointing=ckpt,
                    ).peak_bytes
                    for b in range(1, 17)
                ]
                assert peaks == sorted(peaks), (t, p, ckpt)
