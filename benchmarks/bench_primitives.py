"""Micro-benchmarks of the library's computational primitives.

These time the building blocks a user pays for when sweeping shapes:
one analytic GEMM evaluation, a full layer-latency composition, the
shape linter's rule set, an advisor search, a (t, p, d) parallelism
plan, a tensor-parallel degree sweep, a whole training-step estimate,
one kernel-parameter table tune, and the real NumPy substrates (transformer forward, FlashAttention
kernel).
"""

import numpy as np
import pytest

from repro.analysis.shape_rules import ShapeLinter
from repro.core.advisor import ShapeAdvisor
from repro.core.config import get_model
from repro.core.latency import LayerLatencyModel
from repro.engine.core import ShapeEngine
from repro.gpu.gemm_model import GemmModel
from repro.kernels.search import TUNE_BATCHES, TUNE_DIMS, tune_table
from repro.parallelism.planner import ParallelPlanner
from repro.parallelism.tensor_parallel import TensorParallelLayer
from repro.trainstep import TrainStepEstimator
from repro.transformer.flash import flash_attention
from repro.transformer.model import DecoderModel
from repro.transformer.trace import NullTrace


def bench_gemm_model_evaluate(benchmark):
    model = GemmModel("A100")
    perf = benchmark(model.evaluate, 8192, 10240, 2560)
    assert perf.latency_s > 0


def bench_gemm_model_bmm_evaluate(benchmark):
    model = GemmModel("A100")
    perf = benchmark(model.evaluate, 2048, 2048, 80, 128)
    assert perf.bound == "memory"


def bench_layer_breakdown(benchmark):
    model = LayerLatencyModel("A100")
    cfg = get_model("gpt3-2.7b")
    bd = benchmark(model.layer_breakdown, cfg)
    assert bd.total_s > 0


def bench_shape_linter(benchmark):
    # Every Sec VI-B rule on one config; fix-it neighbourhoods are warm
    # engine hits after the first round.
    linter = ShapeLinter("A100")
    cfg = get_model("gpt3-2.7b")
    diags = benchmark(linter.diagnose, cfg)
    assert diags


def bench_advisor_propose(benchmark):
    advisor = ShapeAdvisor("A100")
    cfg = get_model("gpt3-2.7b")
    proposals = benchmark(advisor.propose, cfg)
    assert proposals


@pytest.mark.parametrize("system", ["aws-p4d", "ornl-summit"])
def bench_planner_plan(benchmark, system):
    # Every (t, p, d) cell of 64 GPUs scored in one array pass; the TP
    # layer costs are warm engine hits after the first round.
    planner = ParallelPlanner(system)
    cfg = get_model("gpt3-6.7b")
    plans = benchmark(planner.plan, cfg, 64)
    assert plans and all(plan.fits_memory for plan in plans)


def bench_tp_layer_costs(benchmark):
    # Degrees 1..6 of one layer on a 6-GPU node, priced from Table II
    # rows in one engine grid (a = 32 rules out t = 3, 5 and 6).
    tp = TensorParallelLayer("ornl-summit")
    cfg = get_model("gpt3-6.7b")
    costs = benchmark(tp.layer_costs, cfg, range(1, 7))
    assert set(costs) == {1, 2, 4}


@pytest.mark.parametrize("checkpointing", ["none", "full"])
def bench_trainstep_estimate(benchmark, checkpointing):
    # One rank's whole training step: rows, one distinct-shape engine
    # call (a warm hit after the first round) and the memory timeline.
    estimator = TrainStepEstimator("A100")
    cfg = get_model("gpt3-2.7b")
    est = benchmark(estimator.estimate, cfg, checkpointing=checkpointing)
    assert est.total_s > 0


def bench_tune_table(benchmark):
    # The full A100 fp16 grid (1,024 buckets) on a fresh engine each
    # round, as `repro tune-kernels` pays it: one tile sweep, the argmin
    # columns and one KernelEntry per bucket.
    table = benchmark(lambda: tune_table("A100", "fp16", engine=ShapeEngine()))
    assert len(table.entries) == len(TUNE_BATCHES) * len(TUNE_DIMS) ** 3


def bench_numpy_transformer_forward(benchmark):
    model = DecoderModel(
        vocab_size=512,
        max_seq=64,
        hidden_size=128,
        num_heads=8,
        num_layers=2,
        rng=np.random.default_rng(0),
    )
    ids = np.random.default_rng(1).integers(0, 512, size=(64, 2))
    trace = NullTrace()
    logits = benchmark(model.forward, ids, trace)
    assert logits.shape == (64, 2, 512)


def bench_flash_attention_numpy(benchmark):
    rng = np.random.default_rng(0)
    q, k, v = (rng.normal(size=(8, 256, 64)) for _ in range(3))
    out = benchmark(flash_attention, q, k, v)
    assert out.shape == q.shape
