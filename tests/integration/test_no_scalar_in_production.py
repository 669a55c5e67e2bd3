"""Wall: production pricing never calls the scalar ``GemmModel``.

The shape engine is the one forward-pricing path.  ``GemmModel.evaluate``
stays only as the oracle behind ``verify_against_scalar``, the
training-step wall and the differential tests.  Each test here patches
it to record and raise, then drives a production entry point: every
registry experiment, the CLI's ``analyze`` / ``gemm`` / ``whatif``
verbs, the inference model and the trace profiler.  Recording as well
as raising keeps a caller that swallows the error from hiding the call.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import get_model
from repro.core.profile import TraceProfiler
from repro.gpu.gemm_model import GemmModel
from repro.harness.figures import list_experiments
from repro.harness.runner import run_experiment
from repro.inference.latency import InferenceModel
from repro.transformer.backward import loss_and_gradients
from repro.transformer.model import DecoderModel
from repro.transformer.trace import OpTrace

EXPERIMENTS = [e.id for e in list_experiments(include_family_members=True)]


@pytest.fixture
def scalar_calls(monkeypatch) -> List[tuple]:
    """Shapes passed to ``GemmModel.evaluate`` while the test runs."""
    calls: List[tuple] = []

    def refuse(self, *args, **kwargs):
        calls.append(args)
        raise AssertionError(f"scalar GemmModel.evaluate{args} on a production path")

    monkeypatch.setattr(GemmModel, "evaluate", refuse)
    return calls


@pytest.mark.parametrize("exp_id", EXPERIMENTS)
def test_experiment_prices_through_the_engine(scalar_calls, exp_id):
    report = run_experiment(exp_id)
    assert report.passed, report.check.details
    assert scalar_calls == []


@pytest.mark.parametrize("gpu", ("A100", "H100"))
@pytest.mark.parametrize(
    "argv",
    (
        ["analyze", "gpt3-2.7b"],
        ["analyze", "llama2-7b", "--flash"],
        ["gemm", "8192", "7680", "2560"],
        ["gemm", "2048", "2048", "80", "--batch", "128", "--dtype", "bf16"],
        ["whatif", "gpt3-2.7b"],
        ["whatif", "llama2-7b"],
    ),
    ids=lambda argv: "-".join(argv),
)
def test_cli_verbs_price_through_the_engine(scalar_calls, capsys, argv, gpu):
    assert main(argv + ["--gpu", gpu]) == 0
    assert capsys.readouterr().out
    assert scalar_calls == []


def test_inference_prices_through_the_engine(scalar_calls):
    model = InferenceModel("A100")
    cfg = get_model("pythia-1b")
    assert model.prefill(cfg, prompt_len=512).latency_s > 0
    assert model.generate_latency(cfg, prompt_len=128, new_tokens=64, batch=2) > 0
    assert scalar_calls == []


def test_trace_profiler_prices_through_the_engine(scalar_calls):
    model = DecoderModel(
        vocab_size=64,
        max_seq=8,
        hidden_size=32,
        num_heads=4,
        num_layers=2,
        rng=np.random.default_rng(0),
    )
    trace = OpTrace()
    loss_and_gradients(model, np.random.default_rng(1).integers(0, 64, (8, 2)), trace)
    assert TraceProfiler("H100").profile(trace)
    assert scalar_calls == []
