"""Cross-module invariants for the newer substrates.

Hypothesis suites over inference, memory, training and batching: the
contracts that keep the serving/training analyses self-consistent.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import TransformerConfig, get_model
from repro.core.memory import MemoryBudget, inference_bytes
from repro.inference.latency import InferenceModel
from repro.trainstep.memory import estimate_memory
from repro.trainstep.step import TrainStepEstimator

small_configs = st.builds(
    lambda dim_mult, a, L, kv_div: TransformerConfig(
        name="inv",
        hidden_size=a * 16 * dim_mult,
        num_heads=a,
        num_layers=L,
        vocab_size=1024,
        seq_len=256,
        microbatch=1,
        num_kv_heads=max(1, a // kv_div),
    ),
    dim_mult=st.integers(min_value=1, max_value=8),
    a=st.sampled_from([2, 4, 8]),
    L=st.integers(min_value=1, max_value=32),
    kv_div=st.sampled_from([1, 2, 4]),
)


class TestInferenceInvariants:
    @settings(max_examples=25, deadline=None)
    @given(small_configs, st.integers(min_value=1, max_value=4096))
    def test_decode_latency_positive_and_monotone_in_context(self, cfg, ctx):
        model = InferenceModel("A100")
        a = model.decode_step(cfg, context_len=ctx).latency_s
        b = model.decode_step(cfg, context_len=2 * ctx).latency_s
        # Tiny grids gain a little memory-level parallelism from extra
        # blocks, so allow a 2% non-monotonicity band at toy scale.
        assert 0 < a <= b * 1.02

    @settings(max_examples=25, deadline=None)
    @given(small_configs)
    def test_prefill_dominates_one_decode_step(self, cfg):
        # Processing s tokens at once must cost more than generating one.
        model = InferenceModel("A100")
        prefill = model.prefill(cfg, prompt_len=cfg.seq_len).latency_s
        step = model.decode_step(cfg, context_len=cfg.seq_len).latency_s
        assert prefill > step / cfg.seq_len

    @settings(max_examples=25, deadline=None)
    @given(small_configs)
    def test_gqa_never_slower_to_decode(self, cfg):
        model = InferenceModel("A100")
        mha = cfg.with_overrides(num_kv_heads=cfg.num_heads)
        assert (
            model.decode_step(cfg, 1024).latency_s
            <= model.decode_step(mha, 1024).latency_s * 1.02
        )


class TestMemoryInvariants:
    @settings(max_examples=25, deadline=None)
    @given(small_configs)
    def test_training_exceeds_inference_footprint(self, cfg):
        train = estimate_memory(cfg).peak_bytes
        infer = inference_bytes(cfg, context_len=256).total
        assert train > infer

    @settings(max_examples=25, deadline=None)
    @given(small_configs, st.sampled_from([2, 4]))
    def test_sharding_divides_states(self, cfg, t):
        if cfg.num_heads % t or cfg.kv_heads % t:
            return

        def states(mem):
            return mem.parameter_bytes + mem.gradient_bytes + mem.optimizer_state_bytes

        assert states(estimate_memory(cfg, tp=t)) == pytest.approx(
            states(estimate_memory(cfg)) / t
        )

    @settings(max_examples=25, deadline=None)
    @given(small_configs)
    def test_budget_fits_is_threshold(self, cfg):
        usage = estimate_memory(cfg)
        exactly = MemoryBudget(
            capacity_bytes=usage.peak_bytes / 0.92 * (1 + 1e-9), headroom=0.08
        )
        below = MemoryBudget(capacity_bytes=usage.peak_bytes * 0.5, headroom=0.08)
        assert usage.fits(exactly)
        assert not usage.fits(below)


class TestTrainingInvariants:
    @settings(max_examples=10, deadline=None)
    @given(small_configs)
    def test_step_slower_than_forward(self, cfg):
        step = TrainStepEstimator("A100").estimate(cfg)
        assert step.total_s > step.phase("forward").seconds
        assert step.phase("backward").seconds > 0


class TestPresetsSurviveEverything:
    @pytest.mark.parametrize(
        "name",
        ["gpt3-125m", "gpt3-2.7b", "pythia-1b", "llama2-7b", "llama2-70b", "mistral-7b"],
    )
    def test_full_pipeline_on_presets(self, name):
        """Every preset flows through rules, latency, training, memory
        and inference without error."""
        from repro.analysis.shape_rules import ShapeLinter
        from repro.core.latency import LayerLatencyModel

        cfg = get_model(name, microbatch=1)
        assert ShapeLinter("A100").diagnose(cfg)
        assert LayerLatencyModel("A100").model_latency(cfg) > 0
        assert TrainStepEstimator("A100").estimate(cfg).total_s > 0
        assert estimate_memory(cfg).peak_bytes > 0
        assert InferenceModel("A100").decode_step(cfg, 512).latency_s > 0
