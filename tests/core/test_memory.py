"""Tests for the per-GPU memory accounting: the closed forms in
``core.memory`` and the training-step footprint they feed."""

import pytest

from repro.core.config import get_model
from repro.core.memory import MemoryBudget, activation_bytes_per_layer, inference_bytes
from repro.errors import ConfigError
from repro.trainstep.memory import estimate_memory


@pytest.fixture(scope="module")
def cfg():
    return get_model("gpt3-2.7b", microbatch=1)


class TestActivations:
    def test_flash_removes_attention_term(self, cfg):
        plain = activation_bytes_per_layer(cfg)
        flash = activation_bytes_per_layer(cfg, flash_attention=True)
        assert flash < plain
        s, b, a = cfg.seq_len, cfg.microbatch, cfg.num_heads
        assert plain - flash == pytest.approx(5.0 * a * s * s * b)

    def test_tp_divides(self, cfg):
        sharded = cfg.with_overrides(tp_degree=4)
        assert activation_bytes_per_layer(sharded) == pytest.approx(
            activation_bytes_per_layer(cfg) / 4
        )

    def test_scales_with_microbatch(self, cfg):
        b4 = cfg.with_overrides(microbatch=4)
        assert activation_bytes_per_layer(b4) == pytest.approx(
            4 * activation_bytes_per_layer(cfg)
        )


class TestTraining:
    def test_adam_states_dominate_small_batch(self, cfg):
        usage = estimate_memory(cfg)
        # 2.65B params x 16 B = ~42 GB of states.
        states = (
            usage.parameter_bytes + usage.gradient_bytes + usage.optimizer_state_bytes
        )
        assert states == pytest.approx(cfg.param_count() * 16, rel=1e-6)
        assert usage.peak_bytes > 40e9

    def test_sharding_reduces_footprint(self, cfg):
        full = estimate_memory(cfg).peak_bytes
        sharded = estimate_memory(cfg, tp=4, pipeline_stages=2).peak_bytes
        assert sharded < full / 4

    def test_recompute_shrinks_activations(self, cfg):
        big = cfg.with_overrides(microbatch=8)
        plain = estimate_memory(big).activation_bytes
        recomp = estimate_memory(big, checkpointing="full").activation_bytes
        assert recomp < plain / 5

    def test_invalid_stages_raise(self, cfg):
        with pytest.raises(ConfigError):
            estimate_memory(cfg, pipeline_stages=0)


class TestInference:
    def test_weights_fp16(self, cfg):
        usage = inference_bytes(cfg, context_len=2048)
        assert usage.weights_and_optimizer == pytest.approx(cfg.param_count() * 2)

    def test_kv_cache_grows_with_context(self, cfg):
        short = inference_bytes(cfg, context_len=512).kv_cache
        long = inference_bytes(cfg, context_len=4096).kv_cache
        assert long == pytest.approx(8 * short)

    def test_gqa_shrinks_kv(self):
        gqa = get_model("llama2-70b", microbatch=1)
        mha = gqa.with_overrides(num_kv_heads=64)
        assert inference_bytes(gqa, 4096).kv_cache == pytest.approx(
            inference_bytes(mha, 4096).kv_cache / 8
        )

    def test_invalid_context_raises(self, cfg):
        with pytest.raises(ConfigError):
            inference_bytes(cfg, context_len=0)

    def test_window_caps_kv_footprint(self):
        mistral = get_model("mistral-7b", microbatch=1)
        at_window = inference_bytes(mistral, context_len=4096).kv_cache
        beyond = inference_bytes(mistral, context_len=65536).kv_cache
        assert beyond == pytest.approx(at_window)


class TestBudget:
    def test_for_gpu(self):
        budget = MemoryBudget.for_gpu("A100")
        assert budget.capacity_bytes == pytest.approx(40e9)
        assert budget.usable_bytes < budget.capacity_bytes

    def test_fits(self, cfg):
        tiny = MemoryBudget(capacity_bytes=1e9)
        assert not estimate_memory(cfg).fits(tiny)

    def test_27b_needs_sharding_on_a100_40(self, cfg):
        # The classic reality: a 2.7B model's Adam states alone exceed
        # one 40 GB A100 at any microbatch.
        budget = MemoryBudget.for_gpu("A100")
        assert not estimate_memory(cfg).fits(budget)
        sharded = cfg.with_overrides(tp_degree=4)
        assert estimate_memory(sharded, pipeline_stages=2).fits(budget)

    def test_fits_monotone_in_memory(self, cfg):
        small, big = MemoryBudget.for_gpu("A100"), MemoryBudget.for_gpu("A100-80GB")
        verdicts = []
        for b in (1, 2, 4, 8, 16, 32, 64):
            mem = estimate_memory(
                cfg.with_overrides(tp_degree=8, microbatch=b), pipeline_stages=4
            )
            verdicts.append((mem.fits(small), mem.fits(big)))
        assert all(big for small, big in verdicts if small)
        assert verdicts[0] == (True, True)
        assert any(big and not small for small, big in verdicts)

    def test_recompute_allows_bigger_batch(self, cfg):
        budget = MemoryBudget.for_gpu("A100")
        sharded = cfg.with_overrides(tp_degree=8, microbatch=64)
        assert not estimate_memory(sharded, pipeline_stages=4).fits(budget)
        assert estimate_memory(
            sharded, pipeline_stages=4, checkpointing="full"
        ).fits(budget)
