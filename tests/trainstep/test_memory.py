"""Tests for the per-module / per-phase training-step memory model."""

import pytest

from repro.core.config import get_model
from repro.core.memory import MemoryBudget, activation_bytes_per_layer
from repro.core.training import ADAM_STATE_BYTES_PER_PARAM
from repro.errors import CapacityError, ConfigError
from repro.trainstep.memory import (
    BOUNDARY_MODULE,
    boundary_bytes_per_layer,
    estimate_memory,
    module_activation_bytes,
    module_param_elements,
)


class TestParamWalk:
    @pytest.mark.parametrize(
        "name",
        ["gpt3-2.7b", "pythia-410m", "gpt3-175b", "c1", "llama2-70b", "mixtral-8x7b"],
    )
    def test_dedup_walk_sums_to_param_count(self, name):
        cfg = get_model(name)
        assert sum(module_param_elements(cfg).values()) == cfg.param_count()

    def test_naive_walk_double_counts_tied_embedding(self):
        cfg = get_model("gpt3-2.7b")
        dedup = module_param_elements(cfg)
        naive = module_param_elements(cfg, dedup_tied=False)
        assert dedup["logit"] == 0
        assert naive["logit"] == cfg.vocab_size * cfg.hidden_size
        delta = sum(naive.values()) - sum(dedup.values())
        assert delta == cfg.vocab_size * cfg.hidden_size

    def test_embedding_dedup_regression_pin(self):
        """The corrected per-rank parameter bytes under TP, pinned.

        The old parameter-only heuristic effectively priced the tied
        logit weight separately from the embedding; the estimator
        counts it once.  gpt3-2.7b: 2.651B params -> at t=4 each rank
        holds exactly params/4 elements * 16 B of Adam residency.
        """
        cfg = get_model("gpt3-2.7b")
        mem = estimate_memory(cfg, tp=4)
        expected = cfg.param_count() / 4 * ADAM_STATE_BYTES_PER_PARAM
        resident = (
            mem.parameter_bytes + mem.gradient_bytes + mem.optimizer_state_bytes
        )
        assert resident == pytest.approx(expected, rel=1e-12)
        # And the naive double-count would have been visibly larger:
        naive_extra = cfg.vocab_size * cfg.hidden_size / 4 * ADAM_STATE_BYTES_PER_PARAM
        assert naive_extra > 0.5e9  # the bug was worth ~0.5 GB/rank here


class TestActivationWalk:
    @pytest.mark.parametrize("name", ["gpt3-2.7b", "pythia-1b", "c2"])
    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_classic_block_matches_korthikanti(self, name, t):
        cfg = get_model(name)
        per_module = module_activation_bytes(cfg, t)
        assert sum(per_module.values()) == pytest.approx(
            activation_bytes_per_layer(cfg.with_overrides(tp_degree=t)),
            rel=1e-12,
        )

    def test_flash_drops_score_terms(self):
        cfg = get_model("gpt3-2.7b")
        plain = module_activation_bytes(cfg, 1)
        flash = module_activation_bytes(cfg, 1, flash_attention=True)
        assert flash["attention_score"] < plain["attention_score"]
        assert flash["qkv_transform"] == plain["qkv_transform"]

    def test_boundary_is_smaller_than_layer(self):
        cfg = get_model("gpt3-2.7b")
        assert boundary_bytes_per_layer(cfg, 2) < sum(
            module_activation_bytes(cfg, 2).values()
        )


class TestEstimateMemory:
    def test_matches_closed_form_at_p1(self):
        """At (t, p=1), classic block, no flash/ckpt, the estimator's
        peak equals the closed form: 16 B of Adam residency per
        parameter plus L layers of Korthikanti activations."""
        for t in (1, 2, 4):
            cfg = get_model("gpt3-2.7b", tp_degree=t)
            closed_form = (
                cfg.param_count() / t * ADAM_STATE_BYTES_PER_PARAM
                + cfg.num_layers * activation_bytes_per_layer(cfg)
            )
            mem = estimate_memory(cfg)
            assert mem.peak_bytes == pytest.approx(closed_form, rel=1e-12)

    def test_backward_is_peak_phase(self):
        mem = estimate_memory(get_model("gpt3-2.7b"))
        assert mem.peak_phase == "backward"
        assert mem.phase("backward").total_bytes >= mem.phase("forward").total_bytes
        assert mem.phase("backward").total_bytes >= mem.phase("optimizer").total_bytes

    def test_checkpointing_stores_boundaries_only(self):
        cfg = get_model("gpt3-2.7b")
        full = estimate_memory(cfg, checkpointing="full")
        none = estimate_memory(cfg, checkpointing="none")
        assert full.peak_bytes < none.peak_bytes
        names = [m.module for m in full.modules]
        assert BOUNDARY_MODULE in names
        assert BOUNDARY_MODULE not in [m.module for m in none.modules]

    def test_embedding_not_diluted_by_pipeline(self):
        """The embedding stays resident on its stage: parameter bytes
        shrink slower than 1/p."""
        cfg = get_model("gpt3-2.7b")
        p1 = estimate_memory(cfg, pipeline_stages=1)
        p4 = estimate_memory(cfg, pipeline_stages=4)
        emb = next(m for m in p4.modules if m.module == "embedding")
        emb1 = next(m for m in p1.modules if m.module == "embedding")
        assert emb.parameter_bytes == emb1.parameter_bytes
        assert p4.parameter_bytes > p1.parameter_bytes / 4

    def test_bad_sharding_raises(self):
        cfg = get_model("gpt3-2.7b")
        with pytest.raises(ConfigError):
            estimate_memory(cfg, tp=0)
        with pytest.raises(ConfigError):
            estimate_memory(cfg, pipeline_stages=-1)
        with pytest.raises(ConfigError):
            estimate_memory(cfg, checkpointing="half")

    def test_require_fits_names_phase(self):
        cfg = get_model("gpt3-6.7b", microbatch=1)
        mem = estimate_memory(cfg)
        budget = MemoryBudget.for_gpu("A100")
        with pytest.raises(CapacityError) as exc:
            mem.require_fits(budget)
        err = exc.value
        assert err.phase == "backward"
        assert err.required_bytes > err.budget_bytes
        assert "backward" in str(err)

    def test_variant_blocks_account_honestly(self):
        """SwiGLU and MoE configs produce self-consistent walks too."""
        for name in ("llama2-70b", "mixtral-8x7b"):
            cfg = get_model(name)
            mem = estimate_memory(cfg)
            assert mem.peak_bytes > 0
            assert sum(module_param_elements(cfg).values()) == cfg.param_count()
