"""Tests for engine-backed fix-it quantification."""

import pytest

from repro.analysis.fixit import (
    best_candidate,
    modeled_latency,
    nearest_multiple,
    neighborhood_multiples,
    rank_candidates,
    strictly_better,
)
from repro.errors import ConfigError


class TestNearestMultiple:
    def test_rounds_to_nearest(self):
        assert nearest_multiple(100, 64) == 128
        assert nearest_multiple(70, 64) == 64

    def test_ties_round_up(self):
        assert nearest_multiple(96, 64) == 128

    def test_up_only(self):
        assert nearest_multiple(65, 64, up_only=True) == 128
        assert nearest_multiple(64, 64, up_only=True) == 64

    def test_never_zero(self):
        assert nearest_multiple(3, 64) == 64

    def test_vocab_padding_case(self):
        # The paper's Fig 20 case: 50257 pads up to 50304 = 786 * 64.
        assert nearest_multiple(50257, 64, up_only=True) == 50304

    def test_bad_multiple(self):
        with pytest.raises(ConfigError):
            nearest_multiple(100, 0)


class TestNeighborhoodMultiples:
    def test_brackets_value(self):
        out = neighborhood_multiples(100, 64, span=2)
        assert out == [64, 128, 192, 256]
        assert all(v % 64 == 0 for v in out)

    def test_up_only_never_below_value(self):
        out = neighborhood_multiples(50257, 64, span=3, up_only=True)
        assert min(out) >= 50257
        assert 50304 in out

    def test_all_positive(self):
        assert all(v > 0 for v in neighborhood_multiples(10, 64, span=4))


class TestStrictlyBetter:
    def test_improvement(self):
        assert strictly_better(2.0, 1.0) == 2.0

    def test_regression_or_wash_is_none(self):
        assert strictly_better(1.0, 1.0) is None
        assert strictly_better(1.0, 2.0) is None

    def test_min_gain_threshold(self):
        assert strictly_better(1.05, 1.0, min_gain=0.10) is None
        assert strictly_better(1.2, 1.0, min_gain=0.10) == pytest.approx(1.2)


class TestRankCandidates:
    def test_sorted_best_first(self):
        # Larger aligned GEMMs still cost more time; ranking must be by
        # latency, so the small candidate wins here.
        ranked = rank_candidates(
            [512, 4096], lambda n: [(n, n, n, 1)], "A100"
        )
        assert ranked[0].value == 512
        assert ranked[0].latency_s < ranked[1].latency_s

    def test_aligned_beats_misaligned_at_same_scale(self):
        ranked = rank_candidates(
            [4096, 4097], lambda n: [(2048, n, 2048, 1)], "A100"
        )
        assert ranked[0].value == 4096

    def test_matches_per_candidate_modeled_latency(self):
        shapes_for = lambda n: [(n, 1024, 1024, 1), (1024, n, 512, 1)]
        ranked = rank_candidates([768, 1024], shapes_for, "A100")
        for cand in ranked:
            assert cand.latency_s == pytest.approx(
                modeled_latency(shapes_for(cand.value), "A100"), rel=1e-9
            )

    def test_empty_candidates_raise(self):
        with pytest.raises(ConfigError):
            rank_candidates([], lambda n: [(n, n, n, 1)], "A100")

    def test_best_candidate(self):
        best = best_candidate([512, 4096], lambda n: [(n, n, n, 1)], "A100")
        assert best.value == 512


class TestModeledLatency:
    def test_positive_and_additive(self):
        one = modeled_latency([(1024, 1024, 1024, 1)], "A100")
        two = modeled_latency([(1024, 1024, 1024, 1)] * 2, "A100")
        assert one > 0
        assert two == pytest.approx(2 * one, rel=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            modeled_latency([], "A100")
