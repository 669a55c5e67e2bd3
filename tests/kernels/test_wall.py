"""The differential wall: tuned picks vs the scalar GemmModel oracle."""

import numpy as np
import pytest

from repro.engine.core import ShapeEngine
from repro.errors import KernelTableError
from repro.kernels.wall import (
    NEAR_TOP1_REL,
    ShapeVerdict,
    WallReport,
    run_wall,
    validation_shapes,
)


def _verdict(mismatches=0, gap=0.0, pick="128x256", oracle=None, hit=True):
    return ShapeVerdict(
        shape=(1, 512, 512, 512),
        table_pick=pick,
        table_hit=hit,
        oracle_pick=pick if oracle is None else oracle,
        mismatches=mismatches,
        pick_gap_rel=gap,
    )


class _SkewedSweep:
    """A tile sweep whose first latency is one ulp off the oracle's."""

    def __init__(self, sweep):
        self._sweep = sweep

    def __getattr__(self, name):
        return getattr(self._sweep, name)

    def matrix(self, name):
        out = self._sweep.matrix(name).copy()
        if name == "latency_s":
            out[0, 0] = np.nextafter(out[0, 0], np.inf)
        return out


class _SkewedEngine(ShapeEngine):
    def evaluate_tiles(self, *args, **kwargs):
        return _SkewedSweep(super().evaluate_tiles(*args, **kwargs))


class TestValidationShapes:
    def test_deterministic_per_seed(self):
        assert validation_shapes(seed=3) == validation_shapes(seed=3)
        assert validation_shapes(seed=3) != validation_shapes(seed=4)

    def test_count_and_uniqueness(self):
        shapes = validation_shapes(seed=0, count=20)
        assert len(shapes) == 20
        assert len(set(shapes)) == 20

    def test_prefix_property(self):
        # Smaller counts are prefixes: CI can shrink the wall without
        # sampling a different population.
        assert validation_shapes(seed=0, count=6) == validation_shapes(
            seed=0, count=12
        )[:6]

    def test_bad_count_rejected(self):
        with pytest.raises(KernelTableError):
            validation_shapes(count=0)


class TestThresholds:
    def test_empty_report_fails(self):
        assert not WallReport(gpu="A100", dtype="FP16").passed

    def test_clean_report_passes(self):
        report = WallReport(
            gpu="A100", dtype="FP16", verdicts=[_verdict() for _ in range(5)]
        )
        assert report.mismatches == 0
        assert report.top1_agreement == 1.0
        assert report.passed
        assert "PASS" in report.describe()

    def test_one_oracle_mismatch_fails_despite_perfect_top1(self):
        verdicts = [_verdict() for _ in range(4)] + [_verdict(mismatches=1)]
        report = WallReport(gpu="A100", dtype="FP16", verdicts=verdicts)
        assert report.top1_agreement == 1.0
        assert report.mismatches == 1
        assert not report.passed
        assert "FAIL" in report.describe()

    def test_top1_floor_enforced(self):
        good = [_verdict() for _ in range(3)]
        bad = [_verdict(oracle="64x64", gap=0.5) for _ in range(2)]
        report = WallReport(gpu="A100", dtype="FP16", verdicts=good + bad)
        assert report.top1_agreement == pytest.approx(0.6)
        assert not report.passed

    def test_near_tie_counts_as_agreement(self):
        tied = _verdict(oracle="64x64", gap=NEAR_TOP1_REL / 2)
        assert tied.top1_ok
        separated = _verdict(oracle="64x64", gap=NEAR_TOP1_REL * 10)
        assert not separated.top1_ok


class TestRunWall:
    def test_quick_table_passes_the_wall(self, quick_table, engine):
        report = run_wall(quick_table, seed=0, count=8, engine=engine)
        assert len(report.verdicts) == 8
        assert report.passed, report.describe()
        assert report.gpu == "A100" and report.dtype == "FP16"
        # The sampled pool straddles the table's octave range, so the
        # wall exercises the fallback path too.
        assert any(not v.table_hit for v in report.verdicts)

    def test_explicit_shapes_pin_hit_and_miss(self, quick_table, engine):
        shapes = [
            (1, 512, 512, 512),  # tuning representative: table hit
            (2, 512, 512, 512),  # batch octave untuned: fallback
        ]
        report = run_wall(quick_table, shapes=shapes, engine=engine)
        assert [v.table_hit for v in report.verdicts] == [True, False]
        assert all(v.mismatches == 0 for v in report.verdicts)

    def test_one_ulp_sweep_mismatch_fails_the_wall(self, quick_table):
        shapes = [(1, 512, 512, 512), (2, 512, 512, 512)]
        report = run_wall(quick_table, shapes=shapes, engine=_SkewedEngine())
        assert [v.mismatches for v in report.verdicts] == [1, 0]
        assert report.top1_agreement == 1.0
        assert not report.passed
