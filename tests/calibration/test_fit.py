"""Tests for calibration: fitters must recover generating constants."""

import pytest

from repro.calibration.fit import (
    MeasuredGemm,
    fit_bw_efficiency,
    fit_efficiency_floor,
    synthetic_samples,
)
from repro.errors import CalibrationError
from repro.gpu import alignment
from repro.gpu.gemm_model import GemmModel


class TestMeasuredGemm:
    def test_valid(self):
        m = MeasuredGemm(m=128, n=128, k=128, latency_s=1e-5)
        assert m.batch == 1

    def test_invalid_raises(self):
        with pytest.raises(CalibrationError):
            MeasuredGemm(m=0, n=128, k=128, latency_s=1e-5)
        with pytest.raises(CalibrationError):
            MeasuredGemm(m=128, n=128, k=128, latency_s=0.0)


class TestBwFit:
    def test_recovers_generating_value(self):
        # Generate 'measurements' from a model with bw_eff = 0.70 and
        # check the fitter finds it.
        target = 0.70
        gen = GemmModel("A100", bw_efficiency=target)
        samples = [
            MeasuredGemm(m, n, k, gen.latency(m, n, k))
            for m, n, k in [(2048, 2048, 64), (4096, 4096, 128), (2048, 2048, 80)]
        ]
        result = fit_bw_efficiency(samples)
        assert result.value == pytest.approx(target, abs=0.02)
        assert result.rms_rel_error < 0.05
        assert result.samples == 3

    def test_too_few_samples_raises(self):
        with pytest.raises(CalibrationError):
            fit_bw_efficiency([MeasuredGemm(128, 128, 128, 1e-5)])


class TestFloorFit:
    def test_runs_and_restores_global(self):
        original = alignment._EFF_AT_MIN
        samples = synthetic_samples()
        result = fit_efficiency_floor(samples)
        assert alignment._EFF_AT_MIN == original
        assert 0.2 <= result.value <= 0.95

    def test_self_consistent_fit_near_current_value(self):
        # Fitting against the model's own outputs should land near the
        # current constant.
        samples = synthetic_samples()
        result = fit_efficiency_floor(samples)
        assert result.value == pytest.approx(alignment._EFF_AT_MIN, abs=0.1)
        assert result.rms_rel_error < 0.05

    def test_too_few_samples_raises(self):
        with pytest.raises(CalibrationError):
            fit_efficiency_floor(synthetic_samples()[:1])


class TestSyntheticSamples:
    def test_deterministic_without_noise(self):
        a = synthetic_samples(noise=0.0)
        b = synthetic_samples(noise=0.0)
        assert [s.latency_s for s in a] == [s.latency_s for s in b]

    def test_noise_perturbs(self):
        a = synthetic_samples(noise=0.0)
        b = synthetic_samples(noise=0.1, seed=7)
        assert [s.latency_s for s in a] != [s.latency_s for s in b]

    def test_noisy_fit_still_converges(self):
        result = fit_bw_efficiency(synthetic_samples(noise=0.03, seed=11))
        assert 0.4 <= result.value <= 1.0


class TestRunCalibration:
    def _journal(self, tmp_path, resume=False):
        from repro.resilience.checkpoint import SweepJournal

        return SweepJournal(
            tmp_path / "cal.jsonl", sweep_id="calibrate", resume=resume
        )

    def test_runs_all_fitters(self):
        from repro.calibration.fit import run_calibration

        results = run_calibration(synthetic_samples())
        assert [r.name for r in results] == [
            "bw_efficiency", "alignment_efficiency_floor",
        ]

    def test_resume_skips_completed_fits(self, tmp_path):
        from repro.calibration.fit import run_calibration

        samples = synthetic_samples()
        journal = self._journal(tmp_path)
        first = run_calibration(samples, journal=journal)
        assert journal.completed() == {
            "bw_efficiency", "alignment_efficiency_floor",
        }

        # Resume: both fits are reconstructed from the checkpoint, so
        # the fitters never run — even poisoned samples don't matter.
        resumed = self._journal(tmp_path, resume=True)
        second = run_calibration([], journal=resumed)
        assert [r.name for r in second] == [r.name for r in first]
        assert [r.value for r in second] == [r.value for r in first]
        assert [r.samples for r in second] == [r.samples for r in first]

    def test_partial_journal_runs_only_missing_fit(self, tmp_path):
        from repro.calibration.fit import run_calibration

        samples = synthetic_samples()
        journal = self._journal(tmp_path)
        journal.record(
            "bw_efficiency", "ok",
            payload={"value": 0.5, "rms_rel_error": 0.01, "samples": 3},
        )
        resumed = self._journal(tmp_path, resume=True)
        results = run_calibration(samples, journal=resumed)
        by_name = {r.name: r for r in results}
        assert by_name["bw_efficiency"].value == 0.5  # restored, not re-fit
        assert resumed.completed() == {
            "bw_efficiency", "alignment_efficiency_floor",
        }

    def test_injected_fault_surfaces_from_fit(self, tmp_path):
        from repro.calibration.fit import run_calibration
        from repro.errors import FaultInjectionError
        from repro.resilience.faults import FaultPlan, FaultSpec, injected

        plan = FaultPlan([
            FaultSpec(site="calibration.fit", match="bw_efficiency"),
        ])
        with injected(plan):
            with pytest.raises(FaultInjectionError):
                run_calibration(synthetic_samples())
