"""Least-squares fitting of GPU-model constants to measurements.

When a user has real kernel timings (from nsight / torch profiler) for
their own GPU, these fitters adjust the model's two most influential
scalar knobs so modelled latencies track the measurements:

- :func:`fit_bw_efficiency` — the sustained fraction of datasheet DRAM
  bandwidth, identified from memory-bound samples;
- :func:`fit_efficiency_floor` — the alignment-efficiency value at the
  minimum MMA granularity (the spread between the pow2=8 and pow2=64
  series of Figs 7/21-47), identified from compute-bound samples with
  varying k alignment.

Both use :func:`scipy.optimize.minimize_scalar` over a bounded range,
minimizing mean squared relative latency error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np
from scipy import optimize

from repro.engine.core import default_engine
from repro.engine.vectorized import shape_array
from repro.errors import CalibrationError
from repro.gpu import alignment
from repro.gpu.specs import GPUSpec, get_gpu
from repro.observability.metrics import metrics as _metrics
from repro.observability.tracing import span as _span
from repro.resilience.faults import fault_site
from repro.types import DType

if TYPE_CHECKING:
    from repro.resilience.checkpoint import SweepJournal


@dataclass(frozen=True)
class MeasuredGemm:
    """One measured kernel: shape plus observed latency."""

    m: int
    n: int
    k: int
    latency_s: float
    batch: int = 1

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k, self.batch) <= 0 or self.latency_s <= 0:
            raise CalibrationError(f"invalid measurement {self}")


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted constant plus goodness of fit.

    ``value`` is the fitted constant itself (a dimensionless fraction
    for both knobs); ``rms_rel_error`` is the root-mean-square relative
    latency error at that value.
    """

    name: str
    value: float
    rms_rel_error: float
    samples: int


def _sample_shapes(samples: Sequence[MeasuredGemm]) -> np.ndarray:
    return shape_array(
        [s.m for s in samples],
        [s.n for s in samples],
        [s.k for s in samples],
        [s.batch for s in samples],
    )


def _rel_errors(
    samples: Sequence[MeasuredGemm],
    spec: GPUSpec,
    dtype: "str | DType",
    bw_efficiency: "float | None" = None,
) -> np.ndarray:
    """Relative latency error of the model on each measurement.

    Predictions go through the engine batch path: each candidate
    constant the optimizer probes is one cached batch evaluation (the
    cache key folds in ``bw_efficiency`` and the live alignment
    constants, so probes never collide).
    """
    kwargs = {} if bw_efficiency is None else {"bw_efficiency": float(bw_efficiency)}
    predicted = default_engine().latency(
        _sample_shapes(samples), spec, dtype, **kwargs
    )
    measured = np.array([s.latency_s for s in samples])
    return (predicted - measured) / measured


def fit_bw_efficiency(
    samples: Sequence[MeasuredGemm],
    gpu: "str | GPUSpec" = "A100",
    dtype: "str | DType" = DType.FP16,
    bounds: "tuple[float, float]" = (0.4, 1.0),
) -> CalibrationResult:
    """Fit the sustained-bandwidth fraction from measured latencies."""
    if len(samples) < 2:
        raise CalibrationError("need at least 2 samples to fit bw efficiency")
    spec = get_gpu(gpu)

    def loss(bw_eff: float) -> float:
        return float(
            np.mean(_rel_errors(samples, spec, dtype, bw_efficiency=bw_eff) ** 2)
        )

    res = optimize.minimize_scalar(loss, bounds=bounds, method="bounded")
    if not res.success:  # pragma: no cover - bounded method always succeeds
        raise CalibrationError(f"bw fit failed: {res.message}")
    return CalibrationResult(
        name="bw_efficiency",
        value=float(res.x),
        rms_rel_error=float(np.sqrt(res.fun)),
        samples=len(samples),
    )


def fit_efficiency_floor(
    samples: Sequence[MeasuredGemm],
    gpu: "str | GPUSpec" = "A100",
    dtype: "str | DType" = DType.FP16,
    bounds: "tuple[float, float]" = (0.2, 0.95),
) -> CalibrationResult:
    """Fit the alignment-efficiency floor (_EFF_AT_MIN) from samples.

    Temporarily overrides the module constant during the search and
    restores it afterwards; the returned value can then be applied by
    the caller if desired.
    """
    if len(samples) < 2:
        raise CalibrationError("need at least 2 samples to fit the floor")
    spec = get_gpu(gpu)
    original = alignment._EFF_AT_MIN

    def loss(floor: float) -> float:
        alignment._EFF_AT_MIN = float(floor)
        try:
            return float(np.mean(_rel_errors(samples, spec, dtype) ** 2))
        finally:
            alignment._EFF_AT_MIN = original

    try:
        res = optimize.minimize_scalar(loss, bounds=bounds, method="bounded")
    finally:
        alignment._EFF_AT_MIN = original
    return CalibrationResult(
        name="alignment_efficiency_floor",
        value=float(res.x),
        rms_rel_error=float(np.sqrt(res.fun)),
        samples=len(samples),
    )


#: The named fits run_calibration performs, in order.
_FITTERS = {
    "bw_efficiency": fit_bw_efficiency,
    "alignment_efficiency_floor": fit_efficiency_floor,
}


def run_calibration(
    samples: Sequence[MeasuredGemm],
    gpu: "str | GPUSpec" = "A100",
    dtype: "str | DType" = DType.FP16,
    journal: Optional["SweepJournal"] = None,
) -> List[CalibrationResult]:
    """Run every constant fit, checkpointing each completed fit.

    Each fitter is one unit of work in the ``journal``
    (:class:`repro.resilience.checkpoint.SweepJournal`): a calibration
    run killed between fits and re-invoked with the same journal skips
    the fits already recorded and reconstructs their
    :class:`CalibrationResult` from the checkpoint payload.
    """
    results: List[CalibrationResult] = []
    done: Dict[str, Dict] = {}
    if journal is not None:
        for entry in journal.entries():
            if entry.get("status") == "ok" and entry.get("id") in _FITTERS:
                done[entry["id"]] = entry.get("payload", {})
    for name, fitter in _FITTERS.items():
        if name in done:
            payload = done[name]
            results.append(
                CalibrationResult(
                    name=name,
                    value=float(payload["value"]),
                    rms_rel_error=float(payload["rms_rel_error"]),
                    samples=int(payload["samples"]),
                )
            )
            continue
        with _span("calibration.fit", fit=name, gpu=str(gpu)) as sp:
            fault_site("calibration.fit", fit=name, gpu=str(gpu))
            result = fitter(samples, gpu=gpu, dtype=dtype)
            sp.set(
                value=result.value,
                rms_rel_error=result.rms_rel_error,
                samples=result.samples,
            )
            _metrics().counter("calibration.fits").inc()
        if journal is not None:
            journal.record(
                name,
                "ok",
                payload={
                    "value": result.value,
                    "rms_rel_error": result.rms_rel_error,
                    "samples": result.samples,
                },
            )
        results.append(result)
    return results


def synthetic_samples(
    gpu: "str | GPUSpec" = "A100",
    dtype: "str | DType" = DType.FP16,
    noise: float = 0.0,
    seed: int = 0,
) -> List[MeasuredGemm]:
    """Generate self-consistent 'measurements' from the model itself.

    Used by tests (fitters must recover the generating constants) and
    by the quickstart example as a stand-in for profiler output.
    """
    rng = np.random.default_rng(seed)
    shapes = [
        (8192, 4096, 4096),
        (8192, 10240, 2560),
        (4096, 4096, 64),
        (2048, 2048, 80),
        (8192, 2560, 2560),
        (1024, 1024, 1024),
        (8192, 50304, 2560),
    ]
    latencies = default_engine().latency(
        shape_array([m for m, _, _ in shapes], [n for _, n, _ in shapes],
                    [k for _, _, k in shapes]),
        get_gpu(gpu),
        dtype,
    )
    out = []
    for (m, n, k), latency in zip(shapes, latencies):
        jitter = 1.0 + noise * float(rng.standard_normal())
        out.append(
            MeasuredGemm(m=m, n=n, k=k, latency_s=float(latency) * max(jitter, 0.1))
        )
    return out
