"""Profile a recorded OpTrace with the GPU model.

:class:`~repro.transformer.trace.OpTrace` records what a NumPy model
*actually executed* — including the backward pass, tensor-parallel
shards, GQA widths, whatever the run did.  This module bridges that
record to the performance substrate: the trace's distinct matmul shapes
are priced in one shape-engine evaluation, producing the per-module
latency profile a GPU profiler (nsight) would show for the same
computation on real hardware.

This closes the loop the paper draws in Fig 2/11: from *executed
operations* to *modelled kernel time*, without trusting any hand-derived
mapping in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.engine.core import default_engine
from repro.engine.vectorized import shape_array
from repro.errors import ExperimentError
from repro.gpu.specs import GPUSpec, get_gpu
from repro.observability.metrics import metrics as _metrics
from repro.observability.tracing import span as _span
from repro.transformer.trace import OpTrace
from repro.types import DType, teraflops


@dataclass(frozen=True)
class ProfiledModule:
    """Aggregated modelled cost of one trace module label."""

    module: str
    calls: int
    flops: int
    latency_s: float

    @property
    def tflops(self) -> float:
        return teraflops(self.flops, self.latency_s) if self.latency_s else 0.0


class TraceProfiler:
    """Prices every matmul of an OpTrace on one GPU."""

    def __init__(
        self, gpu: "str | GPUSpec" = "A100", dtype: "str | DType" = DType.FP16
    ) -> None:
        self.spec = get_gpu(gpu)
        self.dtype = DType.parse(dtype)

    def _latencies(self, trace: OpTrace) -> Dict[tuple, float]:
        """Seconds per distinct ``(batch, m, k, n)`` shape of the trace.

        Identical shapes recur L times per trace, so each is priced
        once, all in one engine evaluation.
        """
        keys = list(dict.fromkeys(rec.shape_tuple() for rec in trace))
        batch, m, k, n = zip(*keys)
        latency = default_engine().latency(
            shape_array(m, n, k, batch), self.spec, self.dtype
        )
        return dict(zip(keys, latency.tolist()))

    def profile(self, trace: OpTrace) -> List[ProfiledModule]:
        """Aggregate the trace per module label, largest latency first."""
        if len(trace) == 0:
            raise ExperimentError("cannot profile an empty trace")
        latencies = self._latencies(trace)
        by_module: Dict[str, List] = {}
        for rec in trace:
            by_module.setdefault(rec.module, []).append(rec)
        agg: Dict[str, ProfiledModule] = {}
        for module, recs in by_module.items():
            # One span per priced module: the OpTrace -> GPU-model
            # bridge, carrying the *modelled* latency as an attribute
            # (the span's own duration is just pricing overhead).
            with _span("profile.module", module=module) as sp:
                latency = 0.0
                flops = 0
                for rec in recs:
                    latency += latencies[rec.shape_tuple()]
                    flops += rec.flops
                sp.set(
                    calls=len(recs), flops=flops, modelled_latency_s=latency
                )
                agg[module] = ProfiledModule(
                    module=module,
                    calls=len(recs),
                    flops=flops,
                    latency_s=latency,
                )
        _metrics().counter("profile.modules_priced").inc(len(by_module))
        return sorted(agg.values(), key=lambda p: -p.latency_s)

    def total_latency_s(self, trace: OpTrace) -> float:
        """Sum of all modelled kernel times (serial execution)."""
        return sum(p.latency_s for p in self.profile(trace))
