"""SwiGLU intermediate-size search (paper Sec VII-B).

SwiGLU's nominal ``d_ff = 8h/3`` destroys the alignment a well-chosen
``h`` bought: for h=4096 it suggests 10922.67, and rounding to 10923
leaves an odd dimension in every MLP GEMM.  The fix the paper walks
through is to treat 8/3 as a suggestion and brute-force nearby sizes;
Llama-2-7B's published 11008 (= 2^8 * 43) comes out "one of the best
performing sizes in its range".

:func:`swiglu_intermediate_search` scores each candidate by the full
SwiGLU MLP block latency (gate + up + down GEMMs) on the target GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.autotune.search import SearchResult, search_dimension
from repro.engine.core import default_engine
from repro.engine.vectorized import shape_array
from repro.errors import ConfigError
from repro.gpu.alignment import largest_pow2_divisor
from repro.gpu.specs import GPUSpec
from repro.types import DType

#: Llama-2 published intermediate sizes (h -> d_ff), for reference.
LLAMA2_CHOICES = {4096: 11008, 8192: 28672}


@dataclass(frozen=True)
class SwiGLUCandidate:
    """One intermediate size with its block latency and alignment.

    ``coefficient`` is d_ff expressed as a multiple of h (SwiGLU's
    nominal 8/3); ``percentile`` is the fraction of the candidate range
    this latency beats (0..1).
    """

    d_ff: int
    latency_s: float
    percentile: float
    pow2: int
    coefficient: float

    def describe(self) -> str:
        return (
            f"d_ff={self.d_ff} ({self.coefficient:.4f}h, pow2 {self.pow2}): "
            f"{self.latency_s * 1e6:.1f} us, beats {100 * self.percentile:.0f}% "
            "of range"
        )


def swiglu_intermediate_search(
    h: int,
    gpu: "str | GPUSpec" = "A100",
    dtype: "str | DType" = DType.FP16,
    tokens: int = 8192,
    window: float = 0.08,
    step: int = 1,
    tp_degree: int = 1,
    must_include: "Optional[List[int]]" = None,
) -> List[SwiGLUCandidate]:
    """Rank intermediate sizes within ``±window`` of the nominal 8h/3.

    Returns candidates best-first.  ``step=1`` performs the paper's
    full brute force; coarser steps (e.g. 64) prescreen.
    """
    if not (0 < window < 1):
        raise ConfigError(f"window must be in (0,1), got {window}")
    nominal = 8 * h / 3
    lo = max(tp_degree, int(nominal * (1 - window)))
    # Snap the grid origin to the step so a coarse prescreen samples
    # alignment classes (an odd origin would make every point odd).
    lo -= lo % step
    hi = int(nominal * (1 + window))
    include = list(must_include or [])
    if h in LLAMA2_CHOICES and lo <= LLAMA2_CHOICES[h] <= hi:
        include.append(LLAMA2_CHOICES[h])

    # Rank by per-FLOP latency (inverse throughput): candidates differ
    # in width and therefore in useful work, so raw latency would bias
    # the ranking toward the narrowest sizes rather than the
    # "high-performance GEMMs" the paper asks for.  The whole candidate
    # range is evaluated in two engine batches (up and down GEMMs);
    # per-candidate block latencies are kept for the result records.
    block_latency: dict = {}

    def batch_per_flop(values: "List[int]") -> "np.ndarray":
        engine = default_engine()
        vals = np.asarray(values, dtype=np.int64)
        shards = vals // tp_degree
        up = engine.latency(shape_array(tokens, shards, h), gpu, dtype)
        down = engine.latency(shape_array(tokens, h, shards), gpu, dtype)
        lat = 2 * up + down
        block_latency.update(zip(values, lat.tolist()))
        flops = 2 * (3 * tokens * h * vals)
        return lat / flops

    results = search_dimension(
        None,
        lo,
        hi,
        step=step,
        must_include=include,
        constraint=lambda d: d % tp_degree == 0,
        batch_latency_fn=batch_per_flop,
    )
    return [_to_candidate(res, h, block_latency[res.value]) for res in results]


def _to_candidate(res: SearchResult, h: int, latency_s: float) -> SwiGLUCandidate:
    return SwiGLUCandidate(
        d_ff=res.value,
        latency_s=latency_s,
        percentile=res.percentile,
        pow2=largest_pow2_divisor(res.value),
        coefficient=res.value / h,
    )


def candidate_for(
    candidates: List[SwiGLUCandidate], d_ff: int
) -> SwiGLUCandidate:
    """Find a specific intermediate size in the ranked results."""
    for cand in candidates:
        if cand.d_ff == d_ff:
            return cand
    raise ConfigError(f"d_ff {d_ff} was not in the searched range")
