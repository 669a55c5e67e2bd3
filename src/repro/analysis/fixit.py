"""Engine-backed quantification of fix-it candidates.

Every shape-rule fix-it follows the same recipe (the paper's Sec VII-B
methodology, same spirit as tritonBLAS's analytical selection): build
the small set of GEMMs a config field influences, batch-evaluate the
whole candidate neighborhood through the memoized
:func:`repro.engine.default_engine` in ONE engine call, and rank
candidates by modeled latency rather than by divisibility alone.  This
module owns that recipe so each rule only describes its neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.core import default_engine
from repro.engine.vectorized import shape_array
from repro.errors import ConfigError

#: A GEMM as ``(m, n, k, batch)`` — the column order of
#: :func:`repro.engine.shape_array`.
GemmShape = Tuple[int, int, int, int]

#: Maps a candidate value to the GEMM set it induces.
ShapesFor = Callable[[int], Sequence[GemmShape]]


@dataclass(frozen=True)
class RankedCandidate:
    """One candidate value with its summed modeled latency (seconds)."""

    value: int
    latency_s: float


def modeled_latency(
    shapes: Sequence[GemmShape], gpu: str, dtype: str = "fp16"
) -> float:
    """Summed engine-modeled latency (seconds) of a GEMM set."""
    if not shapes:
        raise ConfigError("modeled_latency needs at least one GEMM shape")
    arr = shape_array(
        [s[0] for s in shapes],
        [s[1] for s in shapes],
        [s[2] for s in shapes],
        [s[3] for s in shapes],
    )
    return float(default_engine().latency(arr, gpu, dtype).sum())


def rank_candidates(
    candidates: Sequence[int],
    shapes_for: ShapesFor,
    gpu: str,
    dtype: str = "fp16",
) -> List[RankedCandidate]:
    """Batch-evaluate every candidate's GEMM set in one engine call.

    Returns candidates sorted best-first by summed modeled latency,
    ties broken by candidate value (smaller wins: less padding waste).
    All candidates' shapes are concatenated into a single array so the
    engine's batch path and its caches see one lookup, not N.
    """
    if not candidates:
        raise ConfigError("rank_candidates needs at least one candidate")
    per_candidate: List[Sequence[GemmShape]] = [shapes_for(v) for v in candidates]
    flat: List[GemmShape] = [s for group in per_candidate for s in group]
    arr = shape_array(
        [s[0] for s in flat],
        [s[1] for s in flat],
        [s[2] for s in flat],
        [s[3] for s in flat],
    )
    latency = default_engine().latency(arr, gpu, dtype)
    ranked: List[RankedCandidate] = []
    offset = 0
    for value, group in zip(candidates, per_candidate):
        span = len(group)
        total = float(np.sum(latency[offset : offset + span]))
        ranked.append(RankedCandidate(value=value, latency_s=total))
        offset += span
    return sorted(ranked, key=lambda c: (c.latency_s, c.value))


def best_candidate(
    candidates: Sequence[int],
    shapes_for: ShapesFor,
    gpu: str,
    dtype: str = "fp16",
) -> RankedCandidate:
    """The modeled-fastest candidate of a neighborhood."""
    return rank_candidates(candidates, shapes_for, gpu, dtype)[0]


def nearest_multiple(value: int, multiple: int, *, up_only: bool = False) -> int:
    """The multiple of ``multiple`` nearest to ``value`` (ties round up).

    ``up_only`` restricts to multiples >= value (vocabulary padding can
    only grow: shrinking would drop real tokens).
    """
    if multiple <= 0:
        raise ConfigError(f"multiple must be positive, got {multiple}")
    up = -(-value // multiple) * multiple
    if up_only:
        return up
    down = (value // multiple) * multiple
    if down <= 0:
        return up
    return down if value - down < up - value else up


def neighborhood_multiples(
    value: int, multiple: int, span: int = 4, *, up_only: bool = False
) -> List[int]:
    """Multiples of ``multiple`` bracketing ``value`` (``span`` each way).

    The engine ranks this neighborhood; :func:`nearest_multiple` is what
    a divisibility-only linter would suggest — comparing the two is
    exactly the "ranked by modeled latency, not just divisibility"
    contract.
    """
    center = nearest_multiple(value, multiple, up_only=up_only)
    lo = center - (0 if up_only else span * multiple)
    out = [
        v
        for v in range(max(multiple, lo), center + span * multiple + 1, multiple)
        if v > 0 and (not up_only or v >= value)
    ]
    if not out:
        out = [center]
    return out


def strictly_better(
    before_s: float, after_s: float, min_gain: float = 0.0
) -> Optional[float]:
    """Speedup if ``after`` beats ``before`` by more than ``min_gain``.

    Returns ``None`` when the candidate does not actually help — the
    caller then emits the diagnostic without a quantified fix-it rather
    than suggesting a change the model says is a wash.
    """
    if after_s <= 0 or before_s <= after_s * (1.0 + min_gain):
        return None
    return before_s / after_s
