"""Statistics shared by every workload: the percentile rule, open-loop
due-time accounting, and the metric-name check.

Kept free of any ``repro`` import so the self-tests run without the
package on the path.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence

#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Stand-in, in milliseconds, for a refused or failed request: above
#: any latency limit, yet a finite number so the result stays JSON.
MISS_MS = 1e9

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def valid_metric_name(name: str) -> bool:
    return len(name) <= 64 and METRIC_NAME.fullmatch(name) is not None


def _rank(n: int, q: float) -> int:
    # Round first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(q * n / 100.0, 6)))


def percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of an ascending sequence."""
    if not sorted_vals:
        raise ValueError("percentile of no samples")
    return sorted_vals[_rank(len(sorted_vals), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly past the nearest-rank ``q`` percentile of ``n``."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with >= MIN_BEYOND samples past it."""
    for q in TAIL_LADDER:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """Median and the supported tail of a sample, with its count."""
    vals = sorted(values)
    out: Dict[str, float] = {"n": len(vals)}
    if not vals:
        return out
    out["p50"] = percentile(vals, 50.0)
    q = tail_percentile(len(vals))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(vals, q)
    return out


def due_latencies_ms(
    due: Sequence[float],
    done: Sequence[Optional[float]],
    ok: Sequence[bool],
) -> List[float]:
    """Open-loop latency of every request, timed from when it was due.

    ``due[i]`` is when request ``i`` should have been sent, ``done[i]``
    when its reply arrived (``None``: never), ``ok[i]`` whether the
    reply was a served answer.  A request that was refused, failed or
    never answered counts as :data:`MISS_MS`, above any limit.  Timing
    from the due time (not the send time) charges a stall to every
    request queued behind it.
    """
    out = []
    for d, t, good in zip(due, done, ok):
        out.append((t - d) * 1e3 if good and t is not None else MISS_MS)
    return out


def window_counts(
    done: Sequence[Optional[float]], start: float, end: float, window: float
) -> List[int]:
    """Completions in each whole ``window``-second slice of [start, end)."""
    n = int((end - start) / window)
    counts = [0] * n
    for t in done:
        if t is not None and start <= t < start + n * window:
            counts[int((t - start) / window)] += 1
    return counts
