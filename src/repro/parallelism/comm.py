"""Alpha-beta cost model for the collectives tensor parallelism needs.

Megatron-style tensor parallelism all-reduces the attention and MLP
outputs (two all-reduces per layer in forward).  We use the standard
ring-algorithm cost: for ``n`` ranks moving ``V`` bytes,

- all-reduce:  ``2 (n-1)/n * V / bw + 2 (n-1) * alpha``
- all-gather:  ``(n-1)/n * V / bw + (n-1) * alpha``

with ``alpha`` the per-hop latency and ``bw`` the per-link bandwidth of
the connecting interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ParallelismError


def _check(nbytes: float, ranks: int) -> None:
    if nbytes < 0:
        raise ParallelismError(f"message size must be non-negative: {nbytes}")
    if ranks < 1:
        raise ParallelismError(f"ranks must be >= 1: {ranks}")


def ring_allreduce_s(nbytes: float, ranks: int, bw_bytes_s: float, alpha_s: float) -> float:
    """Ring all-reduce latency in seconds (0 for a single rank)."""
    _check(nbytes, ranks)
    if ranks == 1:
        return 0.0
    return ring_allreduce_cost(nbytes, ranks, bw_bytes_s, alpha_s)


def ring_allreduce_cost(nbytes: Any, ranks: Any, bw_bytes_s: Any, alpha_s: Any) -> Any:
    """The unchecked ring all-reduce formula, for ``ranks >= 2``.

    Elementwise over NumPy arrays as well as scalars, so array callers
    (the planner's cell pass) share :func:`ring_allreduce_s`'s arithmetic.
    """
    steps = 2 * (ranks - 1)
    return steps * alpha_s + 2 * (ranks - 1) / ranks * nbytes / bw_bytes_s


def ring_allgather_s(nbytes: float, ranks: int, bw_bytes_s: float, alpha_s: float) -> float:
    """Ring all-gather latency in seconds for ``nbytes`` total output."""
    _check(nbytes, ranks)
    if ranks == 1:
        return 0.0
    steps = ranks - 1
    return steps * alpha_s + (ranks - 1) / ranks * nbytes / bw_bytes_s


def point_to_point_s(nbytes: float, bw_bytes_s: float, alpha_s: float) -> float:
    """Single point-to-point transfer (pipeline stage boundary)."""
    _check(nbytes, 1)
    return point_to_point_cost(nbytes, bw_bytes_s, alpha_s)


def point_to_point_cost(nbytes: Any, bw_bytes_s: Any, alpha_s: Any) -> Any:
    """The unchecked point-to-point formula, elementwise over arrays."""
    return alpha_s + nbytes / bw_bytes_s


@dataclass(frozen=True)
class CommModel:
    """Collective costs over one interconnect.

    Attributes
    ----------
    bw_bytes_s:
        Per-GPU effective link bandwidth (bytes/s).
    alpha_s:
        Per-message/hop latency in seconds.
    """

    bw_bytes_s: float
    alpha_s: float = 5.0e-6

    def allreduce(self, nbytes: float, ranks: int) -> float:
        return ring_allreduce_s(nbytes, ranks, self.bw_bytes_s, self.alpha_s)

    def allgather(self, nbytes: float, ranks: int) -> float:
        return ring_allgather_s(nbytes, ranks, self.bw_bytes_s, self.alpha_s)

    def send(self, nbytes: float) -> float:
        return point_to_point_s(nbytes, self.bw_bytes_s, self.alpha_s)
