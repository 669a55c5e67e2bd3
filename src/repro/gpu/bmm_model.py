"""Batched matrix multiplication (BMM) shapes.

The attention score (``KQ^T``) and attention-over-value computations are
BMMs of ``b*a/t`` independent small GEMMs (paper Eq. 1, Table II).  A
strided-batched kernel launches the union of the per-problem tile grids
as one grid, so the analytic GEMM model and the shape engine already
price it via their ``batch`` parameter; :class:`BmmShape` is the value
type the kernel experiments use to name such a batch (the Table II
mapping in :mod:`repro.core.gemms` writes it as a ``(batch, m, n, k)``
row).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShapeError
from repro.types import DType


@dataclass(frozen=True)
class BmmShape:
    """A batch of identical GEMM problems: batch x (m,k)x(k,n)."""

    batch: int
    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if min(self.batch, self.m, self.k, self.n) <= 0:
            raise ShapeError(f"BMM dims must be positive: {self}")

    @property
    def flops(self) -> int:
        return 2 * self.batch * self.m * self.n * self.k

    def bytes(self, dtype: DType) -> int:
        return self.batch * (self.m * self.k + self.k * self.n + self.m * self.n) * dtype.bytes
