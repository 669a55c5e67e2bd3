"""Matmul operation tracing.

The paper's entire analysis rests on one mapping: *which GEMMs does a
transformer layer actually execute* (Table II).  Rather than trusting a
hand-derived table, the NumPy transformer routes every matrix
multiplication through :meth:`OpTrace.matmul` / :meth:`OpTrace.bmm`,
recording the executed shapes.  Tests then diff the recorded shapes
against the analytical mapping, making the Table II reproduction
self-verifying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import ShapeError

#: Arithmetic cost of one mixed-precision Adam update per parameter:
#: two moment EMAs (4 flops), bias corrections (2), sqrt + divide +
#: epsilon (3), the master-weight update (2), and the fp16 cast (1).
#: The update is bandwidth-bound in practice (see
#: :meth:`repro.trainstep.step.TrainStepEstimator.optimizer_cost`); this
#: constant exists so a *flop* conservation law can cover the whole
#: step, optimizer included.
ADAM_FLOPS_PER_PARAM = 12

#: Suffixes of backward-pass records derived from a forward matmul.
BACKWARD_SUFFIXES = (".dgrad", ".wgrad")


@dataclass(frozen=True)
class MatmulRecord:
    """One executed (batched) matrix multiplication.

    ``batch == 1`` denotes a plain GEMM.  Shapes follow BLAS convention:
    the operation was ``batch x [(m, k) @ (k, n)]``.
    """

    module: str
    m: int
    k: int
    n: int
    batch: int = 1

    @property
    def flops(self) -> int:
        """Multiply-add operation count (2 * b * m * n * k)."""
        return 2 * self.batch * self.m * self.n * self.k

    @property
    def is_bmm(self) -> bool:
        return self.batch > 1

    @property
    def phase(self) -> str:
        """``"forward"`` or ``"backward"`` (by module-label suffix)."""
        return (
            "backward"
            if self.module.endswith(BACKWARD_SUFFIXES)
            else "forward"
        )

    @property
    def base_module(self) -> str:
        """The forward module label, with any ``.dgrad``/``.wgrad``
        suffix stripped."""
        for suffix in BACKWARD_SUFFIXES:
            if self.module.endswith(suffix):
                return self.module[: -len(suffix)]
        return self.module

    def shape_tuple(self) -> Tuple[int, int, int, int]:
        """(batch, m, k, n) for order-insensitive comparisons."""
        return (self.batch, self.m, self.k, self.n)

    def backward_pair(self) -> Tuple["MatmulRecord", "MatmulRecord"]:
        """The two backward matmuls this forward matmul induces.

        For ``y = x @ W`` with x: (m, k) and W: (k, n)::

            dgrad:  dx = dy @ W^T   — (m, n) x (n, k)
            wgrad:  dW = x^T @ dy   — (k, m) x (m, n)

        Each has exactly this record's FLOP count — the standard
        "backward costs 2x forward" identity, derived mechanically so
        the trace never needs to execute a backward pass to price one.
        Labels and orientations match both the analytic mapping
        (:func:`repro.core.gemms.backward_gemms_for`) and the traced
        NumPy backward (:mod:`repro.transformer.backward`).
        """
        return (
            MatmulRecord(
                module=f"{self.module}.dgrad",
                m=self.m,
                k=self.n,
                n=self.k,
                batch=self.batch,
            ),
            MatmulRecord(
                module=f"{self.module}.wgrad",
                m=self.k,
                k=self.m,
                n=self.n,
                batch=self.batch,
            ),
        )


class OpTrace:
    """Recorder and executor of traced matrix multiplications.

    Pass an instance to the transformer modules; afterwards inspect
    :attr:`records`, or aggregate with :meth:`flops` /
    :meth:`by_module`.  The trace executes the arithmetic itself (via
    :func:`numpy.matmul`) so recording cannot drift from computation.
    """

    def __init__(self) -> None:
        self.records: List[MatmulRecord] = []

    # -- executing + recording ---------------------------------------------

    def matmul(self, module: str, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """2-D GEMM ``x @ w`` with shape recording."""
        if x.ndim != 2 or w.ndim != 2:
            raise ShapeError(
                f"{module}: matmul expects 2-D operands, got {x.shape} @ {w.shape}"
            )
        if x.shape[1] != w.shape[0]:
            raise ShapeError(
                f"{module}: inner dims disagree: {x.shape} @ {w.shape}"
            )
        m, k = x.shape
        n = w.shape[1]
        self.records.append(MatmulRecord(module=module, m=m, k=k, n=n))
        return x @ w

    def bmm(self, module: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched GEMM ``a @ b`` for 3-D stacks with shape recording."""
        if a.ndim != 3 or b.ndim != 3:
            raise ShapeError(
                f"{module}: bmm expects 3-D operands, got {a.shape} @ {b.shape}"
            )
        if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
            raise ShapeError(f"{module}: bmm shapes disagree: {a.shape} @ {b.shape}")
        batch, m, k = a.shape
        n = b.shape[2]
        self.records.append(MatmulRecord(module=module, m=m, k=k, n=n, batch=batch))
        return np.matmul(a, b)

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[MatmulRecord]:
        return iter(self.records)

    def clear(self) -> None:
        self.records.clear()

    def flops(self) -> int:
        """Total multiply-add FLOPs across all recorded matmuls."""
        return sum(r.flops for r in self.records)

    # -- training-step derivation ---------------------------------------------

    def backward_records(self) -> List[MatmulRecord]:
        """The backward-pass matmuls this trace's records induce.

        Derived mechanically via :meth:`MatmulRecord.backward_pair`, in
        reverse execution order (backpropagation visits modules last to
        first).  Only forward records are expanded; records that already
        carry a ``.dgrad``/``.wgrad`` suffix are skipped, so calling
        this on a trace of a full training step does not derive
        second-order terms.
        """
        out: List[MatmulRecord] = []
        for rec in reversed(self.records):
            if rec.phase == "forward":
                out.extend(rec.backward_pair())
        return out

    def backward_flops(self) -> int:
        """FLOPs of the derived backward pass (= 2x forward exactly)."""
        return sum(r.flops for r in self.backward_records())

    def optimizer_flops(self, param_count: int) -> int:
        """Adam-update FLOPs for ``param_count`` learned parameters."""
        if param_count < 0:
            raise ShapeError(f"param_count must be >= 0, got {param_count}")
        return param_count * ADAM_FLOPS_PER_PARAM

    def training_flops(self, param_count: int) -> int:
        """Whole-step FLOPs: forward + derived backward + optimizer."""
        return (
            self.flops()
            + self.backward_flops()
            + self.optimizer_flops(param_count)
        )

    def by_module(self) -> Dict[str, List[MatmulRecord]]:
        """Records grouped by module label, preserving order."""
        groups: Dict[str, List[MatmulRecord]] = {}
        for rec in self.records:
            groups.setdefault(rec.module, []).append(rec)
        return groups

    def modules(self) -> List[str]:
        """Distinct module labels in first-appearance order."""
        seen: Dict[str, None] = {}
        for rec in self.records:
            seen.setdefault(rec.module)
        return list(seen)

    def to_columns(self) -> Dict[str, np.ndarray]:
        """Columnar export: module names + ``(N, 4)`` shape tuples.

        The SoA bridge for caching traced mappings (e.g. the Table II
        diff) in the engine's columnar memo: fixed-width string module
        labels and one int64 shape row per record, in trace order.
        """
        return {
            "module": np.array([r.module for r in self.records]),
            "shape": np.array(
                [r.shape_tuple() for r in self.records], dtype=np.int64
            ).reshape(-1, 4),
        }

    def training_columns(self) -> Dict[str, np.ndarray]:
        """Columnar export of the whole step: forward + derived backward.

        Like :meth:`to_columns` plus a ``phase`` column, with the
        mechanically-derived backward records appended after the
        recorded forward ones.  This is the bridge the training-step
        estimator (:mod:`repro.trainstep`) uses to price a traced model
        without executing its backward pass.
        """
        records = self.records + self.backward_records()
        return {
            "module": np.array([r.module for r in records]),
            "phase": np.array([r.phase for r in records]),
            "shape": np.array(
                [r.shape_tuple() for r in records], dtype=np.int64
            ).reshape(-1, 4),
        }

    def summary(self) -> str:
        """Human-readable per-module FLOP breakdown."""
        total = max(self.flops(), 1)
        lines = []
        for module, recs in self.by_module().items():
            fl = sum(r.flops for r in recs)
            lines.append(
                f"{module:<24} {len(recs):>3} matmuls  {fl:>16,} FLOPs  "
                f"({100.0 * fl / total:5.1f}%)"
            )
        return "\n".join(lines)


class NullTrace(OpTrace):
    """An :class:`OpTrace` that executes but does not record.

    Useful when the caller wants the traced code path without paying
    list-append overhead (e.g. in benchmarks of the NumPy forward).
    """

    def matmul(self, module: str, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return x @ w

    def bmm(self, module: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.matmul(a, b)
