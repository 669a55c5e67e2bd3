"""Vectorized + memoized shape-evaluation engine.

- :mod:`repro.engine.vectorized` — :func:`shape_array`,
  ``evaluate_batch`` and ``BatchResult``: batched evaluation of
  ``(batch, m, n, k)`` shape arrays, bit-for-bit equal to the scalar
  :class:`repro.gpu.gemm_model.GemmModel`.
- :mod:`repro.engine.grid` — ``ShapeGrid`` / ``GridResult``,
  structure-of-arrays grids: whole sweeps evaluated as one ufunc chain
  via :meth:`ShapeEngine.evaluate_grid`, columnar from expansion to
  materialization.
- :mod:`repro.engine.core` — :class:`ShapeEngine` /
  :func:`default_engine`, the cached front door (in-memory LRU +
  optional mmap-shared on-disk store).
- :mod:`repro.engine.cache` — cache primitives and the global scalar
  memo that ``GemmModel`` consults.

This package re-exports only :class:`ShapeEngine`,
:func:`default_engine`, :func:`reset_default_engine` and
:func:`shape_array`; import anything else from its defining module.
The parity check against ``GemmModel`` lives in
:mod:`repro.harness.bench`.
"""

from repro.engine.core import ShapeEngine, default_engine, reset_default_engine
from repro.engine.vectorized import shape_array

__all__ = ["ShapeEngine", "default_engine", "reset_default_engine", "shape_array"]
