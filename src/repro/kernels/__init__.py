"""Kernel-parameter autotuning: tuned (tile, wave) tables per (GPU, dtype).

The engine answers "how fast is this shape"; this package answers the
inverse question a compiler or runtime asks per GEMM — *which kernel
parameters should run it* (the tritonBLAS direction, PAPERS.md).  The
pieces:

- :mod:`~repro.kernels.search` — batched analytical search: one SoA
  grid of tuning shapes priced under every candidate tile in one
  :meth:`~repro.engine.core.ShapeEngine.evaluate_tiles` evaluation,
  argmin across the candidate axis, bucketed into a lookup table.
- :mod:`~repro.kernels.table` — the versioned, checksummed JSON
  artifact (:class:`KernelTable`) those searches export, with an
  explanatory ranked diff (:func:`compare_tables`) for golden-drift
  gating.
- :mod:`~repro.kernels.registry` — :class:`KernelParamResolver`, the
  serving-side lookup: loaded tables first, deterministic analytical
  fallback on a miss.  ``repro serve`` answers ``kernel_params``
  queries through it on every transport.
- :mod:`~repro.kernels.wall` — the differential test wall: the tile
  sweep's candidate latencies must equal the scalar
  :class:`~repro.gpu.gemm_model.GemmModel` oracle's bit for bit, and
  tuned picks must agree with its exact-shape winner (top-1 floor).
"""
