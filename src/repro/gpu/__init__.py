"""GPU performance-model substrate.

This package is the reproduction's stand-in for the silicon the paper
measured on (V100 / A100 / H100 / MI250X).  It contains:

- :mod:`repro.gpu.specs` — architecture parameter sheets,
- :mod:`repro.gpu.alignment` — Tensor Core alignment/efficiency rules,
- :mod:`repro.gpu.tiles` — thread-block tile candidates and selection,
- :mod:`repro.gpu.waves` — tile- and wave-quantization arithmetic,
- :mod:`repro.gpu.occupancy` — blocks-per-SM occupancy limits,
- :mod:`repro.gpu.roofline` — arithmetic intensity / bandwidth bounds,
- :mod:`repro.gpu.l2cache` — L2 reuse model for GEMM operand traffic,
- :mod:`repro.gpu.bmm_model` — the batched-GEMM (BMM) shape type,
- :mod:`repro.gpu.gemm_model` — the scalar analytic GEMM latency/
  throughput model.  It is the oracle the vectorized
  :mod:`repro.engine` is checked against and uses the engine's scalar
  memo, so it sits above the engine in the layer order (DESIGN.md,
  "Layers"); the rest of this package sits below it.

The package re-exports nothing: import from the defining module.

Every microarchitectural effect the paper studies (Tensor Core
eligibility, tile quantization, wave quantization, memory-boundedness of
small GEMMs) is a deterministic function of the GEMM shape and the
architecture parameters, which is what makes a first-principles model a
faithful substitute for wall-clock measurement at the level of *figure
shape* (who wins, where the cliffs are).
"""
