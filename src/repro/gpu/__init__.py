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
- :mod:`repro.gpu.gemm_model` — analytic GEMM latency/throughput model,
- :mod:`repro.gpu.bmm_model` — the batched-GEMM (BMM) shape type.

Every microarchitectural effect the paper studies (Tensor Core
eligibility, tile quantization, wave quantization, memory-boundedness of
small GEMMs) is a deterministic function of the GEMM shape and the
architecture parameters, which is what makes a first-principles model a
faithful substitute for wall-clock measurement at the level of *figure
shape* (who wins, where the cliffs are).
"""

from repro.gpu.specs import GPUSpec, get_gpu, list_gpus, register_gpu
from repro.gpu.alignment import (
    largest_pow2_divisor,
    tensor_core_eligible,
    dim_efficiency,
    gemm_alignment_efficiency,
)
from repro.gpu.waves import (
    num_tiles,
    num_waves,
    wave_efficiency,
    tile_quantization_waste,
    wave_quantization_free,
)
from repro.gpu.tiles import TileConfig, candidate_tiles, select_tile
from repro.gpu.gemm_model import GemmModel, GemmPerf

__all__ = [
    "GPUSpec",
    "get_gpu",
    "list_gpus",
    "register_gpu",
    "largest_pow2_divisor",
    "tensor_core_eligible",
    "dim_efficiency",
    "gemm_alignment_efficiency",
    "num_tiles",
    "num_waves",
    "wave_efficiency",
    "tile_quantization_waste",
    "wave_quantization_free",
    "TileConfig",
    "candidate_tiles",
    "select_tile",
    "GemmModel",
    "GemmPerf",
]
