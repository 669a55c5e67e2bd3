"""GPU architecture parameter sheets.

Each :class:`GPUSpec` captures the handful of microarchitectural numbers
that determine GEMM performance shape in the paper's analysis:

- ``num_sms`` — wave quantization granularity (Sec III-B: 80 on V100,
  108 on A100, 144 on H100),
- ``tc_align_bytes`` — the byte multiple at which Tensor Cores reach
  full utilization (16 B on V100, 128 B on A100/H100 per Sec III-B),
- peak matrix-unit and vector-unit throughput per dtype,
- memory bandwidth and L2 capacity for the roofline / reuse model,
- shared memory and register file sizes for the occupancy model.

Peak numbers are the public dense (non-sparsity) datasheet figures.
Absolute values only set the y-axis scale of reproduced figures; the
*shape* of every result comes from the structural fields above.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Tuple

from repro.errors import GPUModelError
from repro.types import DType


def _fingerprint(spec: "GPUSpec") -> Tuple[Any, ...]:
    """Every field of ``spec`` as a hashable tuple, dicts flattened by key."""
    out = []
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, dict):
            value = tuple(
                sorted((getattr(k, "name", k), v) for k, v in value.items())
            )
        out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class GPUSpec:
    """Parameter sheet for one GPU (or one GCD of a dual-die GPU)."""

    name: str
    vendor: str
    num_sms: int
    clock_ghz: float
    #: Peak matrix-engine (Tensor Core / Matrix Core) TFLOP/s per dtype.
    matrix_tflops: Dict[DType, float]
    #: Peak vector-unit (CUDA core / SIMD) TFLOP/s per dtype, used when a
    #: GEMM cannot be mapped onto the matrix engines at all.
    vector_tflops: Dict[DType, float]
    #: Datasheet DRAM bandwidth in GB/s.
    mem_bw_gbs: float
    l2_bytes: int
    smem_per_sm_bytes: int
    regs_per_sm: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    #: Dimension-size multiple (in bytes) for full Tensor Core
    #: utilization.  Paper Sec III-B: 16 bytes on V100, 128 bytes on A100.
    tc_align_bytes: int
    #: Minimum dimension multiple (bytes) for Tensor Cores to be usable
    #: at all without padding (the MMA instruction granularity).
    tc_min_bytes: int = 16
    #: Fixed kernel launch + epilogue overhead in seconds.
    kernel_overhead_s: float = 4.0e-6
    memory_gb: float = 40.0

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise GPUModelError(f"{self.name}: num_sms must be positive")
        if self.mem_bw_gbs <= 0:
            raise GPUModelError(f"{self.name}: mem_bw_gbs must be positive")
        if self.tc_min_bytes > self.tc_align_bytes:
            raise GPUModelError(
                f"{self.name}: tc_min_bytes ({self.tc_min_bytes}) exceeds "
                f"tc_align_bytes ({self.tc_align_bytes})"
            )
        # The engine's cache-key fingerprint (``repro.engine.cache.spec_key``),
        # computed once: a frozen spec never changes, so every lookup can
        # reuse it instead of re-flattening the per-dtype dicts.
        object.__setattr__(self, "_fingerprint", _fingerprint(self))

    # -- throughput lookups -------------------------------------------------

    def matrix_peak_tflops(self, dtype: DType) -> float:
        """Peak matrix-engine TFLOP/s for ``dtype``.

        Raises :class:`GPUModelError` if this architecture has no matrix
        path for the dtype (e.g. FP64 tensor cores on V100).
        """
        try:
            return self.matrix_tflops[dtype]
        except KeyError:
            raise GPUModelError(
                f"{self.name} has no matrix-engine path for {dtype.name}"
            ) from None

    def vector_peak_tflops(self, dtype: DType) -> float:
        """Peak vector-unit TFLOP/s for ``dtype``."""
        try:
            return self.vector_tflops[dtype]
        except KeyError:
            raise GPUModelError(
                f"{self.name} has no vector-unit rate for {dtype.name}"
            ) from None

    def supports_matrix(self, dtype: DType) -> bool:
        """Whether the matrix engines can compute in ``dtype`` at all."""
        return dtype in self.matrix_tflops

    def mem_bw_bytes_per_s(self) -> float:
        """DRAM bandwidth in bytes/second."""
        return self.mem_bw_gbs * 1e9

    # -- alignment in elements ----------------------------------------------

    def tc_align_elems(self, dtype: DType) -> int:
        """Elements per dimension for *full* Tensor Core efficiency.

        128 bytes / 2 bytes = 64 FP16 elements on A100 (paper Sec VI-B).
        """
        return max(1, self.tc_align_bytes // dtype.bytes)

    def tc_min_elems(self, dtype: DType) -> int:
        """Elements per dimension for Tensor Cores to be usable at all."""
        return max(1, self.tc_min_bytes // dtype.bytes)

    def with_overrides(self, **kwargs) -> "GPUSpec":
        """Return a copy of this spec with the given fields replaced."""
        return replace(self, **kwargs)


def _nv(name: str, **kw) -> GPUSpec:
    return GPUSpec(name=name, vendor="NVIDIA", **kw)


# Registry of known architectures.  MI250X is modeled per-GCD (one die of
# the dual-die package) since each GCD is scheduled independently, which
# is also how per-GPU workloads see it under ROCm.
_REGISTRY: Dict[str, GPUSpec] = {}


def register_gpu(spec: GPUSpec, *, aliases: Tuple[str, ...] = ()) -> None:
    """Add a spec to the global registry under its name and aliases."""
    _REGISTRY[spec.name.lower()] = spec
    for alias in aliases:
        _REGISTRY[alias.lower()] = spec


register_gpu(
    _nv(
        "V100",
        num_sms=80,
        clock_ghz=1.53,
        matrix_tflops={DType.FP16: 112.0},
        vector_tflops={
            DType.FP32: 15.7,
            DType.FP16: 31.4,
            DType.FP64: 7.8,
            DType.BF16: 15.7,
        },
        mem_bw_gbs=900.0,
        l2_bytes=6 * 1024 * 1024,
        smem_per_sm_bytes=96 * 1024,
        regs_per_sm=65536,
        max_threads_per_sm=2048,
        max_blocks_per_sm=32,
        tc_align_bytes=16,
        tc_min_bytes=16,
        memory_gb=16.0,
    ),
    aliases=("v100-16gb", "v100-sxm2"),
)

register_gpu(
    get_spec := _nv(
        "A100",
        num_sms=108,
        clock_ghz=1.41,
        matrix_tflops={
            DType.FP16: 312.0,
            DType.BF16: 312.0,
            DType.TF32: 156.0,
            DType.FP64: 19.5,
            DType.INT8: 624.0,
        },
        vector_tflops={
            DType.FP32: 19.5,
            DType.FP16: 78.0,
            DType.BF16: 39.0,
            DType.FP64: 9.7,
        },
        mem_bw_gbs=1555.0,
        l2_bytes=40 * 1024 * 1024,
        smem_per_sm_bytes=164 * 1024,
        regs_per_sm=65536,
        max_threads_per_sm=2048,
        max_blocks_per_sm=32,
        tc_align_bytes=128,
        tc_min_bytes=16,
        memory_gb=40.0,
    ),
    aliases=("a100-40gb", "a100-sxm4"),
)

register_gpu(
    get_spec.with_overrides(name="A100-80GB", mem_bw_gbs=2039.0, memory_gb=80.0),
    aliases=("a100-80",),
)

register_gpu(
    _nv(
        "H100",
        # The paper's wave-quantization rule uses 144 SMs for H100
        # (Sec VI-B); we follow the paper.
        num_sms=144,
        clock_ghz=1.83,
        matrix_tflops={
            DType.FP16: 989.0,
            DType.BF16: 989.0,
            DType.TF32: 494.0,
            DType.FP64: 67.0,
            DType.INT8: 1979.0,
        },
        vector_tflops={
            DType.FP32: 67.0,
            DType.FP16: 134.0,
            DType.BF16: 134.0,
            DType.FP64: 34.0,
        },
        mem_bw_gbs=3350.0,
        l2_bytes=50 * 1024 * 1024,
        smem_per_sm_bytes=228 * 1024,
        regs_per_sm=65536,
        max_threads_per_sm=2048,
        max_blocks_per_sm=32,
        tc_align_bytes=128,
        tc_min_bytes=16,
        memory_gb=80.0,
    ),
    aliases=("h100-sxm5", "h100-80gb"),
)

register_gpu(
    GPUSpec(
        name="MI250X",
        vendor="AMD",
        # One GCD: 104 active CUs.
        num_sms=104,
        clock_ghz=1.7,
        matrix_tflops={
            DType.FP16: 191.5,
            DType.BF16: 191.5,
            DType.FP32: 47.9,
            DType.FP64: 47.9,
        },
        vector_tflops={
            DType.FP32: 23.9,
            DType.FP16: 47.9,
            DType.BF16: 23.9,
            DType.FP64: 23.9,
        },
        mem_bw_gbs=1638.0,
        l2_bytes=8 * 1024 * 1024,
        smem_per_sm_bytes=64 * 1024,
        regs_per_sm=65536,
        max_threads_per_sm=2048,
        max_blocks_per_sm=32,
        # MFMA instructions want multiples of 32 bytes (16 fp16 elems);
        # full efficiency at 64-element multiples like CDNA2 docs suggest.
        tc_align_bytes=128,
        tc_min_bytes=32,
        memory_gb=64.0,
    ),
    aliases=("mi250x-gcd", "mi250"),
)


def get_gpu(name: "str | GPUSpec") -> GPUSpec:
    """Look up a GPU spec by (case-insensitive) name or pass one through."""
    if isinstance(name, GPUSpec):
        return name
    try:
        return _REGISTRY[str(name).strip().lower()]
    except KeyError:
        known = ", ".join(sorted({s.name for s in _REGISTRY.values()}))
        raise GPUModelError(f"unknown GPU {name!r}; known: {known}") from None


def list_gpus() -> Tuple[GPUSpec, ...]:
    """All distinct registered GPU specs, sorted by name."""
    seen = {}
    for spec in _REGISTRY.values():
        seen[spec.name] = spec
    return tuple(sorted(seen.values(), key=lambda s: s.name))
