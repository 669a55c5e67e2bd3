"""Analytic GEMM latency/throughput model.

This is the reproduction's replacement for timing cuBLAS kernels on real
GPUs.  For a (possibly batched) GEMM of shape ``(m, k) x (k, n)`` it
composes, from first principles:

1. **Tile selection** — cuBLAS-like argmin over kernel variants
   (:mod:`repro.gpu.tiles`), or a caller-pinned tile.
2. **Compute time** — waves of thread blocks across the SMs, where each
   (possibly partial) wave costs a full wave: this makes tile and wave
   quantization *emergent* rather than bolted on.
3. **Alignment efficiency** — the Tensor Core pow-2 divisibility curve
   (:mod:`repro.gpu.alignment`) degrades the sustained math rate, and a
   softer version of the same curve degrades achievable bandwidth
   (misaligned leading dimensions defeat vectorized 16-byte copies).
4. **Memory time** — modelled DRAM traffic with L2 reuse
   (:mod:`repro.gpu.l2cache`) over the effective bandwidth.
5. **Fixed kernel overhead** — launch + epilogue, which dominates
   tiny GEMMs and decode-time GEMVs.

Latency is ``max(compute, memory) + overhead`` and throughput is the
*useful* FLOPs (2·b·m·n·k) over that latency, so quantization waste
shows up as reduced TFLOP/s exactly as it does on hardware.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.engine import cache as engine_cache
from repro.engine.vectorized import BatchResult
from repro.errors import GPUModelError, ShapeError
from repro.gpu import waves as wv
from repro.gpu.alignment import gemm_alignment_efficiency, tensor_core_eligible
from repro.gpu.l2cache import effective_dram_bytes
from repro.gpu.occupancy import blocks_per_sm
from repro.gpu.roofline import gemm_flops
from repro.gpu.specs import GPUSpec, get_gpu
from repro.gpu.tiles import TileConfig, candidate_tiles, select_tile
from repro.types import DType, TimeEstimate, teraflops

# Fraction of datasheet DRAM bandwidth a well-tuned kernel achieves.
_BW_EFFICIENCY = 0.82


def _memory_parallelism(blocks: int, num_sms: int, wave_eff: float) -> float:
    """Bandwidth utilization factor from thread-block occupancy.

    Multi-wave grids run at their wave efficiency (the tail wave has
    only ``tail/num_sms`` of the SMs issuing loads for the same wave
    duration); sub-wave grids saturate DRAM sub-linearly in occupancy.
    """
    if blocks >= num_sms:
        return wave_eff
    return (blocks / num_sms) ** 0.35


@dataclass(frozen=True)
class GemmPerf:
    """Full performance report for one (batched) GEMM evaluation.

    ``tile_waste`` is the fraction of launched tile area outside the
    problem (0 = perfect edge fit).
    """

    m: int
    n: int
    k: int
    batch: int
    dtype: DType
    gpu: str
    tile: TileConfig
    blocks: int
    blocks_per_sm: int
    waves: int
    time: TimeEstimate
    flops: int
    dram_bytes: float
    alignment_eff: float
    wave_eff: float
    tile_waste: float
    used_matrix_engine: bool

    @classmethod
    def from_batch(cls, result: BatchResult, i: int) -> "GemmPerf":
        """The scalar report for row ``i`` of an engine batch result."""
        b, m, n, k = (int(v) for v in result.shapes[i])
        return cls(
            m=m,
            n=n,
            k=k,
            batch=b,
            dtype=result.dtype,
            gpu=result.gpu,
            tile=result.tile(i),
            blocks=int(result.blocks[i]),
            blocks_per_sm=int(result.blocks_per_sm[i]),
            waves=int(result.waves[i]),
            time=TimeEstimate(
                total_s=float(result.latency_s[i]),
                compute_s=float(result.compute_s[i]),
                memory_s=float(result.memory_s[i]),
                overhead_s=result.overhead_s,
            ),
            flops=int(result.flops[i]),
            dram_bytes=float(result.dram_bytes[i]),
            alignment_eff=float(result.alignment_eff[i]),
            wave_eff=float(result.wave_eff[i]),
            tile_waste=float(result.tile_waste[i]),
            used_matrix_engine=bool(result.used_matrix_engine[i]),
        )

    @property
    def latency_s(self) -> float:
        return self.time.total_s

    @property
    def tflops(self) -> float:
        """Useful-FLOPs throughput in TFLOP/s."""
        return teraflops(self.flops, self.time.total_s)

    @property
    def bound(self) -> str:
        return self.time.bound

    def describe(self) -> str:
        """One-line human summary."""
        shape = f"{self.batch}x" if self.batch > 1 else ""
        return (
            f"GEMM {shape}({self.m}x{self.k})x({self.k}x{self.n}) on {self.gpu}: "
            f"{self.tflops:.1f} TFLOP/s ({self.bound}-bound, tile {self.tile.name}, "
            f"{self.waves} waves, align eff {self.alignment_eff:.2f})"
        )


class GemmModel:
    """Analytic performance model of GEMM kernels on one GPU.

    Parameters
    ----------
    gpu:
        A :class:`~repro.gpu.specs.GPUSpec` or registered name
        (``"A100"``, ``"V100"``, ``"H100"``, ``"MI250X"``).
    dtype:
        Element type of the GEMM operands (default FP16, the paper's
        setting).
    tile:
        Pin a specific tile (exposes raw quantization, Fig 5b).  When
        ``None`` the model auto-selects like the cuBLAS heuristic
        (Fig 5c).
    bw_efficiency:
        Fraction of datasheet bandwidth achievable; default 0.82.
    """

    def __init__(
        self,
        gpu: "str | GPUSpec",
        dtype: "str | DType" = DType.FP16,
        tile: Optional[TileConfig] = None,
        candidates: Optional[Sequence[TileConfig]] = None,
        bw_efficiency: float = _BW_EFFICIENCY,
    ) -> None:
        self.spec = get_gpu(gpu)
        self.dtype = DType.parse(dtype)
        self.fixed_tile = tile
        self.candidates = tuple(candidates) if candidates is not None else None
        if (
            self.fixed_tile is None
            and self.candidates is not None
            and self.candidates == tuple(candidate_tiles(self.spec, self.dtype))
        ):
            # Spelling out the default pool is the same policy as "auto":
            # collapsing the two keeps callers that pass the pool
            # explicitly on the same memo entries as callers that don't.
            self.candidates = None
        if not (0.0 < bw_efficiency <= 1.0):
            raise ShapeError(f"bw_efficiency must be in (0,1]: {bw_efficiency}")
        self.bw_efficiency = bw_efficiency
        # Evaluation is a pure function of (shape, spec, dtype, tile
        # policy, bw efficiency, model constants); this prefix plus the
        # live model version keys the global scalar memo.  Digesting the
        # big nested policy tuple down to one interned string makes every
        # memo lookup hash a short str instead of re-hashing the whole
        # spec fingerprint.
        self._memo_prefix = sys.intern(
            engine_cache.digest_key(
                (
                    engine_cache.spec_key(self.spec),
                    self.dtype.name,
                    engine_cache.tile_policy_key(self.fixed_tile, self.candidates),
                    self.bw_efficiency,
                )
            )
        )

    # -- internals -----------------------------------------------------------

    def _pick_tile(self, m: int, n: int, k: int, batch: int = 1) -> TileConfig:
        if self.fixed_tile is not None:
            return self.fixed_tile
        return select_tile(m, n, k, self.spec, self.dtype, self.candidates, batch)

    def _math_rate_flops(self, align_eff: float, tile: TileConfig) -> "tuple[float, bool]":
        """Sustained whole-GPU math rate (FLOP/s) and matrix-path flag.

        Chooses the faster of the matrix-engine path (degraded by
        alignment) and the vector-unit fallback, as a mature BLAS
        library effectively does.
        """
        spec, dtype = self.spec, self.dtype
        rates = []
        if spec.supports_matrix(dtype):
            rates.append(
                (spec.matrix_peak_tflops(dtype) * 1e12 * align_eff * tile.peak_fraction, True)
            )
        if dtype in spec.vector_tflops:
            rates.append(
                (spec.vector_peak_tflops(dtype) * 1e12 * tile.peak_fraction, False)
            )
        if not rates:
            raise GPUModelError(
                f"{spec.name} has neither a matrix nor a vector path for "
                f"{dtype.name}"
            )
        return max(rates, key=lambda r: r[0])

    # Exponent applied to the alignment efficiency when degrading the
    # memory pipeline.  Misaligned leading dimensions defeat 16-byte
    # vectorized global/shared accesses (cp.async needs 4/8/16-byte
    # aligned segments), so the same shapes that starve the math pipes
    # also slow the copy pipeline — slightly less steeply (<1 exponent).
    _BW_ALIGN_EXPONENT = 0.8

    def _bandwidth_factor(self, m: int, n: int, k: int) -> float:
        """Alignment-driven degradation of achievable DRAM bandwidth."""
        eff = gemm_alignment_efficiency(m, n, k, self.dtype, self.spec)
        return eff ** self._BW_ALIGN_EXPONENT

    # -- public API ------------------------------------------------------------

    def evaluate(self, m: int, n: int, k: int, batch: int = 1) -> GemmPerf:
        """Estimate latency and throughput of ``batch`` x (m,k)x(k,n).

        A batch is executed as one kernel whose grid is the union of the
        per-problem tile grids (how cuBLAS strided-batched GEMM works),
        so wave quantization acts on the *total* block count.

        Results are memoized in the process-wide scalar cache
        (:func:`repro.engine.cache.scalar_memo`); the key embeds the
        live model version, so calibration runs that mutate the
        alignment constants never see stale entries.
        """
        # Canonicalize shape fields: sweeps hand us a mix of Python
        # ints, numpy integers, and integral floats for the *same*
        # logical shape — int() collapses them onto one memo entry.
        m, n, k, batch = int(m), int(n), int(k), int(batch)
        if not engine_cache.scalar_memo_enabled():
            return self._evaluate_uncached(m, n, k, batch)
        key = (self._memo_prefix, engine_cache.model_version(), m, n, k, batch)
        memo = engine_cache.scalar_memo()
        hit = memo.get(key)
        if hit is not None:
            return hit
        perf = self._evaluate_uncached(m, n, k, batch)
        memo.put(key, perf)
        return perf

    def _evaluate_uncached(self, m: int, n: int, k: int, batch: int = 1) -> GemmPerf:
        if min(m, n, k, batch) <= 0:
            raise ShapeError(f"GEMM dims must be positive: {(batch, m, n, k)}")
        spec, dtype = self.spec, self.dtype

        tile = self._pick_tile(m, n, k, batch)
        occ = blocks_per_sm(spec, tile.m, tile.n, tile.k_stage, tile.threads, dtype)

        blocks_one = wv.num_tiles(m, n, tile.m, tile.n)
        blocks = batch * blocks_one
        n_waves = wv.num_waves(blocks, spec.num_sms)
        wave_eff = wv.wave_efficiency(blocks, spec.num_sms)
        tile_waste = wv.tile_quantization_waste(m, n, tile.m, tile.n)

        align_eff = gemm_alignment_efficiency(m, n, k, dtype, spec)
        rate, used_matrix = self._math_rate_flops(align_eff, tile)
        if not used_matrix:
            # Vector path has no fragment-alignment constraint.
            align_eff = 1.0

        # Blocks execute in waves of one tile per SM; each (possibly
        # partial) wave costs one full tile's time at the per-SM
        # sustained rate, which makes tile and wave quantization
        # emergent.  (Multiple resident blocks per SM pipeline each
        # other but share the same math throughput, so the per-SM
        # block *rate* — and hence this expression — is unchanged;
        # their latency-hiding benefit is inside tile.peak_fraction.)
        k_padded = -(-k // tile.k_stage) * tile.k_stage
        tile_flops = 2.0 * tile.m * tile.n * k_padded
        sm_rate = rate / spec.num_sms  # unit: flops/second
        compute_s = n_waves * tile_flops / sm_rate

        dram_bytes = effective_dram_bytes(
            m,
            n,
            k,
            tile.m,
            tile.n,
            spec,
            dtype,
            batch,
            wave_blocks=spec.num_sms * occ.blocks_per_sm,
        )
        # Achieved bandwidth needs enough in-flight thread blocks.
        # Above one full wave, the partial tail wave runs at its
        # occupancy's worth of memory-level parallelism — this is how
        # wave quantization shows up even in memory-bound kernels (the
        # sawtooth and near-2x cliffs of Figs 5b/8/9).  Below one wave
        # the penalty is gentler (DRAM saturates well under full
        # occupancy when there is no tail to wait for).
        mlp_util = _memory_parallelism(blocks, spec.num_sms, wave_eff)
        bw = (
            spec.mem_bw_bytes_per_s()
            * self.bw_efficiency
            * self._bandwidth_factor(m, n, k)
            * mlp_util
        )
        memory_s = dram_bytes / bw

        overhead = spec.kernel_overhead_s
        total = max(compute_s, memory_s) + overhead

        return GemmPerf(
            m=m,
            n=n,
            k=k,
            batch=batch,
            dtype=dtype,
            gpu=spec.name,
            tile=tile,
            blocks=blocks,
            blocks_per_sm=occ.blocks_per_sm,
            waves=n_waves,
            time=TimeEstimate(
                total_s=total,
                compute_s=compute_s,
                memory_s=memory_s,
                overhead_s=overhead,
            ),
            flops=gemm_flops(m, n, k, batch),
            dram_bytes=dram_bytes,
            alignment_eff=align_eff,
            wave_eff=wave_eff,
            tile_waste=tile_waste,
            used_matrix_engine=used_matrix,
        )

    def latency(self, m: int, n: int, k: int, batch: int = 1) -> float:
        """Latency in seconds (shorthand for ``evaluate(...).latency_s``)."""
        return self.evaluate(m, n, k, batch).latency_s

    def tflops(self, m: int, n: int, k: int, batch: int = 1) -> float:
        """Throughput in TFLOP/s (shorthand for ``evaluate(...).tflops``)."""
        return self.evaluate(m, n, k, batch).tflops

    def tensor_core_eligible(self, m: int, n: int, k: int) -> bool:
        """Whether this shape meets the unpadded Tensor Core rule."""
        return tensor_core_eligible((m, n, k), self.dtype, self.spec)
