"""Vectorized (batched) shape evaluation.

:func:`evaluate_batch` computes the full analytic GEMM model —
cuBLAS-like tile selection, wave/tile quantization, Tensor Core
alignment efficiency, L2-adjusted DRAM traffic, and the roofline
latency composition — for an entire array of ``(batch, m, n, k)``
shapes in NumPy array operations.  :func:`evaluate_tile_sweep` prices
the same shapes under every candidate tile at once (the kernel tuner's
search); both run through one pricing step that takes a per-row tile
index, so there is a single vectorized cost formula.

Parity contract
---------------
Every arithmetic step below replicates the *exact* float operation
sequence of the scalar path (:meth:`repro.gpu.gemm_model.GemmModel.
evaluate` and the helpers it calls), so results are bit-for-bit equal,
not merely close: integer work is done in int64 exactly as Python ints,
float expressions keep the scalar's association order, ``np.rint``
mirrors Python's banker's ``round``, and first-occurrence ``argmin``
mirrors ``min(pool, key=...)`` tie-breaking.  The property tests in
``tests/engine/test_vectorized.py`` enforce exact equality over
randomized grids; if you change the scalar model, change this file in
lockstep (and bump :data:`repro.engine.cache.MODEL_VERSION`).

This module must not import :mod:`repro.gpu.gemm_model` at module scope
(that module imports :mod:`repro.engine.cache`; a top-level import here
would close an import cycle through the package ``__init__``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.engine import cache as _cache
from repro.errors import GPUModelError, ShapeError
from repro.gpu import alignment
from repro.gpu.occupancy import blocks_per_sm
from repro.gpu.specs import GPUSpec, get_gpu
from repro.gpu.tiles import TileConfig, candidate_tiles
from repro.types import DType

# Parity constants, mirroring repro.gpu.gemm_model (which cannot be
# imported here, see module docstring).  Guarded by the parity tests.
_BW_EFFICIENCY = 0.82
_BW_ALIGN_EXPONENT = 0.8


def shape_array(
    m, n, k, batch=1
) -> np.ndarray:
    """Build an (N, 4) int64 shape array ``[batch, m, n, k]`` per row.

    Scalars broadcast against array arguments, so
    ``shape_array(sizes, sizes, sizes)`` builds a square-GEMM grid and
    ``shape_array(2048, 2048, 64, batches)`` sweeps the batch count.
    """
    cols = np.broadcast_arrays(
        np.asarray(batch, dtype=np.int64),
        np.asarray(m, dtype=np.int64),
        np.asarray(n, dtype=np.int64),
        np.asarray(k, dtype=np.int64),
    )
    return np.stack([c.ravel() for c in cols], axis=1)


@dataclass(frozen=True)
class BatchResult:
    """Column-oriented performance report for a batch of GEMM shapes.

    Row ``i`` of every array corresponds to row ``i`` of ``shapes``.
    ``tile_index[i]`` indexes into ``pool`` (the tile candidate tuple
    used for selection).
    """

    shapes: np.ndarray  # (N, 4) int64: batch, m, n, k
    gpu: str
    dtype: DType
    pool: Tuple[TileConfig, ...]
    tile_index: np.ndarray  # int64
    blocks: np.ndarray  # int64
    blocks_per_sm: np.ndarray  # int64
    waves: np.ndarray  # int64
    latency_s: np.ndarray  # float64
    compute_s: np.ndarray  # float64
    memory_s: np.ndarray  # float64
    overhead_s: float
    flops: np.ndarray  # int64
    dram_bytes: np.ndarray  # float64
    alignment_eff: np.ndarray  # float64
    wave_eff: np.ndarray  # float64
    tile_waste: np.ndarray  # float64
    used_matrix_engine: np.ndarray  # bool
    tflops: np.ndarray  # float64

    def __len__(self) -> int:
        return int(self.shapes.shape[0])

    @property
    def bound(self) -> np.ndarray:
        """Per-row ``"compute"`` / ``"memory"`` labels."""
        return np.where(self.compute_s >= self.memory_s, "compute", "memory")

    def tile(self, i: int) -> TileConfig:
        return self.pool[int(self.tile_index[i])]

    # -- (de)serialization for the disk cache ------------------------------

    _ARRAY_FIELDS = (
        "shapes",
        "tile_index",
        "blocks",
        "blocks_per_sm",
        "waves",
        "latency_s",
        "compute_s",
        "memory_s",
        "flops",
        "dram_bytes",
        "alignment_eff",
        "wave_eff",
        "tile_waste",
        "used_matrix_engine",
        "tflops",
    )

    def to_arrays(self) -> "dict[str, np.ndarray]":
        return {name: getattr(self, name) for name in self._ARRAY_FIELDS}

    def meta(self) -> dict:
        return {
            "gpu": self.gpu,
            "dtype": self.dtype.name,
            "overhead_s": self.overhead_s,
            "pool": [
                [t.m, t.n, t.k_stage, t.threads, t.peak_fraction]
                for t in self.pool
            ],
        }

    @classmethod
    def from_arrays(cls, arrays: "dict[str, np.ndarray]", meta: dict) -> "BatchResult":
        pool = tuple(
            TileConfig(int(m), int(n), int(ks), int(th), float(pf))
            for m, n, ks, th, pf in meta["pool"]
        )
        return cls(
            gpu=str(meta["gpu"]),
            dtype=DType[str(meta["dtype"])],
            pool=pool,
            overhead_s=float(meta["overhead_s"]),
            **{name: np.asarray(arrays[name]) for name in cls._ARRAY_FIELDS},
        )


def _ceil_div(a: np.ndarray, b) -> np.ndarray:
    """Exact integer ceil division (mirrors the scalar ``-(-a // b)``)."""
    return -(-a // b)


def _pow_exact(base: np.ndarray, exponent: float) -> np.ndarray:
    """Elementwise ``base ** exponent`` via libm, bit-equal to Python.

    NumPy's vectorized power kernel can differ from C ``pow`` by one ulp
    on some inputs, which would break the bit-for-bit parity contract;
    evaluating each *unique* base through ``math.pow`` keeps this exact
    and cheap (the bases here take few distinct values per batch).
    """
    u, inv = np.unique(base, return_inverse=True)
    table = np.array([math.pow(x, exponent) for x in u], dtype=np.float64)
    return table[inv].reshape(base.shape)


def _dim_efficiency(d: np.ndarray, dtype: DType, spec: GPUSpec) -> np.ndarray:
    """Vectorized :func:`repro.gpu.alignment.dim_efficiency`."""
    full = spec.tc_align_elems(dtype)
    min_elems = spec.tc_min_elems(dtype)
    eff_min = alignment._EFF_AT_MIN
    eff_odd = alignment._EFF_ODD
    p = np.minimum(d & -d, full)
    lp = np.log2(p.astype(np.float64))
    # Sub-granularity interpolation (p < min_elems).  log2 of a power of
    # two is exact, so these match the scalar math.log2 path bitwise.
    if min_elems > 1:
        frac_sub = np.where(p > 1, lp / math.log2(min_elems), 0.0)
        sub = eff_odd + (eff_min - eff_odd) * frac_sub
    else:  # pragma: no cover - p < min_elems is then impossible
        sub = np.ones_like(lp)
    if full > min_elems:
        denom = math.log2(full) - math.log2(min_elems)
        frac_mid = (lp - math.log2(min_elems)) / denom
        mid = eff_min + (1.0 - eff_min) * frac_mid
    else:  # p >= full whenever full <= min_elems; branch unreachable
        mid = np.ones_like(lp)
    return np.where(p >= full, 1.0, np.where(p < min_elems, sub, mid))


#: Memo of each spec's default candidate pool and its per-tile
#: occupancy.  Keyed on the spec's field fingerprint, not its name, so a
#: calibrated or hand-edited spec that keeps a built-in name never
#: reuses the built-in's pool.
_POOLS = _cache.LRUCache(maxsize=64)


def _occupancy(
    spec: GPUSpec, dtype: DType, pool: Sequence[TileConfig]
) -> np.ndarray:
    """Blocks per SM for each tile of ``pool``.

    Raises :class:`GPUModelError` for a tile that does not fit, exactly
    where the scalar path would (selection scoring or evaluate).
    """
    return np.array(
        [
            blocks_per_sm(spec, t.m, t.n, t.k_stage, t.threads, dtype).blocks_per_sm
            for t in pool
        ],
        dtype=np.int64,
    )


def default_pool(
    spec: GPUSpec, dtype: DType
) -> Tuple[Tuple[TileConfig, ...], np.ndarray]:
    """:func:`~repro.gpu.tiles.candidate_tiles` and its occupancy, memoized."""
    key = (_cache.spec_key(spec), dtype)
    hit = _POOLS.get(key)
    if hit is None:
        pool = candidate_tiles(spec, dtype)
        occ = _occupancy(spec, dtype, pool)
        occ.setflags(write=False)  # shared by every caller
        hit = (pool, occ)
        _POOLS.put(key, hit)
    return hit


def _pool_and_occupancy(
    spec: GPUSpec,
    dtype: DType,
    tile: Optional[TileConfig],
    candidates: Optional[Sequence[TileConfig]],
) -> Tuple[Tuple[TileConfig, ...], np.ndarray]:
    if tile is not None:
        pool: Tuple[TileConfig, ...] = (tile,)
    elif candidates is not None:
        pool = tuple(candidates)
        if not pool:
            raise GPUModelError("empty tile candidate pool")
    else:
        return default_pool(spec, dtype)
    return pool, _occupancy(spec, dtype, pool)


def _shape_rows(shapes, bw_efficiency: float) -> np.ndarray:
    """Validate ``shapes`` (and ``bw_efficiency``) into an (N, 4) int64 array."""
    if not (0.0 < bw_efficiency <= 1.0):
        raise ShapeError(f"bw_efficiency must be in (0,1]: {bw_efficiency}")
    arr = np.asarray(shapes, dtype=np.int64)
    if arr.ndim == 1 and arr.shape == (4,):
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ShapeError(
            f"shapes must be an (N, 4) array of (batch, m, n, k); got {arr.shape}"
        )
    if arr.size and int(arr.min()) <= 0:
        bad = arr[(arr <= 0).any(axis=1)][0]
        raise ShapeError(f"GEMM dims must be positive: {tuple(int(v) for v in bad)}")
    return arr


def _select_tiles(
    arr: np.ndarray, spec: GPUSpec, pool: Tuple[TileConfig, ...]
) -> np.ndarray:
    """cuBLAS-like tile selection: the pool index picked for each row.

    Replicates ``tile_score`` for every (tile, shape) pair and takes the
    first argmin, matching ``min(pool, key=...)``'s first-strict-minimum
    tie handling.
    """
    b, m, n, k = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    tile_m = np.array([t.m for t in pool], dtype=np.int64)
    tile_n = np.array([t.n for t in pool], dtype=np.int64)
    peak_fraction = np.array([t.peak_fraction for t in pool], dtype=np.float64)
    gm_all = _ceil_div(m[None, :], tile_m[:, None])
    gn_all = _ceil_div(n[None, :], tile_n[:, None])
    blocks_all = b[None, :] * (gm_all * gn_all)
    waves_all = _ceil_div(blocks_all, spec.num_sms)
    # tile_score: n_waves * 2.0 * tile.m * tile.n * k / peak_fraction
    score = (
        ((waves_all * 2.0) * tile_m[:, None]) * tile_n[:, None]
    ) * k[None, :] / peak_fraction[:, None]
    return np.argmin(score, axis=0)


def _price(
    arr: np.ndarray,
    spec: GPUSpec,
    dtype: DType,
    pool: Tuple[TileConfig, ...],
    occ: np.ndarray,
    sel: np.ndarray,
    bw_efficiency: float,
) -> BatchResult:
    """The analytic model for row ``i`` of ``arr`` run with ``pool[sel[i]]``.

    The one pricing step behind both :func:`evaluate_batch` (``sel``
    from selection, or all zeros for a pinned tile) and
    :func:`evaluate_tile_sweep` (``sel`` enumerating the pool).
    """
    num_sms = spec.num_sms
    b, m, n, k = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    N = arr.shape[0]

    tm = np.array([t.m for t in pool], dtype=np.int64)[sel]
    tn = np.array([t.n for t in pool], dtype=np.int64)[sel]
    ks = np.array([t.k_stage for t in pool], dtype=np.int64)[sel]
    pf = np.array([t.peak_fraction for t in pool], dtype=np.float64)[sel]
    occ_sel = occ[sel]

    gm = _ceil_div(m, tm)
    gn = _ceil_div(n, tn)
    blocks_one = gm * gn
    blocks = b * blocks_one
    n_waves = _ceil_div(blocks, num_sms)
    wave_eff = blocks / (n_waves * num_sms)
    covered = gm * tm * gn * tn
    tile_waste = 1.0 - (m * n) / covered

    # Alignment efficiency (contiguous dims k and n gate the pipeline).
    align_raw = np.minimum(
        _dim_efficiency(k, dtype, spec), _dim_efficiency(n, dtype, spec)
    )

    # Sustained math rate: faster of matrix path (alignment-degraded)
    # and vector fallback; matrix wins ties like the scalar max().
    matrix_ok = spec.supports_matrix(dtype)
    vector_ok = dtype in spec.vector_tflops
    if not matrix_ok and not vector_ok:
        raise GPUModelError(
            f"{spec.name} has neither a matrix nor a vector path for {dtype.name}"
        )
    if matrix_ok:
        matrix_rate = (spec.matrix_peak_tflops(dtype) * 1e12 * align_raw) * pf
    if vector_ok:
        vector_rate = (spec.vector_peak_tflops(dtype) * 1e12) * pf
    if matrix_ok and vector_ok:
        used_matrix = matrix_rate >= vector_rate
        rate = np.where(used_matrix, matrix_rate, vector_rate)
    elif matrix_ok:
        used_matrix = np.ones(N, dtype=bool)
        rate = matrix_rate
    else:
        used_matrix = np.zeros(N, dtype=bool)
        rate = vector_rate
    align_eff = np.where(used_matrix, align_raw, 1.0)

    # Compute time: waves of one full tile per SM.
    k_padded = _ceil_div(k, ks) * ks
    tile_flops = ((2.0 * tm) * tn) * k_padded
    sm_rate = rate / num_sms  # unit: flops/second
    compute_s = (n_waves * tile_flops) / sm_rate

    # DRAM traffic with L2 reuse (vectorized effective_dram_bytes).
    nbytes = dtype.bytes
    compulsory = b * (m * k + k * n + m * n) * nbytes
    wave_blocks = num_sms * occ_sel
    w = np.minimum(wave_blocks, gm * gn)
    # wave_super_tile: np.rint is round-half-even, same as round().
    wave_m = np.maximum(
        1, np.minimum(gm, np.rint(np.sqrt((w * gm) / gn)).astype(np.int64))
    )
    wave_n = np.maximum(1, np.minimum(gn, w // wave_m))
    reads_a = (m * k) * np.ceil(gn / wave_n).astype(np.int64)
    reads_b = (k * n) * np.ceil(gm / wave_m).astype(np.int64)
    cooperative = np.where(
        b * gm * gn <= wave_blocks,
        compulsory.astype(np.float64),
        (b * (reads_a + reads_b + m * n) * nbytes).astype(np.float64),
    )
    streamed = (
        b * (gm * gn * (tm + tn) * k * nbytes + m * n * nbytes)
    ).astype(np.float64)
    ws = np.maximum((wave_m * tm + wave_n * tn) * np.minimum(k, 512) * nbytes, 1)
    capacity = spec.l2_bytes * 0.75
    miss = np.where(ws <= capacity, 0.0, np.minimum(1.0, (ws - capacity) / ws))
    traffic = cooperative + (streamed - cooperative) * miss
    dram_bytes = np.minimum(
        np.maximum(traffic, compulsory.astype(np.float64)), streamed
    )

    # Achieved bandwidth: occupancy-driven memory-level parallelism.
    mlp_util = np.where(
        blocks >= num_sms, wave_eff, _pow_exact(blocks / num_sms, 0.35)
    )
    bw = (
        spec.mem_bw_bytes_per_s()
        * bw_efficiency
        * _pow_exact(align_raw, _BW_ALIGN_EXPONENT)
        * mlp_util
    )
    memory_s = dram_bytes / bw

    overhead = spec.kernel_overhead_s
    total = np.maximum(compute_s, memory_s) + overhead
    flops = 2 * b * m * n * k
    tflops = flops / total / 1e12

    return BatchResult(
        shapes=arr,
        gpu=spec.name,
        dtype=dtype,
        pool=pool,
        tile_index=sel,
        blocks=blocks,
        blocks_per_sm=occ_sel,
        waves=n_waves,
        latency_s=total,
        compute_s=compute_s,
        memory_s=memory_s,
        overhead_s=overhead,
        flops=flops,
        dram_bytes=dram_bytes,
        alignment_eff=align_eff,
        wave_eff=wave_eff,
        tile_waste=tile_waste,
        used_matrix_engine=used_matrix,
        tflops=tflops,
    )


def evaluate_batch(
    shapes,
    gpu: "str | GPUSpec",
    dtype: "str | DType" = DType.FP16,
    tile: Optional[TileConfig] = None,
    candidates: Optional[Sequence[TileConfig]] = None,
    bw_efficiency: float = _BW_EFFICIENCY,
) -> BatchResult:
    """Evaluate an (N, 4) array of ``(batch, m, n, k)`` shapes at once.

    Semantics are identical to constructing ``GemmModel(gpu, dtype,
    tile=tile, candidates=candidates, bw_efficiency=bw_efficiency)`` and
    calling ``evaluate(m, n, k, batch)`` per row — including raised
    error types — but the whole batch is computed in array operations.
    """
    spec = get_gpu(gpu)
    dtype = DType.parse(dtype)
    arr = _shape_rows(shapes, bw_efficiency)
    pool, occ = _pool_and_occupancy(spec, dtype, tile, candidates)
    if tile is not None:
        # Pinned tile: no selection pass (mirrors GemmModel.fixed_tile).
        sel = np.zeros(arr.shape[0], dtype=np.int64)
    else:
        sel = _select_tiles(arr, spec, pool)
    return _price(arr, spec, dtype, pool, occ, sel, bw_efficiency)


def evaluate_tile_sweep(
    shapes,
    gpu: "str | GPUSpec",
    dtype: "str | DType" = DType.FP16,
    candidates: Optional[Sequence[TileConfig]] = None,
    bw_efficiency: float = _BW_EFFICIENCY,
) -> BatchResult:
    """Price every (candidate tile, shape) pair in one vectorized pass.

    The result has ``C x N`` rows for ``C`` candidates and ``N`` shapes:
    row ``c * N + i`` is shape ``i`` with ``pool[c]`` pinned, so row
    block ``c`` equals ``evaluate_batch(shapes, ..., tile=pool[c])``
    bit for bit but for ``tile_index``, which holds ``c`` here
    (:class:`~repro.engine.grid.TileSweep` reads the blocks as ``(C, N)``
    views).  ``candidates``
    defaults to every tile that fits ``gpu`` for ``dtype``.
    """
    spec = get_gpu(gpu)
    dtype = DType.parse(dtype)
    arr = _shape_rows(shapes, bw_efficiency)
    pool, occ = _pool_and_occupancy(spec, dtype, None, candidates)
    rows = arr.shape[0]
    sel = np.repeat(np.arange(len(pool), dtype=np.int64), rows)
    return _price(
        np.tile(arr, (len(pool), 1)), spec, dtype, pool, occ, sel, bw_efficiency
    )
