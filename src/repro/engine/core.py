"""The shape-evaluation engine: vectorized evaluation behind caches.

:class:`ShapeEngine` is the front door the hot callers (figure sweeps,
autotune searches, the planner) use: it evaluates whole arrays of
``(batch, m, n, k)`` shapes through
:func:`~repro.engine.vectorized.evaluate_batch`, memoizes each batch in
an in-memory LRU, and optionally persists results to an on-disk ``.soa``
store (mmap-shared across processes) so repeated figure regeneration
never recomputes.

Cache keys are ``(shapes-digest, gpu-spec fingerprint, dtype, tile
policy, bw-efficiency, model-version)``; the model version folds in the
calibration-mutable alignment constants (see
:func:`repro.engine.cache.model_version`), so bumping
:data:`~repro.engine.cache.MODEL_VERSION` or re-fitting constants
invalidates every entry.

The standing parity check against the scalar
:class:`~repro.gpu.gemm_model.GemmModel` oracle is
:func:`repro.harness.bench.verify_against_scalar`; :func:`random_shapes`
builds its grids.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Optional, Sequence

import numpy as np

from repro.engine import cache as _cache
from repro.engine.grid import GridResult, ShapeGrid, TileSweep
from repro.engine.vectorized import (
    _BW_EFFICIENCY,
    BatchResult,
    default_pool,
    evaluate_batch,
    evaluate_tile_sweep,
    shape_array,
)
from repro.errors import CacheError
from repro.gpu.specs import get_gpu
from repro.gpu.tiles import TileConfig
from repro.observability.metrics import metrics as _metrics
from repro.observability.tracing import span as _span
from repro.resilience.faults import fault_site
from repro.types import DType

#: Environment variable naming a directory for the default engine's
#: on-disk cache.  Unset (the default) keeps the default engine
#: memory-only.
DISK_CACHE_ENV = "REPRO_ENGINE_CACHE_DIR"

log = logging.getLogger("repro.engine")


def _label(gpu) -> str:
    """A GPU name or spec as its name, for span and fault-site context."""
    return str(getattr(gpu, "name", gpu))


class ShapeEngine:
    """Vectorized, memoized evaluator for batches of GEMM shapes.

    Parameters
    ----------
    memory_entries:
        Max distinct batch results held in the in-memory LRU.
    disk_dir:
        Optional directory for the persistent second-level store.
    """

    def __init__(
        self,
        memory_entries: int = 256,
        disk_dir: "str | os.PathLike | None" = None,
    ) -> None:
        self._mem = _cache.LRUCache(maxsize=memory_entries)
        self._disk = _cache.DiskCache(disk_dir) if disk_dir is not None else None
        self._lock = threading.Lock()

    # -- cache plumbing -----------------------------------------------------

    def _key(self, shapes, gpu, dtype, tile, candidates, bw_efficiency):
        spec = get_gpu(gpu)
        dtype = DType.parse(dtype)
        if (
            tile is None
            and candidates is not None
            and tuple(candidates) == default_pool(spec, dtype)[0]
        ):
            # Spelling out the default pool is the same policy as "auto";
            # collapsing them keeps both callers on one cache entry.
            candidates = None
        return (
            _cache.shapes_digest(shapes),
            _cache.spec_key(spec),
            dtype.name,
            _cache.tile_policy_key(tile, candidates),
            bw_efficiency,
            _cache.model_version(),
        )

    def _cached(self, key, rows: int, gpu: str, compute) -> BatchResult:
        """``key``'s result from memory, then disk, else ``compute()`` stored in both."""
        with _span("engine.evaluate", shapes=rows, gpu=gpu) as sp:
            reg = _metrics()
            hit = self._mem.get(key)
            if hit is not None:
                sp.set(source="memory")
                reg.counter("engine.evaluate.memory_hits").inc()
                return hit
            digest = _cache.digest_key(key)
            if self._disk is not None:
                stored = self._disk.get(digest, repr(key))
                if stored is not None:
                    meta = stored.pop("__meta__")
                    result = BatchResult.from_arrays(stored, meta)
                    self._mem.put(key, result)
                    sp.set(source="disk")
                    reg.counter("engine.evaluate.disk_hits").inc()
                    return result
            fault_site("engine.batch_eval", digest=digest, gpu=gpu)
            result = compute()
            sp.set(source="compute")
            reg.counter("engine.evaluate.computes").inc()
            reg.counter("engine.evaluate.shapes_computed").inc(rows)
            self._mem.put(key, result)
            if self._disk is not None:
                try:
                    self._disk.put(
                        digest, repr(key), result.to_arrays(), result.meta()
                    )
                except CacheError as exc:
                    # Degrade to memory-only for this entry: a cache-write
                    # failure must never fail an evaluation.
                    log.warning("disk cache write failed, serving from memory: %s", exc)
            return result

    # -- public API ---------------------------------------------------------

    def evaluate(
        self,
        shapes,
        gpu,
        dtype: "str | DType" = DType.FP16,
        tile: Optional[TileConfig] = None,
        candidates: Optional[Sequence[TileConfig]] = None,
        bw_efficiency: float = _BW_EFFICIENCY,
    ) -> BatchResult:
        """Evaluate a batch of shapes, consulting both cache levels."""
        key = self._key(shapes, gpu, dtype, tile, candidates, bw_efficiency)
        return self._cached(
            key,
            len(shapes),
            _label(gpu),
            lambda: evaluate_batch(
                shapes,
                gpu,
                dtype,
                tile=tile,
                candidates=candidates,
                bw_efficiency=bw_efficiency,
            ),
        )

    def latency(self, shapes, gpu, dtype: "str | DType" = DType.FP16, **kw) -> np.ndarray:
        """Latencies (seconds) for a batch of shapes."""
        return self.evaluate(shapes, gpu, dtype, **kw).latency_s

    def tflops(self, shapes, gpu, dtype: "str | DType" = DType.FP16, **kw) -> np.ndarray:
        """Useful-FLOPs throughput (TFLOP/s) for a batch of shapes."""
        return self.evaluate(shapes, gpu, dtype, **kw).tflops

    def evaluate_grid(
        self,
        grid: ShapeGrid,
        gpu,
        dtype: "str | DType" = DType.FP16,
        tile: Optional[TileConfig] = None,
        candidates: Optional[Sequence[TileConfig]] = None,
        bw_efficiency: float = _BW_EFFICIENCY,
    ) -> GridResult:
        """Evaluate a whole :class:`ShapeGrid` as one batch.

        The SoA front door for sweep callers: the grid's columnar
        ``batch/m/n/k`` fields are assembled into one ``(N, 4)`` array,
        evaluated through the same two-level cache as :meth:`evaluate`,
        and returned joined with the grid's annotation columns as a
        :class:`~repro.engine.grid.GridResult` for columnar
        materialization.
        """
        with _span("engine.evaluate_grid", shapes=len(grid), gpu=_label(gpu)):
            batch = self.evaluate(
                grid.shapes,
                gpu,
                dtype,
                tile=tile,
                candidates=candidates,
                bw_efficiency=bw_efficiency,
            )
        return GridResult(grid, batch)

    def evaluate_tiles(
        self,
        grid: ShapeGrid,
        gpu,
        dtype: "str | DType" = DType.FP16,
        candidates: Optional[Sequence[TileConfig]] = None,
        bw_efficiency: float = _BW_EFFICIENCY,
    ) -> TileSweep:
        """Evaluate a whole grid with each candidate tile pinned in turn.

        The batched primitive behind the kernel-parameter autotuner
        (:mod:`repro.kernels`): every (candidate, shape) pair is priced
        in *one* vectorized pass
        (:func:`~repro.engine.vectorized.evaluate_tile_sweep`), so the
        result is a dense (candidate x shape) latency surface with no
        Python loop over shapes or tiles.  The whole sweep is one entry
        in both cache levels, keyed on the grid and the candidate pool,
        so re-tuning against an unchanged model is one cache hit.

        Returns a :class:`~repro.engine.grid.TileSweep` over the cached
        sweep: :meth:`~repro.engine.grid.TileSweep.matrix` reads a field
        as a (candidate x shape) view whose row ``c`` equals
        ``evaluate_grid(grid, ..., tile=pool[c])`` bit for bit.
        ``candidates`` defaults to every tile that fits ``gpu`` for
        ``dtype`` (:func:`~repro.gpu.tiles.candidate_tiles`); pass a
        subset to restrict the search space.  Candidate order is
        preserved in the sweep's rows, which makes downstream argmin
        tie-breaks deterministic.
        """
        spec = get_gpu(gpu)
        parsed = DType.parse(dtype)
        pool = (
            tuple(candidates)
            if candidates is not None
            else default_pool(spec, parsed)[0]
        )
        shapes = grid.shapes
        key = (
            _cache.shapes_digest(shapes),
            _cache.spec_key(spec),
            parsed.name,
            _cache.sweep_policy_key(pool),
            bw_efficiency,
            _cache.model_version(),
        )
        with _span(
            "engine.evaluate_tiles", shapes=len(grid), tiles=len(pool),
            gpu=spec.name,
        ):
            sweep = self._cached(
                key,
                len(pool) * len(grid),
                spec.name,
                lambda: evaluate_tile_sweep(
                    shapes, spec, parsed, candidates=candidates,
                    bw_efficiency=bw_efficiency,
                ),
            )
        return TileSweep(grid, sweep)

    def memo_columns(self, kind: str, key, compute) -> "dict[str, np.ndarray]":
        """Two-level cached columnar result of a pure computation.

        ``compute()`` must be a *pure, deterministic* function of
        ``(kind, key, model constants)`` returning a dict of 1-D
        array-likes (numeric or fixed-width string).  The result is
        memoized in the same in-memory LRU and mmap-shared disk store
        as :meth:`evaluate`, keyed on ``(kind, key, model_version)`` —
        callers version their own semantics through ``kind``/``key``.

        This is the warm path for deterministic non-GEMM grid work
        (traced transformer shapes, pipeline schedule sims) whose
        recomputation otherwise dominates warm experiment time.
        """
        full_key = ("columns", kind, key, _cache.model_version())
        with _span("engine.memo_columns", kind=kind) as sp:
            reg = _metrics()
            hit = self._mem.get(full_key)
            if hit is not None:
                sp.set(source="memory")
                reg.counter("engine.memo_columns.memory_hits").inc()
                return hit
            digest = _cache.digest_key(full_key)
            if self._disk is not None:
                stored = self._disk.get(digest, repr(full_key))
                if stored is not None:
                    stored.pop("__meta__", None)
                    self._mem.put(full_key, stored)
                    sp.set(source="disk")
                    reg.counter("engine.memo_columns.disk_hits").inc()
                    return stored
            fault_site("engine.batch_eval", digest=digest, gpu=kind)
            result = {
                name: np.ascontiguousarray(np.asarray(col))
                for name, col in compute().items()
            }
            for name, col in result.items():
                if col.dtype == object:
                    raise TypeError(
                        f"memo_columns({kind!r}): column {name!r} has object "
                        "dtype; return numeric or fixed-width string arrays"
                    )
            sp.set(source="compute")
            reg.counter("engine.memo_columns.computes").inc()
            self._mem.put(full_key, result)
            if self._disk is not None:
                try:
                    self._disk.put(digest, repr(full_key), result, {"kind": kind})
                except CacheError as exc:
                    log.warning(
                        "disk cache write failed, serving from memory: %s", exc
                    )
            return result

    # -- stats / maintenance ------------------------------------------------

    @property
    def memory_stats(self) -> _cache.CacheStats:
        return self._mem.stats

    @property
    def disk_stats(self) -> Optional[_cache.CacheStats]:
        return self._disk.stats if self._disk is not None else None

    def clear(self, disk: bool = False) -> None:
        self._mem.clear()
        if disk and self._disk is not None:
            self._disk.clear()

    def describe(self) -> str:
        parts = [f"memory: {self.memory_stats.describe()} ({len(self._mem)} entries)"]
        if self._disk is not None:
            parts.append(f"disk: {self._disk.stats.describe()} ({len(self._disk)} files)")
        return "; ".join(parts)


_DEFAULT_ENGINE: Optional[ShapeEngine] = None
_DEFAULT_LOCK = threading.Lock()


def default_engine() -> ShapeEngine:
    """Process-wide shared engine (hot callers pool their caches here).

    Honours ``REPRO_ENGINE_CACHE_DIR`` for an optional disk store.

    Double-checked locking: the fast path is one unsynchronized global
    read (safe under the GIL — the assignment below publishes a fully
    constructed engine), so concurrent serve workers hitting this on
    every request never serialize on the lock; the lock only guards
    construction, guaranteeing exactly one engine is ever built even
    when many threads race the first call.
    """
    global _DEFAULT_ENGINE
    engine = _DEFAULT_ENGINE
    if engine is not None:
        return engine
    with _DEFAULT_LOCK:
        if _DEFAULT_ENGINE is None:
            _DEFAULT_ENGINE = ShapeEngine(disk_dir=os.environ.get(DISK_CACHE_ENV))
        return _DEFAULT_ENGINE


def reset_default_engine() -> None:
    """Drop the shared engine (tests; env-var changes)."""
    global _DEFAULT_ENGINE
    with _DEFAULT_LOCK:
        _DEFAULT_ENGINE = None


# -- parity grids ---------------------------------------------------------------


def random_shapes(rng: np.random.Generator, n: int) -> np.ndarray:
    """A randomized (n, 4) grid spanning the model's interesting regimes.

    Mixes square compute-bound GEMMs, skinny decode-like GEMMs, and
    attention-style batched shapes, with dimensions that hit every
    power-of-two alignment bucket.
    """
    b = np.where(rng.random(n) < 0.5, 1, rng.integers(2, 257, n))
    m = rng.integers(1, 8193, n)
    k = rng.integers(1, 8193, n)
    nn = rng.integers(1, 8193, n)
    # Force a share of aligned / semi-aligned dims so both branches of
    # the efficiency curve are exercised.
    snap = rng.random(n) < 0.5
    step = 2 ** rng.integers(1, 8, n)
    m = np.where(snap, np.maximum(step, (m // step) * step), m)
    nn = np.where(snap, np.maximum(step, (nn // step) * step), nn)
    k = np.where(snap, np.maximum(step, (k // step) * step), k)
    return shape_array(m, nn, k, b)
