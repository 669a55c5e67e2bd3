"""Batched analytical search producing tuned kernel-parameter tables.

:func:`tune_table` is the whole tuner: build *one*
:class:`~repro.engine.grid.ShapeGrid` covering every tuning shape for a
(GPU, dtype) pair, price every (candidate tile, shape) pair in one
engine evaluation through
:meth:`~repro.engine.core.ShapeEngine.evaluate_tiles` (no per-shape or
per-tile Python anywhere), take the argmin across the candidate axis,
and export the per-bucket winners as a
:class:`~repro.kernels.table.KernelTable`.

The tuning grid is the set of bucket representatives: every power of
two in the tuned octave range for m/n/k, crossed with the tuned batch
points.  Because representatives are exactly one per bucket, the table
is a total function over its octave range and a clean *miss* outside
it — which is where :func:`best_for_shapes`, the deterministic
analytical fallback the resolver uses, takes over with the same argmin
over the same candidate pool at the exact query shapes.

Determinism: candidate order comes from
:func:`~repro.gpu.tiles.candidate_tiles` (fixed), ``np.argmin`` breaks
ties toward the earlier candidate, and the grid is a pure function of
the arguments — so for a fixed engine model version, tuning twice
yields byte-identical artifacts.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.engine.cache import LRUCache, model_version
from repro.engine.core import ShapeEngine, default_engine
from repro.engine.grid import SHAPE_COLUMNS, ShapeGrid, TileSweep
from repro.errors import KernelTableError
from repro.gpu.specs import get_gpu
from repro.gpu.tiles import TileConfig, candidate_tiles
from repro.kernels.table import SCHEMA_VERSION, KernelEntry, KernelTable
from repro.observability.tracing import span as _span
from repro.types import DType

__all__ = [
    "TUNE_BATCHES",
    "TUNE_DIMS",
    "TUNE_DIMS_QUICK",
    "best_for_shape",
    "best_for_shapes",
    "tune_grid",
    "tune_table",
]

#: Default m/n/k tuning points: one power of two per octave, 64..8192.
TUNE_DIMS: Tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096, 8192)

#: The CI smoke grid: a narrower octave range, same structure.
TUNE_DIMS_QUICK: Tuple[int, ...] = (256, 512, 1024, 2048)

#: Default batch tuning points (single GEMMs and a batched-BMM regime).
TUNE_BATCHES: Tuple[int, ...] = (1, 8)


def _validate_points(name: str, points: Sequence[int]) -> Tuple[int, ...]:
    out = tuple(int(p) for p in points)
    if not out:
        raise KernelTableError(f"{name} tuning points must be non-empty")
    for p in out:
        if p < 1 or p & (p - 1):
            raise KernelTableError(
                f"{name} tuning points must be powers of two (one bucket "
                f"representative per octave), got {p}"
            )
    if len(set(out)) != len(out):
        raise KernelTableError(f"duplicate {name} tuning point in {out}")
    return out


def tune_grid(
    dims: Sequence[int] = TUNE_DIMS,
    batches: Sequence[int] = TUNE_BATCHES,
) -> ShapeGrid:
    """The SoA tuning grid: full cross product of representatives."""
    dims = _validate_points("dim", dims)
    batches = _validate_points("batch", batches)
    mesh = np.stack(
        [
            a.ravel()
            for a in np.meshgrid(batches, dims, dims, dims, indexing="ij")
        ],
        axis=1,
    ).astype(np.int64)
    return ShapeGrid.from_columns(
        batch=mesh[:, 0], m=mesh[:, 1], n=mesh[:, 2], k=mesh[:, 3]
    )


#: Tile columns per candidate pool, keyed on the pool's identity: the
#: engine hands out one memoized tuple per default pool, so the
#: one-shape fallback hits without hashing every tile.  Each value holds
#: its pool, which keeps the id from being reused while it is cached.
_POOL_COLUMNS = LRUCache(maxsize=64)


def _pool_columns(
    pool: Tuple[TileConfig, ...],
) -> Tuple[Tuple[TileConfig, ...], np.ndarray, np.ndarray]:
    """``(pool, names, geometry)`` for one candidate pool.

    ``names`` is an object array of tile names with a trailing ``None``
    (index ``len(pool)`` means "no runner-up"); ``geometry`` is the
    ``(C, 4)`` array of ``(tile_m, tile_n, k_stage, threads)``.
    """
    hit = _POOL_COLUMNS.get(id(pool))
    if hit is None:
        names = np.array([t.name for t in pool] + [None], dtype=object)
        geometry = np.array(
            [(t.m, t.n, t.k_stage, t.threads) for t in pool], dtype=np.int64
        )
        hit = (pool, names, geometry)
        _POOL_COLUMNS.put(id(pool), hit)
    return hit


def _argmin_entries(grid: ShapeGrid, sweep: TileSweep) -> Tuple[KernelEntry, ...]:
    """Per-shape winners (and runners-up) from a tile sweep.

    Every field is computed as a column; the entries are then one
    positional ``KernelEntry._make`` per shape over the zipped columns.
    """
    # (candidates, shapes) views of the sweep; nothing is copied.
    latency = sweep.matrix("latency_s")
    best = np.argmin(latency, axis=0)
    cols = np.arange(len(grid))
    # Runner-up: mask the winner out and argmin again (vectorized).
    masked = latency.copy()
    masked[best, cols] = np.inf
    second = np.argmin(masked, axis=0)
    win_latency = latency[best, cols]
    second_latency = masked[second, cols]
    has_second = np.isfinite(second_latency)
    # Runner-up over winner latency; 1.0 without a runner-up or when
    # the winner's latency is not positive.
    margin = np.divide(
        second_latency, win_latency, out=np.ones_like(win_latency),
        where=has_second & (win_latency > 0),
    )
    _, names, geometry = _pool_columns(sweep.pool)
    runner_up = np.where(has_second, second, len(names) - 1)
    return tuple(
        map(
            KernelEntry._make,
            zip(
                *(grid.column(c).tolist() for c in SHAPE_COLUMNS),
                names[best].tolist(),
                *geometry[best].T.tolist(),
                sweep.matrix("waves")[best, cols].tolist(),
                sweep.matrix("blocks")[best, cols].tolist(),
                win_latency.tolist(),
                sweep.matrix("tflops")[best, cols].tolist(),
                names[runner_up].tolist(),
                margin.tolist(),
            ),
        )
    )


def tune_table(
    gpu: str,
    dtype: str = "fp16",
    engine: Optional[ShapeEngine] = None,
    dims: Sequence[int] = TUNE_DIMS,
    batches: Sequence[int] = TUNE_BATCHES,
) -> KernelTable:
    """Tune one (GPU, dtype) table by batched analytical search.

    One engine evaluation prices the whole (candidate x shape) latency
    surface; everything else is NumPy reductions over it.
    """
    spec = get_gpu(gpu)
    parsed = DType.parse(dtype)
    eng = engine if engine is not None else default_engine()
    grid = tune_grid(dims=dims, batches=batches)
    pool = candidate_tiles(spec, parsed)
    with _span(
        "kernels.tune", gpu=spec.name, dtype=parsed.name,
        shapes=len(grid), tiles=len(pool),
    ):
        sweep = eng.evaluate_tiles(grid, spec, parsed, candidates=pool)
        entries = _argmin_entries(grid, sweep)
    return KernelTable(
        gpu=spec.name,
        dtype=parsed.name,
        model_version=model_version(),
        schema=SCHEMA_VERSION,
        provenance=tuple(
            sorted(
                {
                    "tuner": "repro.kernels.search",
                    "dims": list(_validate_points("dim", dims)),
                    "batches": list(_validate_points("batch", batches)),
                    "candidates": [t.name for t in pool],
                    "shapes": len(grid),
                }.items()
            )
        ),
        entries=entries,
    )


def best_for_shapes(
    shapes: Sequence[Sequence[int]],
    gpu: str,
    dtype: str = "fp16",
    engine: Optional[ShapeEngine] = None,
) -> Tuple[KernelEntry, ...]:
    """The analytical fallback: argmin over candidates at exact shapes.

    ``shapes`` holds ``(batch, m, n, k)`` rows; every row is priced in
    *one* tile sweep and answered by its own argmin.  The sweep prices
    each row independently, so a row's entry does not depend on which
    other rows share the sweep.  Used by the resolver on table misses;
    the pick is computed with the *same* tile sweep the tuner uses, so
    a fallback answer at a representative shape is identical to the
    table entry tuned there.
    """
    spec = get_gpu(gpu)
    parsed = DType.parse(dtype)
    eng = engine if engine is not None else default_engine()
    rows = np.asarray(shapes, dtype=np.int64).reshape(-1, 4)
    grid = ShapeGrid.from_columns(
        batch=rows[:, 0], m=rows[:, 1], n=rows[:, 2], k=rows[:, 3]
    )
    sweep = eng.evaluate_tiles(grid, spec, parsed)
    return _argmin_entries(grid, sweep)


def best_for_shape(
    batch: int,
    m: int,
    n: int,
    k: int,
    gpu: str,
    dtype: str = "fp16",
    engine: Optional[ShapeEngine] = None,
) -> KernelEntry:
    """One-shape view of :func:`best_for_shapes`."""
    return best_for_shapes([(batch, m, n, k)], gpu, dtype, engine=engine)[0]
