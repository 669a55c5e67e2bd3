"""The one-evaluation tile sweep behind ``ShapeEngine.evaluate_tiles``.

``evaluate_tiles`` prices every (candidate tile, shape) pair in one
vectorized pass and one cache entry.  These tests pin that down against
the per-tile path it replaced: each returned slice must equal
``evaluate_batch(..., tile=t)`` in value and dtype on every array
field, a cold sweep is exactly one engine compute, and the sweep
survives a disk round trip unchanged.
"""

import numpy as np
import pytest

from repro.engine.core import ShapeEngine, random_shapes
from repro.engine.grid import ShapeGrid, TileSweep
from repro.engine.vectorized import BatchResult, evaluate_batch
from repro.errors import GPUModelError
from repro.gpu.specs import get_gpu, list_gpus
from repro.gpu.tiles import candidate_tiles
from repro.observability.metrics import metrics
from repro.types import DType

_COMBOS = [
    (spec.name, dtype)
    for spec in list_gpus()
    for dtype in DType
    if spec.supports_matrix(dtype) or dtype in spec.vector_tflops
]


def _grid(shapes: np.ndarray) -> ShapeGrid:
    return ShapeGrid.from_columns(
        batch=shapes[:, 0], m=shapes[:, 1], n=shapes[:, 2], k=shapes[:, 3]
    )


def _counter(name: str) -> int:
    return metrics().counter(name).value


def _per_tile(sweep: TileSweep):
    """``(tile, BatchResult)`` per candidate, each shaped as
    ``evaluate_batch(..., tile=tile)`` returns it: a one-tile pool and
    an all-zero ``tile_index``.  The sweep's own ``tile_index`` must
    name each row's block."""
    batch = sweep.batch
    rows = len(sweep.grid)
    parts = []
    for c, tile in enumerate(sweep.pool):
        assert (sweep.matrix("tile_index")[c] == c).all()
        block = slice(c * rows, (c + 1) * rows)
        fields = {
            name: getattr(batch, name)[block]
            for name in BatchResult._ARRAY_FIELDS
            if name != "tile_index"
        }
        parts.append((tile, BatchResult(
            gpu=batch.gpu,
            dtype=batch.dtype,
            pool=(tile,),
            tile_index=np.zeros(rows, dtype=np.int64),
            overhead_s=batch.overhead_s,
            **fields,
        )))
    return parts


def _assert_same(got: BatchResult, want: BatchResult) -> None:
    assert got.gpu == want.gpu
    assert got.dtype == want.dtype
    assert got.pool == want.pool
    assert got.overhead_s == want.overhead_s
    for name in BatchResult._ARRAY_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name


class TestSweepParity:
    @pytest.mark.parametrize(
        "seed,gpu,dtype",
        [(seed, gpu, dtype) for seed, (gpu, dtype) in enumerate(_COMBOS)],
        ids=[f"{gpu}-{dtype.name}" for gpu, dtype in _COMBOS],
    )
    def test_sweep_equals_per_tile_batches(self, seed, gpu, dtype):
        shapes = random_shapes(np.random.default_rng(seed), 64)
        sweep = ShapeEngine().evaluate_tiles(_grid(shapes), gpu, dtype)
        pool = candidate_tiles(get_gpu(gpu), dtype)
        assert list(sweep.pool) == list(pool)
        for tile, result in _per_tile(sweep):
            _assert_same(result, evaluate_batch(shapes, gpu, dtype, tile=tile))

    def test_explicit_subset_keeps_order(self):
        shapes = random_shapes(np.random.default_rng(1), 16)
        pool = candidate_tiles(get_gpu("A100"), DType.FP16)
        subset = (pool[4], pool[0], pool[9])
        sweep = ShapeEngine().evaluate_tiles(
            _grid(shapes), "A100", "fp16", candidates=subset
        )
        assert sweep.pool == subset
        for tile, result in _per_tile(sweep):
            _assert_same(
                result, evaluate_batch(shapes, "A100", "fp16", tile=tile)
            )

    def test_no_math_path_raises_like_per_tile(self):
        # V100 has no TF32 path at all: the sweep fails with the same
        # error type the per-tile evaluation does.
        shapes = random_shapes(np.random.default_rng(2), 4)
        with pytest.raises(GPUModelError):
            evaluate_batch(
                shapes, "V100", "tf32",
                tile=candidate_tiles(get_gpu("V100"), DType.TF32)[0],
            )
        with pytest.raises(GPUModelError):
            ShapeEngine().evaluate_tiles(_grid(shapes), "V100", "tf32")


class TestSweepMatrix:
    def test_matrix_is_a_view_of_the_stacked_tiles(self):
        shapes = random_shapes(np.random.default_rng(6), 12)
        sweep = ShapeEngine().evaluate_tiles(_grid(shapes), "A100", "fp16")
        assert len(sweep) == len(sweep.pool)
        for name in ("latency_s", "tflops", "waves", "blocks"):
            matrix = sweep.matrix(name)
            assert matrix.shape == (len(sweep), 12)
            assert np.shares_memory(matrix, getattr(sweep.batch, name))
            stacked = np.stack([
                getattr(evaluate_batch(shapes, "A100", "fp16", tile=t), name)
                for t in sweep.pool
            ])
            assert matrix.dtype == stacked.dtype
            assert np.array_equal(matrix, stacked)

    def test_row_count_must_match_tiles_times_shapes(self):
        shapes = random_shapes(np.random.default_rng(7), 4)
        sweep = ShapeEngine().evaluate_tiles(_grid(shapes), "H100", "fp16")
        with pytest.raises(ValueError):
            TileSweep(_grid(shapes[:3]), sweep.batch)


class TestSweepCaching:
    def test_cold_sweep_is_one_compute_warm_is_one_hit(self):
        grid = _grid(random_shapes(np.random.default_rng(3), 32))
        engine = ShapeEngine()
        computes = _counter("engine.evaluate.computes")
        rows = _counter("engine.evaluate.shapes_computed")
        cold = engine.evaluate_tiles(grid, "H100", "fp16")
        assert _counter("engine.evaluate.computes") == computes + 1
        assert _counter("engine.evaluate.shapes_computed") == rows + len(cold) * 32

        hits = _counter("engine.evaluate.memory_hits")
        warm = engine.evaluate_tiles(grid, "H100", "fp16")
        assert _counter("engine.evaluate.computes") == computes + 1
        assert _counter("engine.evaluate.memory_hits") == hits + 1
        _assert_same(warm.batch, cold.batch)

    def test_default_pool_spelled_out_shares_the_entry(self):
        grid = _grid(random_shapes(np.random.default_rng(4), 8))
        engine = ShapeEngine()
        engine.evaluate_tiles(grid, "A100", "fp16")
        computes = _counter("engine.evaluate.computes")
        pool = candidate_tiles(get_gpu("A100"), DType.FP16)
        engine.evaluate_tiles(grid, "A100", "fp16", candidates=pool)
        assert _counter("engine.evaluate.computes") == computes

    def test_disk_round_trip_is_identical(self, tmp_path):
        grid = _grid(random_shapes(np.random.default_rng(5), 24))
        first = ShapeEngine(disk_dir=tmp_path).evaluate_tiles(grid, "MI250X", "bf16")
        computes = _counter("engine.evaluate.computes")
        disk_hits = _counter("engine.evaluate.disk_hits")
        fresh = ShapeEngine(disk_dir=tmp_path)
        again = fresh.evaluate_tiles(grid, "MI250X", "bf16")
        assert _counter("engine.evaluate.computes") == computes
        assert _counter("engine.evaluate.disk_hits") == disk_hits + 1
        assert len(fresh._disk) == 1
        _assert_same(again.batch, first.batch)
