"""Parity tests: the vectorized engine must equal the scalar model bitwise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.core import random_shapes
from repro.engine.vectorized import BatchResult, evaluate_batch, shape_array
from repro.errors import GPUModelError, ShapeError
from repro.gpu.gemm_model import GemmModel, GemmPerf
from repro.gpu.tiles import candidate_tiles, default_tile
from repro.harness.bench import verify_against_scalar
from repro.types import DType


class TestShapeArray:
    def test_scalar_broadcast(self):
        arr = shape_array(128, 256, 64)
        assert arr.shape == (1, 4)
        assert arr.tolist() == [[1, 128, 256, 64]]

    def test_array_broadcast(self):
        sizes = np.array([256, 512, 1024])
        arr = shape_array(sizes, sizes, sizes)
        assert arr.shape == (3, 4)
        assert arr[:, 0].tolist() == [1, 1, 1]
        assert arr[:, 1].tolist() == [256, 512, 1024]

    def test_batch_sweep(self):
        arr = shape_array(2048, 2048, 64, [1, 8, 64])
        assert arr[:, 0].tolist() == [1, 8, 64]
        assert (arr[:, 1] == 2048).all()


class TestEvaluateBatchErrors:
    def test_nonpositive_dim_raises(self):
        with pytest.raises(ShapeError):
            evaluate_batch([[1, 128, 0, 64]], "A100")

    def test_bad_shape_raises(self):
        with pytest.raises(ShapeError):
            evaluate_batch(np.ones((3, 3), dtype=np.int64), "A100")

    def test_bad_bw_efficiency_raises(self):
        with pytest.raises(ShapeError):
            evaluate_batch([[1, 128, 128, 64]], "A100", bw_efficiency=0.0)

    def test_empty_candidates_raises(self):
        with pytest.raises(GPUModelError):
            evaluate_batch([[1, 128, 128, 64]], "A100", candidates=[])


class TestScalarParity:
    """The acceptance bar: exact equality on a large randomized grid."""

    def test_randomized_grid(self):
        # 50 points x 4 GPUs x 2 dtypes (+ pinned-tile passes where the
        # default tile fits) = well over the 500-point acceptance floor.
        report = verify_against_scalar(
            points=50,
            gpus=("A100", "V100", "H100", "MI250X"),
            dtypes=("fp16", "fp32"),
            seed=7,
        )
        assert report.points >= 500
        assert report.mismatches == 0, report.describe()
        assert len(report.combos) == 8

    def test_every_field_matches_scalar(self):
        rng = np.random.default_rng(11)
        shapes = random_shapes(rng, 40)
        batch = evaluate_batch(shapes, "A100", "fp16")
        model = GemmModel("A100", "fp16")
        for i, (b, m, n, k) in enumerate(shapes):
            perf = model.evaluate(int(m), int(n), int(k), int(b))
            got = GemmPerf.from_batch(batch, i)
            assert got == perf, f"row {i}: {got} != {perf}"

    def test_pinned_tile_parity(self):
        tile = default_tile()
        sizes = np.arange(256, 4097, 256)
        batch = evaluate_batch(
            shape_array(sizes, sizes, sizes), "A100", "fp16", tile=tile
        )
        model = GemmModel("A100", "fp16", tile=tile)
        assert all(t == tile for t in batch.pool)
        for i, s in enumerate(sizes):
            perf = model.evaluate(int(s), int(s), int(s))
            assert perf.latency_s == float(batch.latency_s[i])
            assert perf.tflops == float(batch.tflops[i])

    def test_explicit_candidates_parity(self):
        from repro.gpu.specs import get_gpu

        pool = candidate_tiles(get_gpu("A100"), DType.FP16)[:2]
        shapes = shape_array([300, 5000], [700, 80], [64, 640])
        batch = evaluate_batch(shapes, "A100", "fp16", candidates=pool)
        model = GemmModel("A100", "fp16", candidates=pool)
        for i, (b, m, n, k) in enumerate(shapes):
            perf = model.evaluate(int(m), int(n), int(k), int(b))
            assert perf.tile == batch.tile(i)
            assert perf.latency_s == float(batch.latency_s[i])

    def test_batched_bmm_parity(self):
        shapes = shape_array(2048, 2048, [64, 80, 128], [16, 96, 256])
        batch = evaluate_batch(shapes, "V100", "fp16")
        model = GemmModel("V100", "fp16")
        for i, (b, m, n, k) in enumerate(shapes):
            perf = model.evaluate(int(m), int(n), int(k), int(b))
            assert perf.latency_s == float(batch.latency_s[i])
            assert perf.bound == str(batch.bound[i])

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 16384),
        n=st.integers(1, 16384),
        k=st.integers(1, 16384),
        b=st.integers(1, 512),
        gpu=st.sampled_from(["A100", "V100", "H100"]),
        dtype=st.sampled_from(["fp16", "fp32"]),
    )
    def test_property_single_shape(self, m, n, k, b, gpu, dtype):
        batch = evaluate_batch([[b, m, n, k]], gpu, dtype)
        perf = GemmModel(gpu, dtype).evaluate(m, n, k, batch=b)
        assert perf.latency_s == float(batch.latency_s[0])
        assert perf.tflops == float(batch.tflops[0])
        assert perf.tile == batch.tile(0)


class TestBatchResult:
    def test_roundtrip_through_arrays(self):
        shapes = random_shapes(np.random.default_rng(3), 16)
        batch = evaluate_batch(shapes, "H100", "fp16")
        clone = BatchResult.from_arrays(batch.to_arrays(), batch.meta())
        assert clone.gpu == batch.gpu and clone.dtype == batch.dtype
        assert clone.pool == batch.pool
        for name in BatchResult._ARRAY_FIELDS:
            np.testing.assert_array_equal(getattr(clone, name), getattr(batch, name))

    def test_len_and_bound_labels(self):
        shapes = shape_array([64, 8192], [64, 8192], [80, 8192])
        batch = evaluate_batch(shapes, "A100")
        assert len(batch) == 2
        model = GemmModel("A100")
        for i, (b, m, n, k) in enumerate(shapes):
            assert str(batch.bound[i]) == model.evaluate(int(m), int(n), int(k)).bound
        # The large aligned GEMM must be compute-bound.
        assert str(batch.bound[1]) == "compute"
