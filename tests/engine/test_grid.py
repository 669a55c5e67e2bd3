"""SoA grid front door: ShapeGrid/GridResult + scalar≡vectorized≡grid parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.core import ShapeEngine, default_engine
from repro.engine.grid import GridResult, ShapeGrid
from repro.engine.vectorized import evaluate_batch
from repro.gpu.gemm_model import GemmModel


class TestShapeGrid:
    def test_scalar_broadcast_and_defaults(self):
        grid = ShapeGrid.from_columns(m=[128, 256], n=64, k=32)
        assert len(grid) == 2
        assert grid.column("batch").tolist() == [1, 1]
        assert grid.column("n").tolist() == [64, 64]
        assert grid.column("m").dtype == np.int64

    def test_shapes_canonical_layout(self):
        grid = ShapeGrid.from_columns(batch=[2, 4], m=[128, 256], n=64, k=32)
        shapes = grid.shapes
        assert shapes.shape == (2, 4)
        assert shapes.tolist() == [[2, 128, 64, 32], [4, 256, 64, 32]]
        assert shapes.flags.c_contiguous

    def test_annotation_columns_keep_dtype(self):
        grid = ShapeGrid.from_columns(m=[1, 2], n=1, k=1, frac=[0.5, 0.25])
        assert grid.column("frac").dtype == np.float64

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ShapeGrid.from_columns(m=[1, 2], n=[1, 2, 3], k=1)

    def test_object_dtype_raises(self):
        with pytest.raises(TypeError):
            ShapeGrid.from_columns(m=[1, 2], n=1, k=1, bad=[object(), object()])

    def test_2d_column_raises(self):
        with pytest.raises(ValueError):
            ShapeGrid.from_columns(m=np.ones((2, 2)), n=1, k=1)

    def test_concat(self):
        a = ShapeGrid.from_columns(m=[1, 2], n=1, k=1, tag=[10, 11])
        b = ShapeGrid.from_columns(m=[3], n=1, k=1, tag=[12])
        cat = ShapeGrid.concat([a, b])
        assert len(cat) == 3
        assert cat.column("m").tolist() == [1, 2, 3]
        assert cat.column("tag").tolist() == [10, 11, 12]

    def test_concat_column_mismatch_raises(self):
        a = ShapeGrid.from_columns(m=[1], n=1, k=1, tag=[1])
        b = ShapeGrid.from_columns(m=[1], n=1, k=1)
        with pytest.raises(ValueError):
            ShapeGrid.concat([a, b])

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            ShapeGrid.concat([])

    def test_select_and_with_columns(self):
        grid = ShapeGrid.from_columns(m=[64, 128, 256], n=1, k=1)
        small = grid.select(grid.column("m") < 200)
        assert small.column("m").tolist() == [64, 128]
        tagged = small.with_columns(double_m=2 * small.column("m"))
        assert tagged.column("double_m").tolist() == [128, 256]
        # originals untouched
        assert len(grid) == 3
        assert "double_m" not in small.names


class TestGridResult:
    def _result(self):
        grid = ShapeGrid.from_columns(
            batch=[1, 8], m=[2048, 1024], n=2048, k=64, label=[7, 9]
        )
        batch = evaluate_batch(grid.shapes, "A100")
        return grid, GridResult(grid, batch)

    def test_length_mismatch_raises(self):
        grid = ShapeGrid.from_columns(m=[1, 2, 3], n=1, k=1)
        batch = evaluate_batch([[1, 128, 128, 64]], "A100")
        with pytest.raises(ValueError):
            GridResult(grid, batch)

    def test_column_resolution(self):
        grid, res = self._result()
        assert res.column("label").tolist() == [7, 9]  # grid annotation
        assert res.column("tflops").shape == (2,)  # batch field
        assert len(res.column("bound")) == 2
        with pytest.raises(KeyError):
            res.column("nope")

    def test_rows_match_columns(self):
        _, res = self._result()
        cols = res.columns(("label", "tflops"))
        rows = res.rows(("label", "tflops"))
        assert rows == list(zip(cols["label"], cols["tflops"]))


class TestMemoColumns:
    def test_memory_roundtrip_and_counts(self):
        engine = ShapeEngine()
        calls = []

        def compute():
            calls.append(1)
            return {"a": np.arange(4), "b": np.linspace(0, 1, 4)}

        first = engine.memo_columns("t", ("k", 1), compute)
        second = engine.memo_columns("t", ("k", 1), compute)
        assert len(calls) == 1
        assert np.array_equal(first["a"], second["a"])

    def test_disk_roundtrip_across_engines(self, tmp_path):
        def compute():
            return {
                "x": np.array([1, 2, 3], dtype=np.int64),
                "name": np.array(["aa", "bb", "cc"]),
            }

        a = ShapeEngine(disk_dir=tmp_path)
        b = ShapeEngine(disk_dir=tmp_path)
        first = a.memo_columns("t", "key", compute)
        second = b.memo_columns(
            "t", "key", lambda: pytest.fail("should be served from disk")
        )
        assert np.array_equal(first["x"], second["x"])
        assert second["name"].tolist() == ["aa", "bb", "cc"]
        assert b.disk_stats.hits == 1

    def test_object_dtype_rejected(self):
        engine = ShapeEngine()
        with pytest.raises(TypeError):
            engine.memo_columns("t", "key", lambda: {"bad": [object()]})

    def test_distinct_keys_distinct_entries(self):
        engine = ShapeEngine()
        one = engine.memo_columns("t", 1, lambda: {"v": np.array([1])})
        two = engine.memo_columns("t", 2, lambda: {"v": np.array([2])})
        assert one["v"].tolist() == [1]
        assert two["v"].tolist() == [2]


_DIM = st.integers(min_value=1, max_value=4096)
_BATCH = st.integers(min_value=1, max_value=512)


class TestGridParity:
    """Acceptance property: scalar ≡ vectorized ≡ grid, bit for bit."""

    @given(
        rows=st.lists(
            st.tuples(_BATCH, _DIM, _DIM, _DIM), min_size=1, max_size=12
        ),
        gpu=st.sampled_from(["A100", "V100", "H100"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_three_paths_bitwise_equal(self, rows, gpu):
        batch = np.array([r[0] for r in rows], dtype=np.int64)
        m = np.array([r[1] for r in rows], dtype=np.int64)
        n = np.array([r[2] for r in rows], dtype=np.int64)
        k = np.array([r[3] for r in rows], dtype=np.int64)
        grid = ShapeGrid.from_columns(batch=batch, m=m, n=n, k=k)

        grid_res = default_engine().evaluate_grid(grid, gpu)
        vec = evaluate_batch(grid.shapes, gpu)
        model = GemmModel(gpu)

        np.testing.assert_array_equal(grid_res.batch.latency_s, vec.latency_s)
        np.testing.assert_array_equal(grid_res.batch.tflops, vec.tflops)
        for i, (b, mm, nn, kk) in enumerate(rows):
            perf = model.evaluate(mm, nn, kk, b)
            assert perf.latency_s == vec.latency_s[i]
            assert perf.tflops == vec.tflops[i]

    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=6), min_size=2, max_size=4
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_concat_is_bitwise_stable(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        grids = [
            ShapeGrid.from_columns(
                batch=rng.integers(1, 64, size=s),
                m=rng.integers(1, 2048, size=s),
                n=rng.integers(1, 2048, size=s),
                k=rng.integers(1, 2048, size=s),
            )
            for s in sizes
        ]
        whole = default_engine().evaluate_grid(ShapeGrid.concat(grids), "A100")
        parts = [default_engine().evaluate_grid(g, "A100") for g in grids]
        np.testing.assert_array_equal(
            whole.batch.latency_s,
            np.concatenate([p.batch.latency_s for p in parts]),
        )
        np.testing.assert_array_equal(
            whole.batch.tflops,
            np.concatenate([p.batch.tflops for p in parts]),
        )
