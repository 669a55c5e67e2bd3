"""Property suite for the batched analytical tuner.

Three contracts from the issue, as hypothesis properties:

- the tuned pick is always drawn from the feasible candidate pool for
  that (GPU, dtype) — never an invented geometry;
- re-tuning under one engine model version is deterministic down to
  the byte, which is what the golden-drift CI gate stands on;
- under the analytical model the tuned pick is never slower than the
  untuned :func:`~repro.gpu.tiles.select_tile` heuristic's pick — the
  tuner's argmin ranges over a pool that *contains* the heuristic's
  choice, so tuning can only help.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.core import ShapeEngine
from repro.engine.grid import ShapeGrid
from repro.errors import KernelTableError
from repro.gpu.specs import get_gpu
from repro.gpu.tiles import candidate_tiles, select_tile
from repro.kernels.search import best_for_shape, tune_grid, tune_table
from repro.types import DType

# One engine for every example: resolution is stateless, and the
# per-example cost is the point of the whole-grid path.
_ENGINE = ShapeEngine()

_dims = st.integers(min_value=32, max_value=8192)
_batches = st.integers(min_value=1, max_value=16)
_gpus = st.sampled_from(["A100", "H100", "V100"])


def _pinned_latency(tile, batch, m, n, k, spec, dtype):
    """The analytical latency of one tile at one exact shape."""
    grid = ShapeGrid.from_columns(
        batch=np.asarray([batch], dtype=np.int64),
        m=np.asarray([m], dtype=np.int64),
        n=np.asarray([n], dtype=np.int64),
        k=np.asarray([k], dtype=np.int64),
    )
    sweep = _ENGINE.evaluate_tiles(grid, spec, dtype, candidates=(tile,))
    return float(sweep.matrix("latency_s")[0, 0])


class TestPickMembership:
    @settings(max_examples=25, deadline=None)
    @given(batch=_batches, m=_dims, n=_dims, k=_dims, gpu=_gpus)
    def test_tuned_pick_is_a_real_candidate(self, batch, m, n, k, gpu):
        spec = get_gpu(gpu)
        dtype = DType.parse("fp16")
        pool = {t.name for t in candidate_tiles(spec, dtype)}
        entry = best_for_shape(batch, m, n, k, gpu, engine=_ENGINE)
        assert entry.tile in pool
        assert entry.runner_up is None or entry.runner_up in pool
        assert entry.runner_up != entry.tile
        assert entry.margin >= 1.0
        assert entry.latency_s > 0 and entry.tflops > 0

    def test_tuned_table_picks_are_candidates(self, tiny_table):
        pool = {
            t.name
            for t in candidate_tiles(get_gpu("A100"), DType.parse("fp16"))
        }
        assert {e.tile for e in tiny_table.entries} <= pool


class TestNeverSlowerThanHeuristic:
    @settings(max_examples=25, deadline=None)
    @given(batch=_batches, m=_dims, n=_dims, k=_dims, gpu=_gpus)
    def test_tuned_beats_or_matches_select_tile(self, batch, m, n, k, gpu):
        spec = get_gpu(gpu)
        dtype = DType.parse("fp16")
        entry = best_for_shape(batch, m, n, k, gpu, engine=_ENGINE)
        heuristic = select_tile(m, n, k, spec, dtype, batch=batch)
        heuristic_latency = _pinned_latency(
            heuristic, batch, m, n, k, spec, dtype
        )
        # argmin over a pool containing the heuristic's pick: <= holds
        # exactly (same model, same floats), no tolerance needed.
        assert entry.latency_s <= heuristic_latency


class TestDeterminism:
    def test_retune_is_byte_identical(self, engine):
        a = tune_table("A100", dims=(256, 512), batches=(1,), engine=engine)
        b = tune_table(
            "A100", dims=(256, 512), batches=(1,), engine=ShapeEngine()
        )
        assert a.to_json() == b.to_json()
        assert a.checksum() == b.checksum()

    def test_point_order_does_not_matter(self, engine):
        # The grid is a cross product in meshgrid order; permuting the
        # *input* points permutes rows but the entries land in the same
        # buckets with the same winners.
        a = tune_table("A100", dims=(256, 512), batches=(1,), engine=engine)
        b = tune_table("A100", dims=(512, 256), batches=(1,), engine=engine)
        assert a.index().keys() == b.index().keys()
        for bucket, entry in a.index().items():
            assert b.index()[bucket].tile == entry.tile

    def test_fallback_at_representative_matches_table(self, tiny_table):
        # Same argmin, same pinned path: a fallback answer at a tuning
        # point is the table entry tuned there.
        entry = tiny_table.lookup(1, 512, 256, 512)
        fallback = best_for_shape(1, 512, 256, 512, "A100", engine=_ENGINE)
        assert fallback == entry


class TestTuneGridValidation:
    def test_grid_is_the_full_cross_product(self):
        grid = tune_grid(dims=(256, 512), batches=(1, 8))
        assert len(grid) == 2 * 2 ** 3
        shapes = {tuple(int(v) for v in row) for row in grid.shapes}
        assert (8, 512, 256, 512) in shapes

    @pytest.mark.parametrize(
        "kw",
        [
            dict(dims=()),
            dict(batches=()),
            dict(dims=(256, 300)),  # not a power of two
            dict(dims=(256, 256)),  # duplicate representative
            dict(batches=(0,)),
        ],
    )
    def test_bad_tuning_points_rejected(self, kw):
        with pytest.raises(KernelTableError):
            tune_grid(**kw)
