"""Differential wall: column-assembled records vs per-record construction.

``kernels.search._argmin_entries`` computes every entry field as a
column and builds the entries with one positional ``KernelEntry._make``
per shape; ``ParallelPlanner.plan`` does the same for its plans.  The
references below are the per-record forms they replaced: a Python loop
over shapes that builds each ``KernelEntry`` by keyword, and the
per-cell planner of ``tests/parallelism/test_plan_cells.py``.  Every
comparison is ``==`` and the field types are checked too, since a
NumPy scalar would compare equal and still change the artifact's JSON.
"""

import math
import random

import numpy as np
import pytest

from repro.core.config import list_models
from repro.engine.core import ShapeEngine
from repro.engine.grid import ShapeGrid
from repro.gpu.specs import get_gpu
from repro.kernels.search import _argmin_entries, best_for_shape, tune_grid
from repro.kernels.table import SCHEMA_VERSION, KernelEntry, KernelTable
from repro.parallelism.planner import ParallelPlan, ParallelPlanner
from repro.types import DType
from tests.parallelism.test_plan_cells import ReferencePlanner

GPUS = ("A100", "H100", "V100", "MI250X")

#: The planner systems and GPU count of the ``sizing`` benchmark.
SIZING_SYSTEMS = ("aws-p4d", "ornl-summit", "sdsc-expanse")
SIZING_GPUS = 64

_ENGINE = ShapeEngine()

_ENTRY_TYPES = {
    "batch": int, "m": int, "n": int, "k": int, "tile": str,
    "tile_m": int, "tile_n": int, "k_stage": int, "threads": int,
    "waves": int, "blocks": int, "latency_s": float, "tflops": float,
    "margin": float,
}

_PLAN_TYPES = {
    "tp": int, "pp": int, "dp": int, "iteration_time_s": float,
    "comm_fraction": float, "fits_memory": bool, "balanced_pipeline": bool,
    "checkpointing": str, "peak_memory_bytes": float,
    "peak_memory_phase": str,
}


def reference_entries(grid, sweep):
    """The per-shape loop: one keyword ``KernelEntry`` per shape."""
    latency = sweep.matrix("latency_s")
    tflops = sweep.matrix("tflops")
    waves = sweep.matrix("waves")
    blocks = sweep.matrix("blocks")
    best = np.argmin(latency, axis=0)
    cols = np.arange(len(grid))
    masked = latency.copy()
    masked[best, cols] = np.inf
    second = np.argmin(masked, axis=0)
    tiles = sweep.pool
    rows = zip(
        grid.shapes.tolist(),
        best.tolist(),
        second.tolist(),
        latency[best, cols].tolist(),
        masked[second, cols].tolist(),
        tflops[best, cols].tolist(),
        waves[best, cols].tolist(),
        blocks[best, cols].tolist(),
    )
    entries = []
    for (b, m, n, k), win, sec, win_latency, second_latency, tf, wv, bl in rows:
        tile = tiles[win]
        has_second = math.isfinite(second_latency)
        entries.append(
            KernelEntry(
                batch=b, m=m, n=n, k=k,
                tile=tile.name, tile_m=tile.m, tile_n=tile.n,
                k_stage=tile.k_stage, threads=tile.threads,
                waves=wv, blocks=bl,
                latency_s=win_latency, tflops=tf,
                runner_up=tiles[sec].name if has_second else None,
                margin=(
                    second_latency / win_latency
                    if has_second and win_latency > 0
                    else 1.0
                ),
            )
        )
    return tuple(entries)


def _assert_entry_types(entry):
    assert type(entry) is KernelEntry
    for name, kind in _ENTRY_TYPES.items():
        assert type(getattr(entry, name)) is kind, (name, entry)
    assert entry.runner_up is None or type(entry.runner_up) is str


def _checksum(entries):
    return KernelTable(
        gpu="wall", dtype="FP16", model_version="wall", schema=SCHEMA_VERSION,
        provenance=(), entries=entries,
    ).checksum()


def _one_shape_grid(batch, m, n, k):
    return ShapeGrid.from_columns(
        batch=np.asarray([batch], dtype=np.int64),
        m=np.asarray([m], dtype=np.int64),
        n=np.asarray([n], dtype=np.int64),
        k=np.asarray([k], dtype=np.int64),
    )


@pytest.mark.parametrize("gpu", GPUS)
def test_full_grid_matches_per_shape_loop(gpu):
    grid = tune_grid()
    sweep = _ENGINE.evaluate_tiles(grid, get_gpu(gpu), DType.FP16)
    got = _argmin_entries(grid, sweep)
    want = reference_entries(grid, sweep)
    assert len(got) == len(grid)
    assert got == want
    for entry in got:
        _assert_entry_types(entry)
    assert _checksum(got) == _checksum(want)


@pytest.mark.parametrize("gpu", GPUS)
def test_single_candidate_pool_has_no_runner_up(gpu):
    spec = get_gpu(gpu)
    grid = tune_grid(dims=(256, 512), batches=(1,))
    tile = _ENGINE.evaluate_tiles(grid, spec, DType.FP16).pool[0]
    sweep = _ENGINE.evaluate_tiles(grid, spec, DType.FP16, candidates=(tile,))
    got = _argmin_entries(grid, sweep)
    assert got == reference_entries(grid, sweep)
    assert {(e.runner_up, e.margin) for e in got} == {(None, 1.0)}


def test_best_for_shape_matches_per_shape_loop():
    rng = random.Random(20240)
    for _ in range(50):
        gpu = rng.choice(GPUS)
        shape = (
            rng.randint(1, 16),
            rng.randint(1, 12288),
            rng.randint(1, 12288),
            rng.randint(1, 12288),
        )
        got = best_for_shape(*shape, gpu, engine=_ENGINE)
        grid = _one_shape_grid(*shape)
        sweep = _ENGINE.evaluate_tiles(grid, get_gpu(gpu), DType.FP16)
        (want,) = reference_entries(grid, sweep)
        assert got == want, (gpu, shape)
        _assert_entry_types(got)


def test_pool_columns_follow_a_new_pool():
    """A pool with the default's length but other tiles is not served
    the default pool's names."""
    spec = get_gpu("A100")
    default = _ENGINE.evaluate_tiles(
        _one_shape_grid(1, 512, 512, 512), spec, DType.FP16
    ).pool
    reordered = tuple(reversed(default))
    grid = _one_shape_grid(1, 4096, 96, 512)
    for pool in (default, reordered, default):
        sweep = _ENGINE.evaluate_tiles(grid, spec, DType.FP16, candidates=pool)
        assert _argmin_entries(grid, sweep) == reference_entries(grid, sweep)


@pytest.mark.parametrize("system", SIZING_SYSTEMS)
def test_plans_match_per_cell_planner(system):
    planner = ParallelPlanner(system)
    reference = ReferencePlanner(system)
    for cfg in list_models():
        got = planner.plan(cfg, SIZING_GPUS)
        assert got == reference.plan(cfg, SIZING_GPUS), cfg.name
        for plan in got:
            assert type(plan) is ParallelPlan
            for name, kind in _PLAN_TYPES.items():
                assert type(getattr(plan, name)) is kind, (cfg.name, name)


def test_records_are_immutable():
    entry = best_for_shape(1, 512, 512, 512, "A100", engine=_ENGINE)
    with pytest.raises(AttributeError):
        entry.tile = "1x1"
    plan = ParallelPlanner("aws-p4d").plan(list_models()[0], 8)[0]
    with pytest.raises(AttributeError):
        plan.tp = 3
    # Records change only by copy; the original stays as it was.
    assert entry._replace(tile="1x1").tile == "1x1" != entry.tile
