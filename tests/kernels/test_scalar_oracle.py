"""Kernel answers against an oracle that shares no code with the sweep.

``verify_against_engine`` re-resolves served kernel answers through the
same resolver and engine sweep, so a bug in the sweep would agree with
itself.  Here the expected answer comes from the scalar
:class:`~repro.gpu.gemm_model.GemmModel` instead: one pinned-tile model
per candidate, evaluated at the exact shape, with the first minimum
winning ties exactly as ``np.argmin`` does.
"""

import random

import pytest

from repro.engine.core import ShapeEngine
from repro.gpu.gemm_model import GemmModel
from repro.gpu.specs import get_gpu
from repro.gpu.tiles import candidate_tiles
from repro.kernels.search import best_for_shape
from repro.types import DType

_DIMS = (1, 7, 48, 64, 100, 128, 384, 1000, 1024, 2048, 3000, 4096, 8192)


def _sampled_shapes(seed: int, count: int):
    rng = random.Random(seed)
    return [
        (rng.choice((1, 2, 3, 8)), rng.choice(_DIMS), rng.choice(_DIMS),
         rng.choice(_DIMS))
        for _ in range(count)
    ]


def _first_min(latencies):
    best = 0
    for i, value in enumerate(latencies):
        if value < latencies[best]:
            best = i
    return best


@pytest.mark.parametrize(
    "gpu,dtype",
    [("A100", "fp16"), ("H100", "bf16"), ("V100", "fp32"), ("MI250X", "fp16")],
)
def test_best_for_shape_matches_scalar_argmin(gpu, dtype):
    pool = candidate_tiles(get_gpu(gpu), DType.parse(dtype))
    models = [GemmModel(gpu, dtype, tile=tile) for tile in pool]
    engine = ShapeEngine()
    for batch, m, n, k in _sampled_shapes(seed=len(gpu), count=12):
        latencies = [
            model.evaluate(m, n, k, batch).latency_s  # lint: allow(scalar-eval-in-loop)
            for model in models
        ]
        win = _first_min(latencies)
        rest = [lat if i != win else float("inf") for i, lat in enumerate(latencies)]
        second = _first_min(rest)

        entry = best_for_shape(batch, m, n, k, gpu, dtype, engine=engine)
        assert entry.tile == pool[win].name
        assert entry.latency_s == latencies[win]
        assert entry.runner_up == pool[second].name
        assert entry.margin == latencies[second] / latencies[win]
