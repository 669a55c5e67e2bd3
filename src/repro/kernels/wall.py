"""The differential test wall: tuned picks vs the scalar GemmModel oracle.

The tuner ranks candidates with the engine's tile sweep (one vectorized
evaluation pricing every candidate tile at every shape); the oracle is
the scalar :class:`~repro.gpu.gemm_model.GemmModel`, one pinned-tile
model per candidate evaluated at the exact shape — the reference
implementation every engine path is pinned to bit for bit.

For each sampled validation shape the wall computes:

- the **oracle latencies**: every candidate tile through its pinned
  scalar model;
- the **sweep latencies**: the same candidates through the engine's
  tile sweep (one call pricing every candidate at every validation
  shape at once);
- the **table's pick**: resolved exactly like a serve query (bucket
  lookup, analytical fallback on a miss).

It then enforces two checks: the sweep's latency equals the oracle's
(``==`` on float64) for every candidate at every shape — any mismatch
fails the wall — and top-1 agreement (the served pick matches the
oracle's exact-shape winner, or loses to it by at most a hair —
``NEAR_TOP1_REL`` guards the coin-flip ties between near-equal tiles).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.core import ShapeEngine, default_engine
from repro.engine.grid import ShapeGrid
from repro.errors import KernelTableError
from repro.gpu.gemm_model import GemmModel
from repro.gpu.specs import get_gpu
from repro.gpu.tiles import candidate_tiles
from repro.kernels.registry import KernelParamResolver
from repro.kernels.table import KernelTable
from repro.types import DType

__all__ = ["WallReport", "run_wall", "validation_shapes"]

#: Acceptance floor: the fraction of validation shapes whose served
#: pick matches (or nearly matches) the oracle's winner.
TOP1_FLOOR = 0.8

#: A pick counts as agreeing with the oracle when its oracle latency is
#: within this relative distance of the oracle's winner — two tiles the
#: model itself barely separates are not a miss.
NEAR_TOP1_REL = 0.02

#: Validation-shape pool: moderate extents, aligned and misaligned, in-
#: and out-of-table.
_VALIDATION_DIMS = (
    192, 256, 384, 512, 768, 1000, 1024, 1536, 2048, 2560, 3072, 4096,
)
_VALIDATION_BATCHES = (1, 2, 4)


def validation_shapes(
    seed: int = 0, count: int = 12
) -> List[Tuple[int, int, int, int]]:
    """Deterministic sampled (batch, m, n, k) validation shapes."""
    if count < 1:
        raise KernelTableError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    shapes: List[Tuple[int, int, int, int]] = []
    seen = set()
    while len(shapes) < count:
        shape = (
            rng.choice(_VALIDATION_BATCHES),
            rng.choice(_VALIDATION_DIMS),
            rng.choice(_VALIDATION_DIMS),
            rng.choice(_VALIDATION_DIMS),
        )
        if shape not in seen:
            seen.add(shape)
            shapes.append(shape)
    return shapes


@dataclass
class ShapeVerdict:
    """One validation shape's comparison against the oracle.

    ``mismatches`` counts the candidates whose sweep latency is not
    bit-identical to the oracle's; ``pick_gap_rel`` is how far the
    served pick's oracle latency sits above the oracle winner's
    (0 = exact agreement).
    """

    shape: Tuple[int, int, int, int]
    table_pick: str
    table_hit: bool
    oracle_pick: str
    mismatches: int
    pick_gap_rel: float

    @property
    def top1_ok(self) -> bool:
        return self.table_pick == self.oracle_pick or (
            self.pick_gap_rel <= NEAR_TOP1_REL
        )


@dataclass
class WallReport:
    """Outcome of one differential wall run.

    ``mismatches`` totals the sweep-vs-oracle latency mismatches (any
    fails the wall); ``top1_agreement`` is the fraction of shapes whose
    served pick matched the oracle winner (within ``NEAR_TOP1_REL``).
    """

    gpu: str
    dtype: str
    verdicts: List[ShapeVerdict] = field(default_factory=list)
    top1_floor: float = TOP1_FLOOR  # pass floor for top1_agreement

    @property
    def mismatches(self) -> int:
        return sum(v.mismatches for v in self.verdicts)

    @property
    def top1_agreement(self) -> float:
        if not self.verdicts:
            return 0.0
        return sum(v.top1_ok for v in self.verdicts) / len(self.verdicts)

    @property
    def passed(self) -> bool:
        return (
            bool(self.verdicts)
            and self.mismatches == 0
            and self.top1_agreement >= self.top1_floor
        )

    def describe(self) -> str:
        lines = [
            f"kernel wall {self.gpu}/{self.dtype}: "
            f"{len(self.verdicts)} validation shape(s)"
        ]
        for v in self.verdicts:
            mark = "ok " if v.top1_ok else "MISS"
            src = "table" if v.table_hit else "fallback"
            lines.append(
                f"  {mark} {v.shape}: pick {v.table_pick} ({src}) vs oracle "
                f"{v.oracle_pick}  mismatches={v.mismatches}  "
                f"gap={100 * v.pick_gap_rel:.1f}%"
            )
        lines.append(
            f"sweep vs oracle mismatches {self.mismatches} (must be 0), "
            f"top-1 agreement {100 * self.top1_agreement:.0f}% "
            f"(floor {100 * self.top1_floor:.0f}%) -> "
            + ("PASS" if self.passed else "FAIL")
        )
        return "\n".join(lines)


def run_wall(
    table: KernelTable,
    shapes: Optional[Sequence[Tuple[int, int, int, int]]] = None,
    seed: int = 0,
    count: int = 12,
    engine: Optional[ShapeEngine] = None,
) -> WallReport:
    """Run the differential wall for one tuned table."""
    spec = get_gpu(table.gpu)
    parsed = DType.parse(table.dtype)
    eng = engine if engine is not None else default_engine()
    pool = candidate_tiles(spec, parsed)
    samples = (
        list(shapes) if shapes is not None
        else validation_shapes(seed=seed, count=count)
    )
    resolver = KernelParamResolver(tables=[table], engine=eng)
    names = [tile.name for tile in pool]
    oracles = [GemmModel(spec, parsed, tile=tile) for tile in pool]

    arr = np.asarray(samples, dtype=np.int64)
    grid = ShapeGrid.from_columns(
        batch=arr[:, 0], m=arr[:, 1], n=arr[:, 2], k=arr[:, 3]
    )
    swept = eng.evaluate_tiles(grid, spec, parsed, candidates=pool).matrix(
        "latency_s"
    )  # (candidates, shapes)

    report = WallReport(gpu=spec.name, dtype=parsed.name)
    for row, (batch, m, n, k) in enumerate(samples):
        # The scalar loop IS the point of the wall: it is the reference
        # side of the differential against the batched tile sweep.
        oracle = np.asarray([
            model.evaluate(m, n, k, batch).latency_s  # lint: allow(scalar-eval-in-loop)
            for model in oracles
        ])
        best = int(np.argmin(oracle))
        payload = resolver.resolve(
            batch, m, n, k, spec.name, parsed.name
        )
        pick = str(payload["tile"])
        floor = float(oracle[best])
        gap = (
            (float(oracle[names.index(pick)]) - floor) / floor
            if floor > 0 else 0.0
        )
        report.verdicts.append(
            ShapeVerdict(
                shape=(batch, m, n, k),
                table_pick=pick,
                table_hit=bool(payload["table_hit"]),
                oracle_pick=names[best],
                mismatches=int(np.count_nonzero(swept[:, row] != oracle)),
                pick_gap_rel=float(gap),
            )
        )
    return report
