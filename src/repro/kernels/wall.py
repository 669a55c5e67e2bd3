"""The differential test wall: tuned picks vs the discrete-event simulator.

The tuner ranks candidates with the closed-form analytical model; the
:class:`~repro.gpu.simulator.SMSimulator` resolves block scheduling by
event loop instead of synchronized-wave arithmetic.  They are built
from the same physical constants but disagree exactly where the
closed form approximates (wave-tail backfill, per-block issue cost) —
so agreement between them is evidence the tuned picks reflect the
modeled machine, not an artifact of one formula.

For each sampled validation shape the wall computes:

- the **simulator ranking**: every candidate tile simulated with the
  tile pinned, ranked by makespan;
- the **analytical ranking**: the same candidates through the engine's
  tile sweep (one call pricing every candidate at every validation
  shape at once);
- the **table's pick**: resolved exactly like a serve query (bucket
  lookup, analytical fallback on a miss).

It then enforces two floors: mean Kendall-tau between the rankings
(ordering agreement across the whole candidate pool) and top-1
agreement (the served pick matches the simulator's winner, or loses to
it by at most a hair — ``near_top1_rel`` guards the coin-flip ties a
rank statistic cannot see).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.core import ShapeEngine, default_engine
from repro.engine.grid import ShapeGrid
from repro.errors import KernelTableError
from repro.gpu.simulator import SMSimulator
from repro.gpu.specs import get_gpu
from repro.gpu.tiles import candidate_tiles
from repro.kernels.registry import KernelParamResolver
from repro.kernels.table import KernelTable
from repro.types import DType

__all__ = ["WallReport", "run_wall", "validation_shapes"]

#: Acceptance floors (ISSUE/CI contract): mean Kendall-tau across the
#: validation shapes, and the fraction of shapes whose served pick
#: matches (or nearly matches) the simulator's winner.
TAU_FLOOR = 0.6
TOP1_FLOOR = 0.8

#: A pick counts as agreeing with the simulator when its simulated
#: latency is within this relative distance of the simulated winner —
#: two tiles the simulator itself cannot separate are not a miss.
NEAR_TOP1_REL = 0.02

#: Validation-shape pool: moderate extents (simulation cost is linear
#: in block count), aligned and misaligned, in- and out-of-table.
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
    """One validation shape's comparison against the simulator.

    ``tau`` is the Kendall rank correlation between the analytical and
    simulated candidate latencies (dimensionless, in [-1, 1]);
    ``pick_gap_rel`` is how far the served pick's simulated latency
    sits above the simulated winner's (0 = exact agreement).
    """

    shape: Tuple[int, int, int, int]
    table_pick: str
    table_hit: bool
    sim_pick: str
    tau: float
    pick_gap_rel: float

    @property
    def top1_ok(self) -> bool:
        return self.table_pick == self.sim_pick or (
            self.pick_gap_rel <= NEAR_TOP1_REL
        )


@dataclass
class WallReport:
    """Outcome of one differential wall run.

    ``mean_tau`` averages the per-shape Kendall-tau values;
    ``top1_agreement`` is the fraction of shapes whose served pick
    matched the simulator winner (within ``NEAR_TOP1_REL``).
    """

    gpu: str
    dtype: str
    verdicts: List[ShapeVerdict] = field(default_factory=list)
    tau_floor: float = TAU_FLOOR  # pass floor for mean_tau
    top1_floor: float = TOP1_FLOOR  # pass floor for top1_agreement

    @property
    def mean_tau(self) -> float:
        if not self.verdicts:
            return 0.0
        return float(np.mean([v.tau for v in self.verdicts]))

    @property
    def top1_agreement(self) -> float:
        if not self.verdicts:
            return 0.0
        return sum(v.top1_ok for v in self.verdicts) / len(self.verdicts)

    @property
    def passed(self) -> bool:
        return (
            bool(self.verdicts)
            and self.mean_tau >= self.tau_floor
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
                f"  {mark} {v.shape}: pick {v.table_pick} ({src}) vs sim "
                f"{v.sim_pick}  tau={v.tau:+.2f}  "
                f"gap={100 * v.pick_gap_rel:.1f}%"
            )
        lines.append(
            f"mean tau {self.mean_tau:.3f} (floor {self.tau_floor}), "
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
    # Deferred: scipy costs about a second to import, and serving
    # processes import this package without ever running the wall.
    from scipy.stats import kendalltau

    spec = get_gpu(table.gpu)
    parsed = DType.parse(table.dtype)
    eng = engine if engine is not None else default_engine()
    pool = candidate_tiles(spec, parsed)
    samples = (
        list(shapes) if shapes is not None
        else validation_shapes(seed=seed, count=count)
    )
    resolver = KernelParamResolver(tables=[table], engine=eng)

    arr = np.asarray(samples, dtype=np.int64)
    grid = ShapeGrid.from_columns(
        batch=arr[:, 0], m=arr[:, 1], n=arr[:, 2], k=arr[:, 3]
    )
    analytic = eng.evaluate_tiles(grid, spec, parsed, candidates=pool).matrix(
        "latency_s"
    )  # (candidates, shapes)

    report = WallReport(gpu=spec.name, dtype=parsed.name)
    for row, (batch, m, n, k) in enumerate(samples):
        sim_latency: Dict[str, float] = {}
        for tile in pool:
            sim = SMSimulator(spec, parsed, tile=tile)
            sim_latency[tile.name] = sim.run(m, n, k, batch=batch).latency_s
        sim_series = np.asarray([sim_latency[t.name] for t in pool])
        tau, _p = kendalltau(analytic[:, row], sim_series)
        sim_best = pool[int(np.argmin(sim_series))].name
        sim_floor = float(np.min(sim_series))
        payload = resolver.resolve(
            batch, m, n, k, spec.name, parsed.name
        )
        pick = str(payload["tile"])
        gap = (
            (sim_latency[pick] - sim_floor) / sim_floor
            if sim_floor > 0 else 0.0
        )
        report.verdicts.append(
            ShapeVerdict(
                shape=(batch, m, n, k),
                table_pick=pick,
                table_hit=bool(payload["table_hit"]),
                sim_pick=sim_best,
                tau=float(tau),
                pick_gap_rel=float(gap),
            )
        )
    return report
