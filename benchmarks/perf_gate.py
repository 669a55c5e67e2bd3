#!/usr/bin/env python
"""CI perf gate over ``repro bench`` records.

Compares a fresh benchmark record against the checked-in baseline
(``BENCH_engine.json``) and fails when the engine's caching regresses:

- the fresh record must pass (parity, checks, parallel == serial),
- scalar/vectorized parity mismatches must be exactly zero,
- ``warm_speedup`` (cold wall / warm wall) must stay above a floor,
- no experiment may appear in the fresh record's ``warm_regressions``,
- any experiment whose warm run hit the cache in the baseline must
  still hit it now — losing cache hits is how vectorization quietly
  rots back into recomputation.  An experiment whose warm run makes no
  engine lookups at all (``warm_engine_hits + warm_engine_misses`` is
  0) is exempt: it stopped calling the engine, which is an improvement,
  not a lost hit,
- no experiment may make more cold engine computes
  (``cold_engine_misses``) than in the baseline — a sweep that falls
  back to one engine call per point shows up here first.  Both records
  must cover the same experiments in the same order: a cold run's
  misses depend on what the experiments before it already priced.

Usage::

    python benchmarks/perf_gate.py FRESH.json BASELINE.json \
        [--warm-speedup-floor 4.0]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

#: The committed record clears 6x comfortably; the floor leaves head
#: room for slow CI machines while still catching a cold-path collapse.
DEFAULT_WARM_SPEEDUP_FLOOR = 4.0


def _experiments(record: dict) -> Dict[str, dict]:
    return {e["id"]: e for e in record.get("experiments", [])}


def _warm_hits(entry: dict) -> int:
    return int(entry.get("warm_cache_hits", 0)) + int(
        entry.get("warm_engine_hits", 0)
    )


def gate_failures(fresh: dict, baseline: dict, floor: float) -> List[str]:
    """All gate violations in ``fresh`` relative to ``baseline``."""
    failures: List[str] = []
    if not fresh.get("passed"):
        failures.append("fresh benchmark record did not pass")
    mismatches = fresh.get("parity", {}).get("mismatches")
    if mismatches != 0:
        failures.append(f"scalar parity mismatches: {mismatches}")
    speedup = fresh.get("warm_speedup") or 0.0
    if speedup < floor:
        failures.append(
            f"warm_speedup {speedup}x below floor {floor}x"
        )
    regressions = fresh.get("warm_regressions", [])
    if regressions:
        failures.append("warm regressions: " + ", ".join(regressions))
    fresh_exp = _experiments(fresh)
    for exp_id, base in sorted(_experiments(baseline).items()):
        now = fresh_exp.get(exp_id)
        base_misses = base.get("cold_engine_misses")
        if now is not None and base_misses is not None:
            misses = int(now.get("cold_engine_misses", 0))
            if misses > int(base_misses):
                failures.append(
                    f"{exp_id}: {misses} cold engine computes "
                    f"(baseline {base_misses})"
                )
        base_hits = _warm_hits(base)
        if base_hits <= 0:
            continue
        if now is None:
            failures.append(f"{exp_id}: in baseline but missing from fresh record")
        # A warm run that stopped calling the engine has no hits to
        # lose; only one that still looks up and always misses fails.
        elif _warm_hits(now) <= 0 and int(now.get("warm_engine_misses", 0)) > 0:
            failures.append(
                f"{exp_id}: warm run lost all cache hits "
                f"(baseline had {base_hits})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="fresh `repro bench` JSON record")
    parser.add_argument("baseline", help="checked-in baseline record")
    parser.add_argument(
        "--warm-speedup-floor",
        type=float,
        default=DEFAULT_WARM_SPEEDUP_FLOOR,
        help="minimum cold/warm wall-time ratio (default %(default)s)",
    )
    args = parser.parse_args(argv)
    with open(args.fresh) as fh:
        fresh = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    failures = gate_failures(fresh, baseline, args.warm_speedup_floor)
    if failures:
        for failure in failures:
            print(f"perf gate: FAIL: {failure}")
        return 1
    print(
        f"perf gate: OK (warm_speedup {fresh.get('warm_speedup')}x, "
        f"{len(_experiments(fresh))} experiments, 0 regressions)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
