"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Workloads (see each module's docstring for why it exists):

- ``figures``         full experiment registry: cold, restart, warm passes
- ``sizing``          training-step estimates, parallel plans, kernel tuning
- ``serve-distinct``  TCP cluster, session-sized shape pool (batcher and engine)

The workloads and the name and unit of every metric are read from
``BENCHMARK.json``.  Every workload reports the same end-to-end metrics,
because every run is compared metric by metric against the same list.
``setup_s`` and ``rss_peak_mb`` mean the same everywhere; ``phase1_ms``
.. ``phase3_ms`` are the workload's three headline times:

==============  ================  =================  ===================
workload        phase1_ms         phase2_ms          phase3_ms
==============  ================  =================  ===================
figures         figures_cold_s    figures_restart_s  figures_warm_s
sizing          estimate_s        plan_s             tune_s
serve-distinct  loaded p50 (ms)   loaded p99 (ms)    1000/serve_peak_rps
==============  ================  =================  ===================

The figures times leave out time blocked in ``os.fsync`` (see
``figures.py``); the serve latencies are those of the saturated closed
loop, and the open-loop ``serve_p50_ms`` / ``serve_p99_ms`` are printed
but not gated (see ``serve.py``).

The lines before the last also print each figure under its own name
(``figures_cold_s``, ``plan_s``, ``serve_peak_rps``, ...).  With
``--trace 1`` the run records spans around every layer's public entry
points (see ``tracer.py``), prints the per-layer metrics instead, and
writes the spans to ``.perfbench/trace-<workload>-seed<n>.jsonl``.  A
layer a workload never calls reports 0.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run whose outputs
fail a check still exits 0 with ``"correct": false``; a run that cannot
measure at all (no ``src/repro`` here, a crash) exits non-zero without
printing a result.

The benchmark's own logic is tested by ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import shutil
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Module that runs each workload named in BENCHMARK.json.
RUNNERS = {"figures": "figures", "sizing": "sizing", "serve-distinct": "serve"}

#: Set for this process and every process it starts, before numpy loads.
#: On a 2-vCPU VM, OpenBLAS's default second thread made the real
#: forward-pass matmuls of the figures cold pass 1.5-2x slower than one
#: thread, and switched between the two speeds from run to run: its
#: threads spin while they wait, so they measure the host's scheduler.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_spec() -> Dict:
    """BENCHMARK.json: the workloads and the (name, unit) of every metric."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(spec: Dict, kind: str) -> List[Tuple[str, str]]:
    """(name, unit) of every ``end_to_end`` or ``per_layer`` metric."""
    return [(m["name"], m["unit"]) for m in spec[kind]]


def check_names(spec: Dict) -> None:
    import stats

    names = [n for kind in ("end_to_end", "per_layer") for n, _ in metric_units(spec, kind)]
    bad = [n for n in names if not stats.valid_metric_name(n)]
    if bad or len(set(names)) != len(names):
        raise ValueError(f"invalid or repeated metric names: {bad or names}")


def result_object(spec: Dict, outcome, trace: bool) -> Dict:
    """The last line: every metric of the run's kind, by name, with unit."""
    if trace:
        metrics = {
            n: {"value": float(outcome.layers.get(n, 0.0)), "unit": u}
            for n, u in metric_units(spec, "per_layer")
        }
    else:
        metrics = {
            n: {"value": float(outcome.e2e[n]), "unit": u}
            for n, u in metric_units(spec, "end_to_end")
        }
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(ONE_BLAS_THREAD)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    check_names(spec)
    # Byte-compile once per checkout, so the first run's child processes
    # do not pay for it where later runs do not.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    import tracer
    from common import Context

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # The caller's cache and table settings must not leak into a run;
    # workloads that want a disk store name one inside ``work``.
    os.environ.pop("REPRO_ENGINE_CACHE_DIR", None)
    os.environ.pop("REPRO_KERNEL_TABLES", None)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        outcome = importlib.import_module(RUNNERS[args.workload]).run(ctx)
    except Exception:  # noqa: BLE001 - report, then fail without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(outcome.spans, trace_file)
        ctx.note(f"{len(outcome.spans)} spans written to {trace_file.relative_to(ROOT)}")
        for name, unit in metric_units(spec, "per_layer"):
            ctx.note(f"{name} {outcome.layers.get(name, 0.0):.6g} {unit}")
    for line in ctx.notes:
        print(line)
    for line in outcome.errors[:20]:
        print(f"failed: {line}")
    print(json.dumps(result_object(spec, outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
