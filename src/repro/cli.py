"""Command-line interface.

Verbs::

    repro analyze  <model> [--gpu A100]       latency breakdown of a preset
    repro advise   <model> [--gpu A100]       propose faster shapes
    repro figure   <id> [--csv] [--check]     regenerate a paper figure/table
    repro figures                             list all experiment ids
    repro run      [ids...] [--retries N] [--timeout S] [--journal P]
                   [--resume] [--inject-faults plan.json]
                   [--trace out.jsonl] [--metrics]
                                              fault-tolerant experiment sweep
    repro bench    [--quick] [--parallel N]   engine parity + cold/warm timings
    repro report   trace.jsonl                per-phase latency/cache/retry
                                              breakdown of a recorded trace
    repro lint     <model|config.json>        co-design shape linter
    repro lint     --self [paths...]          AST self-lint of the codebase
    repro serve    [--queries FILE|-]         answer advisory queries through
                   [--workers N] [--max-batch N] [--max-queue N]
                                              the dynamically-batched service
    repro loadgen  [--requests N] [--seed S]  deterministic load benchmark of
                   [--clients N] [--output P] the service (BENCH_serve.json)
    repro tune-kernels [--gpu A100 ...]       tune per-(GPU, dtype) kernel
                   [--out DIR] [--wall]       parameter tables; --check gates
                   [--check]                  golden-table drift
    repro estimate <model> [--gpu A100]       training-step runtime + memory
                   [--tp T] [--pp P] [--json] rollup; --checkpointing
                   [--checkpointing POLICY]   {none,full,auto}; --enforce
                   [--enforce]                exits 2 on a capacity overflow
    repro list-models / list-gpus             show registries

``run``, ``bench``, ``calibrate``, ``serve``, ``loadgen``,
``tune-kernels``, and ``estimate`` accept
``--trace out.jsonl``
(stream a structured span trace) and ``--metrics`` (print the counter /
histogram summary afterwards); tracing is off — and costs nothing —
unless requested.

Run as ``python -m repro.cli`` or via the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.errors import ReproError


def _add_gpu(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gpu", default="A100", help="target GPU (default A100)")


def _add_observability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="stream a structured JSONL span trace to PATH "
        "(inspect with 'repro report PATH')",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the counter/gauge/histogram summary after the run",
    )


def _add_serve_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=2, help="worker shards (default 2)"
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="max requests coalesced per dispatch (default 64)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="per-shard queue depth cap; beyond it requests are rejected "
        "(default 256)",
    )
    parser.add_argument(
        "--linger",
        type=float,
        default=0.002,
        metavar="S",
        help="batching window in seconds (default 0.002)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry attempts per batched engine call (default 0)",
    )


#: Verbs that accept --trace/--metrics (main() wraps their dispatch).
_OBSERVABLE_COMMANDS = (
    "run", "bench", "calibrate", "serve", "loadgen", "tune-kernels",
    "estimate",
)


@contextmanager
def _observed(args: argparse.Namespace) -> Iterator[None]:
    """Install trace/metrics collection around one verb, per its flags."""
    from repro.observability.metrics import metrics, reset_metrics
    from repro.observability.tracing import TraceRecorder, install_recorder

    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    recorder = None
    if trace_path or want_metrics:
        reset_metrics()
    if trace_path:
        recorder = TraceRecorder(path=trace_path)
        install_recorder(recorder)
    try:
        yield
    finally:
        if recorder is not None:
            install_recorder(None)
            print(f"trace: {len(recorder)} span(s) written to {trace_path}")
        if want_metrics:
            print("\nmetrics:")
            print(metrics().render_text())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hardware-aware transformer shape analysis "
        "(reproduction of Anthony et al., ICPP 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="latency breakdown of a model preset")
    p.add_argument("model")
    _add_gpu(p)
    p.add_argument("--flash", action="store_true", help="use FlashAttention")

    p = sub.add_parser("advise", help="propose faster equal-size shapes")
    p.add_argument("model")
    _add_gpu(p)
    p.add_argument("--top", type=int, default=5)

    p = sub.add_parser("figure", help="regenerate one paper figure/table")
    p.add_argument("id")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    p.add_argument("--check", action="store_true", help="only print the check result")
    p.add_argument(
        "--plot", action="store_true", help="render an ASCII plot of the series"
    )
    p.add_argument(
        "--update-golden",
        action="store_true",
        help="write/refresh this experiment's golden-regression snapshot",
    )
    p.add_argument(
        "--golden-dir",
        default=None,
        metavar="DIR",
        help="snapshot directory (default tests/golden)",
    )

    sub.add_parser("figures", help="list experiment ids")
    sub.add_parser("list-models", help="list model presets")
    sub.add_parser("list-gpus", help="list GPU specs")

    p = sub.add_parser(
        "report",
        help="run every experiment and emit a markdown report, or — given "
        "a JSONL trace file — print its latency/cache/retry breakdown",
    )
    p.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="a trace file recorded with --trace; when given, summarize "
        "it instead of running experiments",
    )
    p.add_argument("--output", default="-", help="file path or '-' for stdout")
    p.add_argument(
        "--ids", nargs="*", default=None, help="subset of experiment ids"
    )

    p = sub.add_parser("gemm", help="inspect one GEMM shape on one GPU")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--batch", type=int, default=1)
    _add_gpu(p)
    p.add_argument("--dtype", default="fp16")

    p = sub.add_parser("whatif", help="rank shape knobs by modelled payoff")
    p.add_argument("model")
    _add_gpu(p)

    p = sub.add_parser(
        "export", help="run experiments and write csv/md/plot artifacts"
    )
    p.add_argument("--dir", required=True, help="output directory")
    p.add_argument("--ids", nargs="*", default=None, help="subset of ids")

    p = sub.add_parser(
        "run",
        help="fault-tolerant experiment sweep: failures are isolated per "
        "experiment, retried with backoff, and checkpointed for --resume",
    )
    p.add_argument(
        "ids", nargs="*", help="experiment ids (default: every top-level one)"
    )
    p.add_argument(
        "--parallel", type=int, default=1, help="concurrent workers (default 1)"
    )
    p.add_argument(
        "--executor",
        choices=("thread", "process", "serial"),
        default="thread",
        help="worker pool tier; process degrades to thread then serial "
        "on pool failure (default thread)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry attempts per experiment with exponential backoff "
        "(default 0)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-attempt deadline in seconds (default: none)",
    )
    p.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="checkpoint completed experiments to this JSONL journal",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments already completed in --journal",
    )
    p.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help="JSON fault plan for chaos runs (see examples/faults/)",
    )
    _add_observability(p)

    p = sub.add_parser(
        "bench",
        help="benchmark the shape-evaluation engine (parity + cold/warm cache)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry attempts per experiment in the benchmark sweeps (default 0)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-attempt experiment deadline in seconds (default: none)",
    )
    p.add_argument(
        "--output",
        default="BENCH_engine.json",
        help="JSON output path, or '-' to skip writing (default BENCH_engine.json)",
    )
    p.add_argument(
        "--quick", action="store_true", help="smaller parity grid (CI smoke mode)"
    )
    p.add_argument(
        "--parallel",
        type=int,
        default=1,
        help="also time a warm run_all across N workers",
    )
    p.add_argument("--ids", nargs="*", default=None, help="subset of experiment ids")
    _add_observability(p)

    p = sub.add_parser(
        "lint",
        help="lint a model shape against the paper's sizing rules, "
        "or the codebase itself (--self)",
    )
    p.add_argument(
        "target",
        nargs="?",
        help="model preset name or JSON config file (omit with --self)",
    )
    p.add_argument(
        "--self",
        dest="self_lint",
        action="store_true",
        help="run the AST self-lint pass (flat walker + flow analysis) "
        "instead of shape linting",
    )
    p.add_argument(
        "--flow",
        dest="flow_lint",
        action="store_true",
        help="run only the flow-sensitive pass (CFG + dataflow: units, "
        "concurrency, observability)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="with --self/--flow: files/directories to lint (default: "
        "the installed repro package)",
    )
    _add_gpu(p)
    p.add_argument("--pipeline-stages", type=int, default=1)
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default text)",
    )
    p.add_argument(
        "--min-severity",
        choices=("ok", "info", "warning", "error"),
        default="info",
        help="hide findings below this severity (default info; "
        "'ok' also shows passing checks and capacity advisories)",
    )

    p = sub.add_parser(
        "calibrate",
        help="fit model constants to measured kernel timings (CSV: m,n,k,latency_s[,batch])",
    )
    p.add_argument("csv", help="measurement file, or '-' for stdin")
    _add_gpu(p)
    p.add_argument("--dtype", default="fp16")
    p.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="checkpoint each completed fit to this JSONL journal",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip fits already completed in --journal",
    )
    _add_observability(p)

    p = sub.add_parser(
        "serve",
        help="answer a batch of advisory queries through the dynamically-"
        "batched in-process service (JSONL advisories on stdout)",
    )
    p.add_argument(
        "--queries",
        default=None,
        metavar="FILE",
        help="query file (JSONL objects or a JSON array), or '-' for "
        "stdin; default: a built-in demo battery",
    )
    _add_serve_config(p)
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="per-request deadline in seconds (default: none)",
    )
    p.add_argument(
        "--listen",
        default=None,
        metavar="[HOST:]PORT",
        help="run the multi-process cluster and serve the JSONL protocol "
        "over TCP (workers become OS processes; SIGTERM drains, SIGHUP "
        "rereads --config; port 0 picks an ephemeral port)",
    )
    p.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="ServeConfig JSON file (overrides the individual flags; with "
        "--listen, SIGHUP rereads it for a hot reload)",
    )
    p.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help="JSON fault plan forwarded to every worker process "
        "(cluster chaos runs; requires --listen)",
    )
    _add_observability(p)

    p = sub.add_parser(
        "loadgen",
        help="deterministic seeded load benchmark of the advisory service "
        "(throughput, latency percentiles, coalesce ratio)",
    )
    p.add_argument(
        "--requests", type=int, default=2000, help="request count (default 2000)"
    )
    p.add_argument(
        "--unique",
        type=int,
        default=48,
        help="distinct shape pool size; requests >> unique forces heavy "
        "duplication (default 48)",
    )
    p.add_argument(
        "--clients", type=int, default=8, help="client threads (default 8)"
    )
    p.add_argument("--seed", type=int, default=0, help="traffic seed (default 0)")
    p.add_argument(
        "--gpus",
        nargs="+",
        default=["A100"],
        metavar="GPU",
        help="GPU mix for generated queries (default A100)",
    )
    p.add_argument(
        "--kernel-share",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="fraction of requests that ask kernel_params instead of a "
        "shape advisory (default 0.25)",
    )
    _add_serve_config(p)
    p.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="drive a remote 'repro serve --listen' cluster over TCP "
        "instead of an in-process server",
    )
    p.add_argument(
        "--client-procs",
        type=int,
        default=1,
        help="independent OS client processes (requires --connect; each "
        "drives a disjoint slice of the stream; default 1)",
    )
    p.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help="JSON fault plan for chaos runs (see examples/faults/)",
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the bit-identical check against a fresh engine",
    )
    p.add_argument(
        "--output",
        default="BENCH_serve.json",
        help="JSON output path, or '-' to skip writing (default BENCH_serve.json)",
    )
    _add_observability(p)

    p = sub.add_parser(
        "tune-kernels",
        help="tune per-(GPU, dtype) kernel-parameter tables by batched "
        "analytical search (versioned, checksummed JSON artifacts)",
    )
    p.add_argument(
        "--gpu",
        dest="gpus",
        nargs="+",
        default=["A100"],
        metavar="GPU",
        help="GPUs to tune a table for (default A100)",
    )
    p.add_argument("--dtype", default="fp16", help="operand dtype (default fp16)")
    p.add_argument(
        "--out",
        default="kernels",
        metavar="DIR",
        help="table artifact directory (default ./kernels); point "
        "REPRO_KERNEL_TABLES here to serve from the tables",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="narrower tuning grid (CI smoke mode)",
    )
    p.add_argument(
        "--wall",
        action="store_true",
        help="after tuning, run the differential wall against the "
        "scalar GemmModel oracle (bit-identical sweep + top-1 floor)",
    )
    p.add_argument(
        "--wall-seed", type=int, default=0, help="validation-shape seed"
    )
    p.add_argument(
        "--wall-count", type=int, default=12, help="validation shapes per GPU"
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="gate instead of write: re-tune and diff against the stored "
        "tables in --out, exiting 1 with a ranked explanation on drift",
    )
    p.add_argument(
        "--update-golden",
        action="store_true",
        help="rewrite the stored tables after an intentional model change "
        "(same as the default write mode; spelled out for CI scripts)",
    )
    _add_observability(p)

    p = sub.add_parser(
        "estimate",
        help="training-step runtime + memory rollup (fwd/bwd/optimizer "
        "phases, per-module table, peak-memory timeline)",
    )
    p.add_argument("model", help="model preset name")
    _add_gpu(p)
    p.add_argument("--dtype", default="fp16", help="operand dtype (default fp16)")
    p.add_argument(
        "--tp", type=int, default=None, metavar="T",
        help="tensor-parallel degree (default: the preset's)",
    )
    p.add_argument(
        "--pp", type=int, default=1, metavar="P",
        help="pipeline stages for the memory timeline (default 1)",
    )
    p.add_argument(
        "--microbatch", type=int, default=None, metavar="B",
        help="override the preset's microbatch size",
    )
    p.add_argument(
        "--checkpointing",
        choices=("none", "full", "auto"),
        default="none",
        help="activation checkpointing policy; 'auto' picks 'none' when "
        "the step fits the GPU and falls back to 'full' (default none)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the estimate as JSON"
    )
    p.add_argument(
        "--enforce",
        action="store_true",
        help="exit 2 with a typed capacity error naming the overflowing "
        "phase if the chosen policy does not fit the GPU",
    )
    _add_observability(p)
    return parser


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.config import get_model
    from repro.core.latency import LayerLatencyModel

    cfg = get_model(args.model)
    model = LayerLatencyModel(args.gpu, flash_attention=args.flash)
    bd = model.model_breakdown(cfg)
    print(cfg.describe())
    print(f"target: {args.gpu}" + (" + FlashAttention" if args.flash else ""))
    print()
    print(bd.summary())
    print(
        f"\ntokens/s: {model.tokens_per_second(cfg):,.0f}   "
        f"MFU: {100 * model.mfu(cfg):.1f}%"
    )
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import ShapeAdvisor
    from repro.core.config import get_model

    cfg = get_model(args.model)
    advisor = ShapeAdvisor(args.gpu)
    proposals = advisor.propose(cfg, top=args.top)
    print(f"baseline: {cfg.describe()}")
    if not proposals:
        print("no qualifying proposals")
        return 0
    for i, prop in enumerate(proposals, 1):
        print(f"\n#{i}: {prop.describe()}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness.runner import run_experiment

    report = run_experiment(args.id)
    if args.update_golden:
        from repro.harness.golden import DEFAULT_GOLDEN_DIR, write_snapshot

        path = write_snapshot(report, args.golden_dir or DEFAULT_GOLDEN_DIR)
        print(f"wrote golden snapshot {path}")
        return 0 if report.passed else 1
    if args.check:
        print(("PASS: " if report.passed else "FAIL: ") + report.check.details)
    elif args.csv:
        print(report.table.to_csv(), end="")
    elif args.plot:
        from repro.harness.ascii_plot import plot_experiment

        print(plot_experiment(args.id, report.table))
        print(f"\ncheck: {'PASS' if report.passed else 'FAIL'}")
    else:
        print(report.render())
    return 0 if report.passed else 1


def cmd_figures(_args: argparse.Namespace) -> int:
    from repro.harness.figures import list_experiments

    for exp in list_experiments():
        print(exp.describe())
    return 0


def cmd_list_models(_args: argparse.Namespace) -> int:
    from repro.core.config import list_models

    for cfg in list_models():
        print(cfg.describe())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.trace is not None:
        from repro.errors import ConfigError
        from repro.observability.report import render_trace_report

        try:
            text = render_trace_report(args.trace)
        except OSError as exc:
            raise ConfigError(f"cannot read trace {args.trace}: {exc}") from exc
        if args.output == "-":
            print(text)
        else:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.output}")
        return 0

    from repro.harness.runner import run_all, to_markdown_report

    reports = run_all(args.ids)
    text = to_markdown_report(reports)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_gemm(args: argparse.Namespace) -> int:
    from repro.engine.core import default_engine
    from repro.engine.vectorized import shape_array
    from repro.gpu.alignment import largest_pow2_divisor
    from repro.gpu.gemm_model import GemmPerf
    from repro.gpu.roofline import RooflinePoint
    from repro.gpu.specs import get_gpu
    from repro.gpu.tiles import candidate_tiles, tile_score
    from repro.types import DType

    dtype = DType.parse(args.dtype)
    spec = get_gpu(args.gpu)
    shapes = shape_array(args.m, args.n, args.k, args.batch)
    perf = GemmPerf.from_batch(default_engine().evaluate(shapes, spec, dtype), 0)
    print(perf.describe())
    point = RooflinePoint.for_gemm(
        args.m, args.n, args.k, spec, dtype, batch=args.batch
    )
    print(
        f"roofline: intensity {point.intensity:.1f} FLOP/B, "
        f"attainable {point.attainable_tflops:.1f} TFLOP/s ({point.bound}-bound)"
    )
    print(
        "alignment: pow2(m, n, k) = "
        f"({largest_pow2_divisor(args.m)}, {largest_pow2_divisor(args.n)}, "
        f"{largest_pow2_divisor(args.k)}); efficiency {perf.alignment_eff:.2f}"
    )
    print(
        f"grid: {perf.blocks} blocks, {perf.waves} waves of "
        f"{spec.num_sms} SMs (wave efficiency {perf.wave_eff:.2f}, "
        f"tile waste {100 * perf.tile_waste:.1f}%)"
    )
    print("\ntile candidates (model's relative compute scores, lower wins):")
    scores = [
        (tile_score(t, args.m, args.n, args.k, spec, dtype, args.batch), t)
        for t in candidate_tiles(spec, dtype)
    ]
    best = min(s for s, _ in scores)
    for score, tile in sorted(scores, key=lambda st: (st[0], st[1].name)):
        mark = " <- selected" if tile == perf.tile else ""
        print(f"  {tile.name:<8} {score / best:7.2f}x{mark}")
    return 0


def cmd_whatif(args: argparse.Namespace) -> int:
    from repro.analysis.whatif import WhatIfAnalyzer
    from repro.core.config import get_model

    cfg = get_model(args.model)
    print(WhatIfAnalyzer(args.gpu).report(cfg))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.harness.export import export_all

    written = export_all(args.dir, ids=args.ids)
    print(f"wrote {len(written)} files under {args.dir}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.calibration.fit import MeasuredGemm, run_calibration
    from repro.errors import CalibrationError, ConfigError
    from repro.resilience.checkpoint import SweepJournal

    if args.resume and not args.journal:
        raise ConfigError("--resume requires --journal PATH")

    if args.csv == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(args.csv) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise CalibrationError(f"cannot read {args.csv}: {exc}") from exc
    samples = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("m,"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (4, 5):
            raise CalibrationError(
                f"line {lineno}: expected m,n,k,latency_s[,batch], got {line!r}"
            )
        m, n, k = (int(p) for p in parts[:3])
        latency = float(parts[3])
        batch = int(parts[4]) if len(parts) == 5 else 1
        samples.append(MeasuredGemm(m=m, n=n, k=k, latency_s=latency, batch=batch))
    print(f"loaded {len(samples)} measurements")

    journal = None
    if args.journal:
        journal = SweepJournal(
            args.journal,
            sweep_id=f"calibrate:{args.gpu}:{args.dtype}",
            resume=args.resume,
        )
        if args.resume and journal.completed():
            print(f"resuming: {journal.describe()}")
    results = run_calibration(
        samples, gpu=args.gpu, dtype=args.dtype, journal=journal
    )
    for res in results:
        print(
            f"{res.name:<28} = {res.value:.3f}  "
            f"(rms relative error {100 * res.rms_rel_error:.1f}% "
            f"over {res.samples} samples)"
        )
    print(
        "\napply with: GemmModel(gpu, bw_efficiency=...) and "
        "repro.gpu.alignment._EFF_AT_MIN"
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.harness.bench import render_bench, run_bench, write_bench

    record = run_bench(
        ids=args.ids,
        parallel=args.parallel,
        quick=args.quick,
        retries=args.retries,
        timeout_s=args.timeout,
    )
    print(render_bench(record))
    if args.output != "-":
        write_bench(record, args.output)
        print(f"wrote {args.output}")
    return 0 if record["passed"] else 1


def cmd_run(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.harness.figures import list_experiments
    from repro.harness.runner import (
        run_all_resilient,
        summary,
        sweep_journal,
        validate_ids,
    )
    from repro.resilience.faults import FaultPlan, clear_plan, install_plan

    if args.resume and not args.journal:
        raise ConfigError("--resume requires --journal PATH")
    ids = (
        validate_ids(args.ids)
        if args.ids
        else [e.id for e in list_experiments()]
    )
    journal = None
    if args.journal:
        journal = sweep_journal(args.journal, ids, resume=args.resume)
        if args.resume and journal.completed():
            print(f"resuming: {journal.describe()}")

    plan = None
    if args.inject_faults:
        plan = FaultPlan.load(args.inject_faults)
        install_plan(plan)
        print(
            f"chaos mode: {len(plan.specs)} fault spec(s) from "
            f"{args.inject_faults} (seed {plan.seed})"
        )
    try:
        result = run_all_resilient(
            ids,
            parallel=args.parallel,
            executor=args.executor,
            retries=args.retries,
            timeout_s=args.timeout,
            journal=journal,
        )
    finally:
        if plan is not None:
            clear_plan()

    print(summary(result.reports))
    if result.skipped:
        print(
            f"resumed: {len(result.skipped)} experiment(s) restored from "
            f"journal, {len(result.outcomes)} executed"
        )
    for from_tier, to_tier, reason in result.downgrades:
        print(f"executor downgraded {from_tier} -> {to_tier}: {reason}")
    if plan is not None:
        print(f"chaos: {plan.fired()} injected fault(s) fired")
    return 0 if result.passed else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.config_io import load_targets
    from repro.analysis.diagnostics import Severity
    from repro.analysis.selflint import SelfLinter
    from repro.analysis.shape_rules import ShapeLinter
    from repro.errors import ConfigError

    min_severity = {
        "ok": Severity.OK,
        "info": Severity.INFO,
        "warning": Severity.WARNING,
        "error": Severity.ERROR,
    }[args.min_severity]

    if args.self_lint or args.flow_lint:
        from repro.analysis.flow import FlowLinter

        if args.target is not None:
            # With --self/--flow the positional slot is a path.
            args.paths = [args.target] + list(args.paths)
        paths = args.paths or None
        if args.flow_lint and not args.self_lint:
            report = FlowLinter().lint(paths)
        else:
            # --self runs both prongs: the flat walker and the
            # flow-sensitive pass share one report (and exit code).
            report = SelfLinter().lint(paths)
            report.extend(FlowLinter().lint(paths).diagnostics)
    else:
        if args.target is None:
            raise ConfigError(
                "lint needs a model preset or JSON config (or --self/--flow)"
            )
        if args.paths:
            raise ConfigError(
                "extra positional arguments are only valid with --self"
            )
        linter = ShapeLinter(args.gpu)
        configs = load_targets(args.target)
        if len(configs) == 1:
            report = linter.lint(configs[0], pipeline_stages=args.pipeline_stages)
        else:
            report = linter.lint_grid(
                configs, pipeline_stages=args.pipeline_stages
            )

    if args.format == "json":
        print(report.to_json(min_severity))
    elif args.format == "sarif":
        print(report.to_sarif(min_severity))
    else:
        print(report.render_text(min_severity))
    return report.exit_code


def _serve_config(args: argparse.Namespace) -> "ServeConfig":  # noqa: F821
    from repro.serve.config import ServeConfig

    return ServeConfig(
        workers=args.workers,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        linger_s=args.linger,
        deadline_s=getattr(args, "deadline", None),
        retries=args.retries,
    )


#: ``repro serve`` demo battery: the paper's flagship shapes plus a
#: misaligned one and a lint verdict, exercising every query kind.
_DEMO_QUERIES = (
    {"kind": "evaluate", "m": 4096, "n": 4096, "k": 4096},
    {"kind": "latency", "m": 2048, "n": 8192, "k": 8192, "gpu": "H100"},
    {"kind": "tflops", "m": 1000, "n": 1111, "k": 2049},
    {"kind": "latency", "m": 4096, "n": 4096, "k": 4096},
    {"kind": "kernel_params", "m": 4096, "n": 4096, "k": 4096},
    {"kind": "lint", "model": "gpt3-2.7b"},
)


def _cluster_serve_config(args: argparse.Namespace) -> "ServeConfig":  # noqa: F821
    """Cluster config: --config file wins, else the individual flags."""
    from repro.errors import ConfigError
    from repro.serve.config import ServeConfig

    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(
                f"cannot read serve config {args.config}: {exc}"
            ) from exc
        return ServeConfig.from_json(text)
    return _serve_config(args)


def _cmd_serve_listen(args: argparse.Namespace) -> int:
    """``repro serve --listen``: the multi-process cluster front-end."""
    from repro.serve.config import ServeConfig  # noqa: F401 - config type below
    from repro.serve.cluster import ClusterServer
    from repro.serve.loadgen import _parse_address

    listen = args.listen
    host, port = (
        _parse_address(listen) if ":" in listen else ("127.0.0.1", int(listen))
    )
    config = _cluster_serve_config(args)

    def announce(bound_port: int) -> None:
        print(
            f"cluster: listening on {host}:{bound_port} "
            f"({config.describe()})",
            file=sys.stderr,
            flush=True,
        )

    server = ClusterServer(
        config,
        host=host or "127.0.0.1",
        port=port,
        config_path=args.config,
        fault_plan_path=args.inject_faults,
        on_bound=announce,
    )
    server.serve_forever(install_signals=True)
    stats = server.supervisor.cluster_stats()
    print(
        f"cluster: drained ({stats['restarts']} restart(s), "
        f"{stats['shed']} shed, {stats['degraded']} degraded)",
        file=sys.stderr,
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError, QueueFullError
    from repro.serve.protocol import Advisory, ShapeQuery
    from repro.serve.server import AdvisoryServer

    import json as _json

    if args.listen is not None:
        try:
            return _cmd_serve_listen(args)
        except ValueError as exc:
            raise ConfigError(f"bad --listen address: {exc}") from exc
    if args.queries is None:
        raw_queries = list(_DEMO_QUERIES)
    else:
        if args.queries == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.queries) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(
                    f"cannot read queries {args.queries}: {exc}"
                ) from exc
        stripped = text.strip()
        if not stripped:
            raise ConfigError("query file is empty")
        try:
            if stripped.startswith("["):
                raw_queries = _json.loads(stripped)
            else:
                raw_queries = [
                    _json.loads(line)
                    for line in stripped.splitlines()
                    if line.strip()
                ]
        except ValueError as exc:
            raise ConfigError(f"bad query JSON: {exc}") from exc
    queries = [ShapeQuery.from_dict(raw) for raw in raw_queries]

    bad = 0
    with AdvisoryServer(_serve_config(args)) as server:
        # Submit everything before gathering so concurrent queries can
        # coalesce into shared engine calls.
        futures = []
        for query in queries:
            try:
                futures.append(server.submit(query))
            except QueueFullError as exc:
                futures.append(
                    Advisory(
                        query=query,
                        status="rejected",
                        error=str(exc),
                        error_type=type(exc).__name__,
                    )
                )
        for item in futures:
            advisory = item if isinstance(item, Advisory) else item.result()
            if not advisory.ok:
                bad += 1
            print(advisory.to_json())
        stats = server.stats()
    print(stats.describe(), file=sys.stderr)
    return 1 if bad else 0


def _cmd_loadgen_connect(args: argparse.Namespace) -> "LoadReport":  # noqa: F821
    """``repro loadgen --connect``: drive a remote cluster over TCP."""
    from repro.serve.loadgen import (
        _parse_address,
        generate_queries,
        run_load,
        run_load_processes,
    )
    from repro.serve.netclient import SocketTransport

    if args.client_procs > 1:
        return run_load_processes(
            args.connect,
            args.requests,
            procs=args.client_procs,
            clients=args.clients,
            seed=args.seed,
            unique=args.unique,
            gpus=args.gpus,
            kernel_share=args.kernel_share,
            verify=not args.no_verify,
        )
    host, port = _parse_address(args.connect)
    queries = generate_queries(
        args.requests, seed=args.seed, unique=args.unique, gpus=args.gpus,
        kernel_share=args.kernel_share,
    )
    with SocketTransport(host=host, port=port) as transport:
        return run_load(
            transport,
            queries,
            clients=args.clients,
            seed=args.seed,
            verify=not args.no_verify,
        )


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.resilience.faults import FaultPlan, clear_plan, install_plan
    from repro.serve.loadgen import generate_queries, render_load, run_load, write_load
    from repro.serve.server import AdvisoryServer

    if args.client_procs > 1 and not args.connect:
        raise ConfigError("--client-procs needs --connect (a remote cluster)")
    plan = None
    if args.inject_faults:
        plan = FaultPlan.load(args.inject_faults)
        install_plan(plan)
        print(
            f"chaos mode: {len(plan.specs)} fault spec(s) from "
            f"{args.inject_faults} (seed {plan.seed})"
        )
    try:
        if args.connect:
            report = _cmd_loadgen_connect(args)
        else:
            queries = generate_queries(
                args.requests, seed=args.seed, unique=args.unique,
                gpus=args.gpus, kernel_share=args.kernel_share,
            )
            with AdvisoryServer(_serve_config(args)) as server:
                report = run_load(
                    server,
                    queries,
                    clients=args.clients,
                    seed=args.seed,
                    verify=not args.no_verify,
                )
    finally:
        if plan is not None:
            clear_plan()
    print(render_load(report))
    if plan is not None:
        print(f"chaos: {plan.fired()} injected fault(s) fired")
    if args.output != "-":
        write_load(report, args.output)
        print(f"wrote {args.output}")
    return 0 if report.passed else 1


def cmd_tune_kernels(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import KernelTableError
    from repro.kernels.search import TUNE_DIMS, TUNE_DIMS_QUICK, tune_table
    from repro.kernels.table import KernelTable, compare_tables
    from repro.kernels.wall import run_wall

    dims = TUNE_DIMS_QUICK if args.quick else TUNE_DIMS
    out = Path(args.out)
    failures = 0
    for gpu in args.gpus:
        table = tune_table(gpu, args.dtype, dims=dims)
        path = out / f"{table.gpu}-{table.dtype}.json"
        if args.check:
            try:
                stored = KernelTable.from_json(path.read_text())
            except OSError as exc:
                raise KernelTableError(
                    f"no stored table to check at {path} "
                    f"(tune one first): {exc}"
                ) from exc
            diffs = compare_tables(stored, table)
            if diffs:
                failures += 1
                print(f"{path}: DRIFT ({len(diffs)} difference(s))")
                for line in diffs:
                    print(f"  {line}")
            else:
                print(f"{path}: ok ({stored.describe()})")
        else:
            out.mkdir(parents=True, exist_ok=True)
            path.write_text(table.to_json())
            print(f"wrote {path} ({table.describe()})")
        if args.wall:
            report = run_wall(
                table, seed=args.wall_seed, count=args.wall_count
            )
            print(report.describe())
            if not report.passed:
                failures += 1
    return 1 if failures else 0


def cmd_list_gpus(_args: argparse.Namespace) -> int:
    from repro.gpu.specs import list_gpus

    for spec in list_gpus():
        print(
            f"{spec.name:<10} {spec.vendor:<7} {spec.num_sms:>3} SMs  "
            f"{spec.mem_bw_gbs:>6.0f} GB/s  "
            f"align {spec.tc_align_bytes}B"
        )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    import json as _json

    from repro.core.config import get_model
    from repro.core.memory import MemoryBudget
    from repro.trainstep.memory import estimate_memory
    from repro.trainstep.report import estimate_to_json, render_estimate
    from repro.trainstep.step import TrainStepEstimator

    overrides = {}
    if args.tp is not None:
        overrides["tp_degree"] = args.tp
    if args.microbatch is not None:
        overrides["microbatch"] = args.microbatch
    cfg = get_model(args.model, **overrides)
    budget = MemoryBudget.for_gpu(args.gpu)
    policy = args.checkpointing
    if policy == "auto":
        # Checkpointing only ever costs time, so prefer "none" and fall
        # back to "full" when the activations alone blow the budget.
        probe = estimate_memory(cfg, pipeline_stages=args.pp, checkpointing="none")
        policy = "none" if probe.fits(budget) else "full"
    estimator = TrainStepEstimator(gpu=args.gpu, dtype=args.dtype)
    est = estimator.estimate(cfg, pipeline_stages=args.pp, checkpointing=policy)
    if args.enforce:
        est.memory.require_fits(budget)
    if args.json:
        print(_json.dumps(estimate_to_json(est), indent=2))
    else:
        print(render_estimate(est))
        if not est.memory.fits(budget):
            print(
                f"\nWARNING: peak {est.memory.peak_bytes / 1e9:.1f} GB "
                f"({est.memory.peak_phase}) exceeds the "
                f"{budget.usable_bytes / 1e9:.1f} GB usable on {est.gpu}; "
                "raise --tp/--pp or try --checkpointing full"
            )
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "advise": cmd_advise,
    "figure": cmd_figure,
    "figures": cmd_figures,
    "list-models": cmd_list_models,
    "list-gpus": cmd_list_gpus,
    "report": cmd_report,
    "gemm": cmd_gemm,
    "whatif": cmd_whatif,
    "export": cmd_export,
    "run": cmd_run,
    "bench": cmd_bench,
    "calibrate": cmd_calibrate,
    "lint": cmd_lint,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
    "tune-kernels": cmd_tune_kernels,
    "estimate": cmd_estimate,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in _OBSERVABLE_COMMANDS:
            with _observed(args):
                return _COMMANDS[args.command](args)
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
