"""Deterministic seeded load generator for the advisory service.

``repro loadgen`` (and the load-test wall) needs reproducible traffic:
:func:`generate_queries` derives every request from a single seed — the
shape pool, the kind mix, the GPU mix, and the duplication pattern are
identical across runs and machines, so a load run is a *benchmark*
(``BENCH_serve.json``), not an anecdote.  Timing of course varies with
the machine; the request stream never does.

The pool is intentionally much smaller than the request count
(``unique`` vs ``requests``) so traffic is heavily duplicated — the
regime dynamic batching exists for: concurrent duplicate shapes fold
onto one engine row, distinct ones merge into one vectorized call, and
the report's ``coalesce_ratio`` (requests dispatched per engine call)
measures the win.

:func:`run_load` drives the queries through any
:class:`~repro.serve.dispatch.Transport` — the in-process server, the
multi-process supervisor, or a remote cluster via
:class:`~repro.serve.netclient.SocketTransport` — from ``clients``
threads, then (optionally but by default) **verifies** every distinct
ok answer bit-for-bit against a fresh, private
:class:`~repro.engine.core.ShapeEngine` — the served numbers must be
exactly what a direct engine call returns, proving batching, dedup,
sharding, the TTL cache, worker processes, and crash failover change
*how* answers are computed, never *what* they are.

:func:`run_load_processes` scales the same wall across OS boundaries:
it spawns ``procs`` genuinely separate client *processes* (each one
``python -m repro.serve.loadgen --connect``), gives each a disjoint
slice of the same seeded stream, and verifies the union of their
answers centrally — the cluster equivalent of the single-process wall.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.core import ShapeEngine
from repro.errors import ClusterError, ConfigError, ReproError
from repro.kernels.registry import KernelParamResolver
from repro.serve.dispatch import Transport, error_to_advisory
from repro.serve.netclient import SocketTransport
from repro.serve.protocol import Advisory, ShapeQuery
from repro.serve.supervisor import _worker_env

__all__ = [
    "LoadReport",
    "generate_queries",
    "main",
    "render_load",
    "run_load",
    "run_load_processes",
    "verify_against_engine",
    "write_load",
]

#: Dimension candidates for generated shapes: spans tiny decode GEMVs
#: through large training GEMMs, aligned and misaligned.
_DIM_POOL = (
    64, 96, 128, 160, 256, 384, 512, 768, 1024, 1536, 2048, 2560,
    3072, 4096, 5120, 6144, 8192, 1000, 1111, 2000, 2049, 4095, 50257,
)

_KINDS = ("latency", "tflops", "evaluate")

#: Default fraction of generated requests asking for kernel parameters
#: (the tuned-table path) instead of a shape advisory.
_KERNEL_SHARE = 0.25


def generate_queries(
    requests: int,
    seed: int = 0,
    unique: int = 48,
    gpus: Sequence[str] = ("A100",),
    batch_max: int = 8,
    kernel_share: float = _KERNEL_SHARE,
) -> List[ShapeQuery]:
    """Build a reproducible, heavily-duplicated request stream.

    ``unique`` bounds the distinct shape pool the ``requests`` draws
    come from; with ``requests >> unique`` most requests duplicate an
    earlier shape, which is what exercises the dedup path.  A
    ``kernel_share`` fraction of requests asks ``kernel_params`` for
    its shape instead of a shape advisory, so one stream exercises both
    the batched engine path and the tuned-table passthrough.
    """
    if requests < 1:
        raise ConfigError(f"requests must be >= 1, got {requests}")
    if unique < 1:
        raise ConfigError(f"unique must be >= 1, got {unique}")
    if not gpus:
        raise ConfigError("gpus must be non-empty")
    if not 0.0 <= kernel_share <= 1.0:
        raise ConfigError(
            f"kernel_share must be in [0, 1], got {kernel_share}"
        )
    rng = random.Random(seed)
    pool: List[Tuple[int, int, int, int]] = []
    seen = set()
    while len(pool) < unique:
        shape = (
            rng.choice((1, 1, 1, 2, 4, rng.randint(1, batch_max))),
            rng.choice(_DIM_POOL),
            rng.choice(_DIM_POOL),
            rng.choice(_DIM_POOL),
        )
        if shape not in seen:
            seen.add(shape)
            pool.append(shape)
    queries = []
    for _ in range(requests):
        batch, m, n, k = rng.choice(pool)
        kind = (
            "kernel_params"
            if rng.random() < kernel_share
            else rng.choice(_KINDS)
        )
        queries.append(
            ShapeQuery(
                kind=kind,
                m=m, n=n, k=k, batch=batch,
                gpu=rng.choice(tuple(gpus)),
            )
        )
    return queries


@dataclass
class LoadReport:
    """Outcome of one load run: counts, latency percentiles, coalescing.

    Latencies (``p50_s``/``p95_s``/``p99_s``/``max_s``) are client-side
    request round-trip seconds; ``wall_s`` is the whole run;
    ``throughput_rps`` is completed requests per second of wall time.
    ``coalesce_ratio`` is dispatched shape requests per vectorized
    engine call (dimensionless; > 1 means dynamic batching won).
    ``verified_rows`` / ``verify_mismatches`` report the bit-identical
    check against a fresh engine (``-1`` rows = verification skipped).
    """

    requests: int = 0
    ok: int = 0
    failed: int = 0
    rejected_queue_full: int = 0
    rejected_deadline: int = 0
    shed: int = 0
    degraded: int = 0
    reconnects: int = 0
    cache_hits: int = 0
    wall_s: float = 0.0
    throughput_rps: float = 0.0
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    max_s: float = 0.0
    engine_calls: int = 0
    coalesce_ratio: float = 0.0
    verified_rows: int = -1
    verify_mismatches: int = 0
    seed: int = 0
    clients: int = 0
    server: Dict[str, Any] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    #: The (query, advisory) pairs behind the ok count — kept so a
    #: parent process can re-verify a child's answers centrally; never
    #: serialized by :meth:`to_dict`.
    ok_pairs: List[Tuple[ShapeQuery, Advisory]] = field(
        default_factory=list, repr=False
    )
    #: Client-side round-trip seconds, one per answered request (for
    #: exact percentile merging across processes); not serialized.
    latencies: List[float] = field(default_factory=list, repr=False)

    @property
    def passed(self) -> bool:
        """Every request answered ok and verification (if run) clean."""
        return (
            self.ok == self.requests
            and self.verify_mismatches == 0
        )

    def to_dict(self) -> Dict[str, Any]:
        out = {
            k: getattr(self, k)
            for k in (
                "requests", "ok", "failed", "rejected_queue_full",
                "rejected_deadline", "shed", "degraded", "reconnects",
                "cache_hits", "engine_calls",
                "coalesce_ratio", "verified_rows", "verify_mismatches",
                "seed", "clients", "server", "config",
            )
        }
        out.update(
            wall_s=round(self.wall_s, 4),
            throughput_rps=round(self.throughput_rps, 1),
            p50_ms=round(self.p50_s * 1e3, 3),
            p95_ms=round(self.p95_s * 1e3, 3),
            p99_ms=round(self.p99_s * 1e3, 3),
            max_ms=round(self.max_s * 1e3, 3),
            passed=self.passed,
        )
        return out


def _percentile(sorted_vals: List[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(q * (len(sorted_vals) - 1) + 0.5))
    return sorted_vals[idx]


def verify_against_engine(
    pairs: Sequence[Tuple[ShapeQuery, Advisory]],
) -> Tuple[int, int]:
    """Bit-identical check of served answers vs a fresh private engine.

    Deduplicates the ok shape advisories per ``(kind, shape, gpu,
    dtype)``, evaluates each distinct shape once per ``(gpu, dtype)``
    through a brand-new :class:`~repro.engine.core.ShapeEngine`
    (memory-only, no shared state with the server), and compares the
    served floats for exact equality.  ``kernel_params`` advisories are
    re-resolved through a fresh
    :class:`~repro.kernels.registry.KernelParamResolver` built from the
    same environment and compared payload-for-payload.  Returns
    ``(rows_checked, mismatches)``.
    """
    distinct: Dict[Tuple[Any, ...], Tuple[ShapeQuery, Advisory]] = {}
    kernel_pairs: Dict[Tuple[Any, ...], Tuple[ShapeQuery, Advisory]] = {}
    for query, advisory in pairs:
        if advisory.ok and query.is_shape_query:
            distinct.setdefault(query.cache_key(), (query, advisory))
        elif advisory.ok and query.is_kernel_query:
            kernel_pairs.setdefault(query.cache_key(), (query, advisory))
    by_target: Dict[Tuple[str, str], List[Tuple[ShapeQuery, Advisory]]] = {}
    for query, advisory in distinct.values():
        by_target.setdefault((query.gpu, query.dtype), []).append(
            (query, advisory)
        )

    engine = ShapeEngine()
    checked = 0
    mismatches = 0
    for (gpu, dtype), items in by_target.items():
        shapes = np.asarray(
            [q.shape_tuple() for q, _ in items], dtype=np.int64
        )
        # One batched evaluation per (gpu, dtype) target group — the
        # loop is over targets, not shapes.
        result = engine.evaluate(shapes, gpu, dtype)  # lint: allow(engine-eval-in-loop)
        for row, (query, advisory) in enumerate(items):
            checked += 1
            expect_latency = float(result.latency_s[row])
            expect_tflops = float(result.tflops[row])
            payload = advisory.payload
            bad = False
            if "latency_s" in payload:
                bad |= payload["latency_s"] != expect_latency
            if "tflops" in payload:
                bad |= payload["tflops"] != expect_tflops
            if query.kind == "evaluate":
                bad |= payload.get("tile") != result.tile(row).name
                bad |= payload.get("bound") != str(result.bound[row])
            if bad:
                mismatches += 1

    if kernel_pairs:
        resolver = KernelParamResolver.from_env(engine=engine)
        for query, advisory in kernel_pairs.values():
            checked += 1
            expect = resolver.resolve(
                query.batch, query.m, query.n, query.k,
                query.gpu, query.dtype,
            )
            if advisory.payload != expect:
                mismatches += 1
    return checked, mismatches


def _transport_stats(server: Transport) -> Dict[str, Any]:
    """Best-effort serving counters for any transport flavour.

    The in-process server exposes ``stats()`` (a ServerStats), the
    supervisor ``worker_stats()``/``cluster_stats()``, and the socket
    transport ``server_stats()`` (the front-end's aggregate); plain
    transports expose nothing and that is fine — the report's server
    section is observability, not correctness.
    """
    stats_fn = getattr(server, "stats", None)
    if callable(stats_fn):
        return dict(stats_fn().to_dict())
    remote_fn = getattr(server, "server_stats", None)
    if callable(remote_fn):
        try:
            remote = remote_fn()
        except (ReproError, OSError):
            return {}
        merged = dict(remote.get("workers", {}))
        merged["cluster"] = remote.get("cluster", {})
        return merged
    worker_fn = getattr(server, "worker_stats", None)
    if callable(worker_fn):
        merged = dict(worker_fn())
        merged["cluster"] = server.cluster_stats()  # type: ignore[attr-defined]
        return merged
    return {}


def run_load(
    server: Transport,
    queries: Sequence[ShapeQuery],
    clients: int = 8,
    seed: int = 0,
    verify: bool = True,
    timeout_s: Optional[float] = 60.0,
) -> LoadReport:
    """Drive ``queries`` through any transport from ``clients`` threads.

    The transport must be ready to answer (server started / cluster
    listening).  Returns the :class:`LoadReport`; never raises for
    per-request failures — a raising transport call is folded into a
    typed error advisory and counted like one that crossed the wire.
    """
    if clients < 1:
        raise ConfigError(f"clients must be >= 1, got {clients}")
    outcomes: List[Tuple[ShapeQuery, Advisory, float]] = []

    def drive(query: ShapeQuery) -> Tuple[ShapeQuery, Advisory, float]:
        t0 = time.perf_counter()
        try:
            advisory = server.request(query, timeout_s=timeout_s)
        except ReproError as exc:
            advisory = error_to_advisory(query, exc)
        return query, advisory, time.perf_counter() - t0

    t_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients, thread_name_prefix="loadgen") as pool:
        outcomes = list(pool.map(drive, queries))
    wall_s = time.perf_counter() - t_start

    config_obj = getattr(server, "config", None)
    report = LoadReport(
        requests=len(queries), seed=seed, clients=clients,
        wall_s=wall_s,
        throughput_rps=len(queries) / wall_s if wall_s > 0 else 0.0,
        config=config_obj.to_dict() if config_obj is not None else {},
    )
    for query, advisory, elapsed in outcomes:
        if advisory.error_type == "QueueFullError":
            report.rejected_queue_full += 1
            continue
        report.latencies.append(elapsed)
        if advisory.ok:
            report.ok += 1
            report.ok_pairs.append((query, advisory))
            if advisory.source == "cache":
                report.cache_hits += 1
            if advisory.source == "degraded":
                report.degraded += 1
        elif advisory.error_type == "DeadlineExceededError":
            report.rejected_deadline += 1
        elif advisory.error_type == "LoadShedError":
            report.shed += 1
        else:
            report.failed += 1
    report.latencies.sort()
    report.p50_s = _percentile(report.latencies, 0.50)
    report.p95_s = _percentile(report.latencies, 0.95)
    report.p99_s = _percentile(report.latencies, 0.99)
    report.max_s = report.latencies[-1] if report.latencies else 0.0
    report.reconnects = int(getattr(server, "reconnects", 0))

    report.server = _transport_stats(server)
    report.engine_calls = int(report.server.get("engine_calls", 0))
    coalesce = report.server.get("coalesce_ratio")
    if coalesce is None and report.engine_calls:
        coalesce = (
            report.server.get("shape_dispatched", 0) / report.engine_calls
        )
    report.coalesce_ratio = float(coalesce or 0.0)

    if verify:
        report.verified_rows, report.verify_mismatches = (
            verify_against_engine(report.ok_pairs)
        )
    return report


def _parse_address(address: str) -> Tuple[str, int]:
    """Split ``host:port`` (raising :class:`ConfigError` on junk)."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ConfigError(
            f"address must be host:port, got {address!r}"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ConfigError(f"bad port in address {address!r}") from exc
    return host, port


def _pairs_to_wire(
    pairs: Sequence[Tuple[ShapeQuery, Advisory]],
) -> List[List[Dict[str, Any]]]:
    return [[q.to_dict(), a.to_dict()] for q, a in pairs]


def _pairs_from_wire(
    raw: Sequence[Sequence[Dict[str, Any]]],
) -> List[Tuple[ShapeQuery, Advisory]]:
    return [
        (ShapeQuery.from_dict(q), Advisory.from_dict(a)) for q, a in raw
    ]


def run_load_processes(
    address: str,
    requests: int,
    procs: int = 2,
    clients: int = 4,
    seed: int = 0,
    unique: int = 48,
    gpus: Sequence[str] = ("A100",),
    verify: bool = True,
    timeout_s: Optional[float] = 60.0,
    proc_timeout_s: float = 600.0,
    kernel_share: float = _KERNEL_SHARE,
) -> LoadReport:
    """The multi-process wall: OS-process clients against one cluster.

    Spawns ``procs`` independent ``python -m repro.serve.loadgen``
    client processes, each connecting its own sockets to ``address``
    and driving a *disjoint slice* of the same seeded stream (process
    ``i`` takes ``queries[i::procs]``, so the union is exactly the
    single-process stream).  Child answers are merged and verified
    centrally against one fresh engine — bit-identical across process
    boundaries, crashes, and failover, or the report fails.
    """
    if procs < 1:
        raise ConfigError(f"procs must be >= 1, got {procs}")
    _parse_address(address)  # fail fast before spawning anything
    common = [
        sys.executable, "-m", "repro.serve.loadgen",
        "--connect", address,
        "--requests", str(requests),
        "--seed", str(seed),
        "--unique", str(unique),
        "--clients", str(clients),
        "--gpus", ",".join(gpus),
        "--procs", str(procs),
        "--kernel-share", str(kernel_share),
    ]
    if timeout_s is not None:
        common += ["--timeout-s", str(timeout_s)]
    env = _worker_env()
    children = [
        subprocess.Popen(  # noqa: S603 - fixed argv, no shell
            common + ["--proc-index", str(index)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for index in range(procs)
    ]
    outputs: List[Dict[str, Any]] = []
    for index, child in enumerate(children):
        try:
            stdout, stderr = child.communicate(timeout=proc_timeout_s)
        except subprocess.TimeoutExpired:
            for straggler in children:
                if straggler.poll() is None:
                    straggler.kill()
            raise ClusterError(
                f"loadgen client {index} did not finish within "
                f"{proc_timeout_s:g}s"
            ) from None
        if child.returncode != 0:
            raise ClusterError(
                f"loadgen client {index} exited {child.returncode}: "
                f"{stderr.strip()[-500:]}"
            )
        try:
            outputs.append(json.loads(stdout))
        except ValueError as exc:
            raise ClusterError(
                f"loadgen client {index} wrote malformed output: {exc}"
            ) from exc

    merged = LoadReport(seed=seed, clients=procs * clients)
    for output in outputs:
        child_report = output.get("report", {})
        for key in (
            "requests", "ok", "failed", "rejected_queue_full",
            "rejected_deadline", "shed", "degraded", "reconnects",
            "cache_hits",
        ):
            setattr(
                merged, key,
                getattr(merged, key) + int(child_report.get(key, 0)),
            )
        merged.wall_s = max(merged.wall_s, float(child_report.get("wall_s", 0.0)))
        merged.latencies.extend(
            float(v) for v in output.get("latencies", [])
        )
        merged.ok_pairs.extend(_pairs_from_wire(output.get("pairs", [])))
    merged.throughput_rps = (
        merged.requests / merged.wall_s if merged.wall_s > 0 else 0.0
    )
    merged.latencies.sort()
    merged.p50_s = _percentile(merged.latencies, 0.50)
    merged.p95_s = _percentile(merged.latencies, 0.95)
    merged.p99_s = _percentile(merged.latencies, 0.99)
    merged.max_s = merged.latencies[-1] if merged.latencies else 0.0

    host, port = _parse_address(address)
    try:
        with SocketTransport(host=host, port=port) as probe:
            merged.server = _transport_stats(probe)
    except (ReproError, OSError):
        merged.server = {}  # cluster already gone; counts still stand
    merged.engine_calls = int(merged.server.get("engine_calls", 0))
    if merged.engine_calls:
        merged.coalesce_ratio = (
            merged.server.get("shape_dispatched", 0) / merged.engine_calls
        )

    if verify:
        merged.verified_rows, merged.verify_mismatches = (
            verify_against_engine(merged.ok_pairs)
        )
    return merged


def main(argv: Optional[Sequence[str]] = None) -> int:
    """One client process of the multi-process wall (JSON to stdout)."""
    parser = argparse.ArgumentParser(
        prog="repro.serve.loadgen",
        description="cluster loadgen client (spawned by run_load_processes)",
    )
    parser.add_argument("--connect", required=True, help="host:port")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--unique", type=int, default=48)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--gpus", default="A100")
    parser.add_argument("--kernel-share", type=float, default=_KERNEL_SHARE)
    parser.add_argument("--timeout-s", type=float, default=None)
    parser.add_argument("--procs", type=int, default=1)
    parser.add_argument("--proc-index", type=int, default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.proc_index < args.procs:
        raise ConfigError(
            f"proc-index {args.proc_index} outside [0, {args.procs})"
        )
    host, port = _parse_address(args.connect)
    stream = generate_queries(
        args.requests, seed=args.seed, unique=args.unique,
        gpus=tuple(g for g in args.gpus.split(",") if g),
        kernel_share=args.kernel_share,
    )
    mine = stream[args.proc_index::args.procs]

    with SocketTransport(host=host, port=port) as transport:
        report = run_load(
            transport, mine, clients=args.clients, seed=args.seed,
            verify=False, timeout_s=args.timeout_s,
        )
    json.dump(
        {
            "report": report.to_dict(),
            "latencies": report.latencies,
            "pairs": _pairs_to_wire(report.ok_pairs),
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


def render_load(report: LoadReport) -> str:
    """Human summary of one load run."""
    lines = [
        f"load: {report.requests} requests from {report.clients} client(s), "
        f"seed {report.seed}",
        f"outcome: {report.ok} ok, {report.failed} failed, "
        f"{report.rejected_queue_full} queue-full, "
        f"{report.rejected_deadline} deadline-expired, "
        f"{report.shed} shed "
        f"({report.cache_hits} cache hits, {report.degraded} degraded, "
        f"{report.reconnects} reconnects)",
        f"wall: {report.wall_s * 1e3:.0f} ms   "
        f"throughput: {report.throughput_rps:.0f} req/s",
        f"latency: p50 {report.p50_s * 1e3:.2f} ms   "
        f"p95 {report.p95_s * 1e3:.2f} ms   "
        f"p99 {report.p99_s * 1e3:.2f} ms   "
        f"max {report.max_s * 1e3:.2f} ms",
        f"coalescing: {report.engine_calls} engine call(s) for "
        f"{report.server.get('shape_dispatched', 0)} dispatched shape "
        f"request(s) -> ratio {report.coalesce_ratio:.2f} "
        f"({report.server.get('coalesced_duplicates', 0)} duplicates folded)",
    ]
    if report.verified_rows >= 0:
        lines.append(
            f"verify: {report.verified_rows} distinct answer(s) vs fresh "
            f"engine, {report.verify_mismatches} mismatch(es)"
        )
    lines.append("load: " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines)


def write_load(report: LoadReport, path: str) -> None:
    """Write the benchmark record (``BENCH_serve.json``)."""
    record = {"benchmark": "repro loadgen", **report.to_dict()}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
