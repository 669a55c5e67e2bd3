"""The ``serve-distinct`` workload.

Each session spawns a fresh ``repro serve --listen`` cluster with the
shipping defaults (2 worker processes), waits until both workers answer
``ping``, sends a warm-up stream whose shapes the measured stream never
uses, then measures on one pipelined TCP connection:

1. **closed loop** — ``WINDOW`` requests outstanding: completions per
   second, the median over 250 ms windows (``serve_peak_rps``), and
   each request's latency from send to reply (``serve_loaded_p50_ms``,
   ``serve_loaded_p99_ms``).  These three are the gated figures.
2. **open loop** — requests due at a fixed rate well under the lowest
   peak measured; latency is timed from each request's due time, and a
   refused or failed request counts as above any limit
   (``serve_p50_ms``, ``serve_p99_ms``, printed but not gated).

Why the gate is on the closed loop: on a 2-vCPU VM shared with other
tenants, the open loop at a fixed low rate mostly measures how fast an
idle vCPU is woken, which the host decides.  Over two sets of 10 seeds
its p50 spread by 0.13 and 0.31 of its median and its p99 by 0.26 and
0.44, against a bound of 0.25, while the closed-loop rate stayed well
inside it.  A saturated closed loop keeps both CPUs busy, so its
latencies follow the program's cost per request.

The stream is ``generate_queries`` over A100, H100, V100 and MI250X, so
both shards serve (``shard_for`` puts A100/H100 on one and V100/MI250X
on the other), drawn from a shape pool at least as large as what one
session can send, so most requests miss the response cache and reach
the batcher and the engine.  Statistics are computed here from the raw
reply times, not taken from ``run_load``.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import common
import tracer as tr
import stats
from common import Context, Outcome
from serve_load import Client, Cluster, Phase

GPUS = ("A100", "H100", "V100", "MI250X")

#: Requests outstanding during the closed loop.
WINDOW = 32

#: Fresh clusters per run.  Set-up, and each gated latency, is the
#: median over them.
SESSIONS = 3

#: The peak is the median completion rate over windows this long, pooled
#: over the sessions, so a stall or the start of a phase moves it little.
PEAK_WINDOW_S = 0.25

#: Upper bound on peak completions per second, to size the closed-loop
#: stream: 2.5x the highest peak measured on a 2-CPU machine (about 1200/s).
MAX_RPS = 3000

#: Open-loop offered rate, requests per second: about 1/5 of the lowest
#: peaks measured on a 2-CPU machine (about 600/s); halving the rate
#: made latency higher and less steady (more idle wake-ups), not lower.
RATE = 150.0

#: Largest shape pool a session may ask for: under two thirds of the
#: 8 x 23^3 shapes ``generate_queries`` draws from, so its rejection
#: sampling stays quick (about 2 s at this size).  A ``--seconds`` that
#: needs more (over 60 s) is refused.
POOL_MAX = 60000

#: Share of a session's measured time spent in the closed loop.  At
#: 25 s a session's closed loop completes some 3500 requests, and the
#: sessions' open loops together over 1000, each enough for a p99 with
#: 10 samples beyond it.
CLOSED_SHARE = 0.7

WARMUP = 64
WARMUP_WINDOW = 8

#: Requests per transport in the traced run's unloaded hop comparison.
HOP_REQUESTS = 200


def _shape_key(q: Any) -> Tuple[Any, ...]:
    return (q.batch, q.m, q.n, q.k, q.gpu)


@dataclass
class Session:
    setup_s: float
    peak_windows: List[int]
    #: Closed-loop latency of every request, send to reply.
    loaded_ms: List[float]
    #: Open-loop latency of every request, due time to reply.
    latencies_ms: List[float]
    late_ms: List[float]
    pairs: List[Tuple[Any, Any]]
    attempted: int
    failed: int
    errors: List[str]
    counters: Dict[str, float]
    rss_mb: float
    hops: Dict[str, float]
    #: The peak phase ran out of requests before its time was up.
    peak_exhausted: bool


def _outcomes(phase: Phase, errors: List[str]) -> Tuple[List[bool], List[Tuple[Any, Any]], int]:
    """Per request: ok?  Plus the ok (query, advisory) pairs and failures."""
    ok = [False] * len(phase.queries)
    pairs = []
    failed = 0
    for i, advisory in phase.advisories():
        query = phase.queries[i]
        if advisory is None:
            problem = "no reply"
        elif not advisory.ok:
            problem = f"{advisory.error_type}: {advisory.error}"
        elif advisory.query != query:
            problem = "reply carries another query"
        else:
            ok[i] = True
            pairs.append((query, advisory))
            continue
        failed += 1
        if len(errors) < 10:
            errors.append(f"request {i}: {problem}")
    return ok, pairs, failed


def _counters(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    w0, w1 = before["workers"], after["workers"]

    def d(key: str) -> float:
        return float(w1.get(key, 0)) - float(w0.get(key, 0))

    return {
        "requests": d("requests"),
        "cache_hits": d("cache_hits"),
        "shape_dispatched": d("shape_dispatched"),
        "dispatched": d("dispatched"),
        "batches": d("batches"),
        "engine_calls": d("engine_calls"),
        "engine_rows": d("engine_rows"),
        "rejected": d("rejected_queue_full") + d("rejected_deadline") + d("rejected_closed"),
        "shed": float(after["cluster"].get("shed", 0)),
        "restarts": float(after["cluster"].get("restarts", 0)),
    }


def _hop_p50s(queries: Sequence[Any], client: Client) -> Dict[str, float]:
    """Unloaded p50 of one stream through each transport, in ms.

    Each transport answers the stream once to fill its caches, then
    again while timed, one request at a time.
    """
    from repro.serve import AdvisoryServer, ServeConfig
    from repro.serve.supervisor import Supervisor

    def p50(request: Any) -> float:
        for q in queries:
            request(q)
        lat = []
        for q in queries:
            start = time.perf_counter()
            advisory = request(q)
            lat.append(time.perf_counter() - start)
            if not advisory.ok:
                raise RuntimeError(f"hop probe failed: {advisory.error}")
        return statistics.median(lat) * 1e3

    with AdvisoryServer(ServeConfig()) as server:
        inproc = p50(lambda q: server.request(q, timeout_s=30.0))
    with Supervisor(ServeConfig()) as sup:
        pipe = p50(lambda q: sup.request(q, timeout_s=30.0))
    tcp = p50(client.request)
    return {
        "serve.inproc.p50_ms": inproc,
        "serve.hop.pipe_ms": pipe - inproc,
        "serve.hop.tcp_ms": tcp - pipe,
    }


def _session(
    ctx: Context, warm: Sequence[Any],
    peak_q: Sequence[Any], open_q: Sequence[Any], hop_q: Sequence[Any],
    peak_s: float, traced: bool,
) -> Tuple[Session, List[Any]]:
    spawned = time.monotonic()
    cluster = Cluster(common.ROOT, ctx.work)
    client: Optional[Client] = None
    spans: List[Any] = []
    try:
        cluster.wait_listening()
        client = Client("127.0.0.1", cluster.port)
        cluster.wait_workers(client)
        warm_phase, _, _ = client.closed_loop(warm, WARMUP_WINDOW)
        setup_s = time.monotonic() - spawned
        before = client.rpc("stats")["stats"]
        tracer = tr.Tracer().install() if traced else None
        # The generator's own garbage collections would stall its sender
        # and reader and show up as server latency; hold them off.
        gc.collect()
        gc.disable()
        try:
            peak, start, end = client.closed_loop(peak_q, WINDOW, peak_s)
            opened, due = client.open_loop(open_q, RATE)
        finally:
            gc.enable()
            if tracer is not None:
                tracer.uninstall()
                spans = tracer.spans
        after = client.rpc("stats")["stats"]
        rss = cluster.peak_rss_mb()
        hops = _hop_p50s(hop_q, client) if traced else {}
    finally:
        if client is not None:
            client.close()
        cluster.stop()

    errors: List[str] = []
    _, warm_pairs, warm_failed = _outcomes(warm_phase, errors)
    peak_ok, peak_pairs, peak_failed = _outcomes(peak, errors)
    sent = [i for i, t in enumerate(peak.sent) if t is not None]
    ok, open_pairs, open_failed = _outcomes(opened, errors)
    return Session(
        setup_s=setup_s,
        peak_windows=stats.window_counts(peak.done, start, end, PEAK_WINDOW_S),
        # In a closed loop a request is due when it is sent.
        loaded_ms=stats.due_latencies_ms(
            [peak.sent[i] for i in sent], [peak.done[i] for i in sent], [peak_ok[i] for i in sent]
        ),
        latencies_ms=stats.due_latencies_ms(due, opened.done, ok),
        late_ms=[(s - d) * 1e3 for s, d in zip(opened.sent, due) if s is not None],
        pairs=warm_pairs + peak_pairs + open_pairs,
        attempted=sum(s is not None for ph in (warm_phase, peak, opened) for s in ph.sent),
        failed=warm_failed + peak_failed + open_failed,
        errors=errors,
        counters=_counters(before, after),
        rss_mb=rss,
        hops=hops,
        peak_exhausted=all(t is not None for t in peak.sent),
    ), spans


def _streams(ctx: Context, peak_s: float, open_s: float):
    """Warm-up, per-session (peak, open-loop) streams and the hop probe.

    Every session draws from one pool as large as the requests a
    session can send, so a session seldom repeats a shape.
    """
    from repro.serve.loadgen import generate_queries

    n_peak = int(MAX_RPS * peak_s)
    per_session = n_peak + int(RATE * open_s)
    if per_session > POOL_MAX:
        raise ValueError(
            f"--seconds {ctx.seconds:g} needs {per_session} distinct shapes per session; "
            f"at most {POOL_MAX} are supported"
        )
    total = per_session * SESSIONS + HOP_REQUESTS
    stream = generate_queries(total, seed=ctx.seed, unique=per_session, gpus=GPUS)
    measured = {_shape_key(q) for q in stream}
    pool = generate_queries(WARMUP * 4, seed=ctx.seed + 7919, unique=WARMUP * 4, gpus=GPUS)
    warm = [q for q in pool if _shape_key(q) not in measured][:WARMUP]
    sessions = []
    for j in range(SESSIONS):
        base = j * per_session
        sessions.append((stream[base:base + n_peak], stream[base + n_peak:base + per_session]))
    return warm, sessions, stream[-HOP_REQUESTS:]


def run(ctx: Context) -> Outcome:
    from repro.serve.loadgen import verify_against_engine

    session_s = ctx.seconds / SESSIONS
    peak_s = session_s * CLOSED_SHARE
    warm, streams, hop_q = _streams(ctx, peak_s, session_s - peak_s)
    out = Outcome()
    sessions: List[Session] = []
    spans: List[Any] = []
    for j, (peak_q, open_q) in enumerate(streams):
        traced = ctx.trace and j == SESSIONS - 1
        session, got = _session(ctx, warm, peak_q, open_q, hop_q, peak_s, traced)
        sessions.append(session)
        spans.extend(got)
        out.attempted += session.attempted
        out.failed += session.failed
        out.errors.extend(session.errors)

    checked, mismatches = verify_against_engine([p for s in sessions for p in s.pairs])
    out.failed += mismatches
    if mismatches:
        out.errors.append(f"{mismatches} of {checked} distinct answers differ from a fresh engine")

    plain = sessions[:-1] if ctx.trace else sessions
    loaded = [stats.summarize(s.loaded_ms) for s in plain]
    opened = stats.summarize(x for s in plain for x in s.latencies_ms)
    late = stats.summarize(x for s in plain for x in s.late_ms)
    peak = statistics.median(c for s in plain for c in s.peak_windows) / PEAK_WINDOW_S
    tail_qs = {one.get("tail_q") for one in loaded}
    if not tail_qs <= {99.0, 99.9, 99.99}:
        ctx.note(f"warning: closed-loop samples per session support {sorted(map(str, tail_qs))}, not p99")
    if any(s.peak_exhausted for s in plain):
        ctx.note(f"warning: a closed loop sent all its requests; raise MAX_RPS above {MAX_RPS}")
    # The gated tail is p99 whatever the sample count, so that a faster
    # program, which completes more requests, is not judged on a higher
    # percentile than a slower one.
    p50 = statistics.median(one["p50"] for one in loaded)
    p99 = statistics.median(stats.percentile(sorted(s.loaded_ms), 99.0) for s in plain)
    out.e2e = {
        "setup_s": statistics.median(s.setup_s for s in plain),
        "phase1_ms": p50,
        "phase2_ms": p99,
        "phase3_ms": 1e3 / peak,
        "rss_peak_mb": max(s.rss_mb for s in plain),
    }
    totals = {k: sum(s.counters[k] for s in sessions) for k in sessions[0].counters}
    hit_ratio = totals["cache_hits"] / totals["requests"] if totals["requests"] else 0.0
    n = sum(one["n"] for one in loaded)
    ctx.note(
        f"{ctx.workload}: {len(plain)} sessions, closed window {WINDOW}, open loop {RATE:g} rps, "
        f"pool {len(streams[0][0]) + len(streams[0][1])} shapes, gpus {','.join(GPUS)}; "
        f"verified {checked} distinct answers, {mismatches} mismatches"
    )
    ctx.note(f"serve_loaded_p50_ms {p50:.4f} ms (phase1_ms; median of the sessions'), n={n}")
    ctx.note(f"serve_loaded_p99_ms {p99:.4f} ms (phase2_ms; median of the sessions'), n={n}")
    ctx.note(f"serve_peak_rps {peak:.1f} 1/s (phase3_ms = 1000 / peak)")
    ctx.note(f"serve_p50_ms {opened['p50']:.4f} ms (open loop, not gated), n={opened['n']}")
    ctx.note(
        f"serve_p99_ms {opened.get('tail', 0.0):.4f} ms (open loop, not gated; "
        f"the p{opened.get('tail_q')} these samples support), n={opened['n']}"
    )
    ctx.note(f"serve.cache_hit_ratio {hit_ratio:.4f}")
    for j, s in enumerate(sessions):
        one = stats.summarize(s.loaded_ms)
        rps = statistics.median(s.peak_windows) / PEAK_WINDOW_S
        ctx.note(
            f"session {j}: setup {s.setup_s:.3f} s, peak {rps:.1f} 1/s, loaded "
            f"p50 {one['p50']:.3f} ms, p{one.get('tail_q')} {one.get('tail', 0):.3f} ms, n={one['n']}"
        )

    if ctx.trace:
        traced_session = sessions[-1]
        out.layers.update(tr.layer_metrics(spans, 1))
        out.layers.update(traced_session.hops)
        out.layers.update({
            "serve.cache_hit_ratio": hit_ratio,
            "serve.coalesce_ratio": (
                totals["shape_dispatched"] / totals["engine_calls"] if totals["engine_calls"] else 0.0
            ),
            "serve.mean_batch_size": (
                totals["dispatched"] / totals["batches"] if totals["batches"] else 0.0
            ),
            "serve.engine_rows": totals["engine_rows"] / len(sessions),
            "serve.rejected": totals["rejected"],
            "serve.shed": totals["shed"],
            "cluster.restarts": totals["restarts"],
            "loadgen.late_p99_ms": late.get("tail", 0.0),
        })
        traced_lat = stats.summarize(traced_session.loaded_ms)
        out.layers["bench.trace_overhead_ratio"] = traced_lat["p50"] / p50
        out.spans = spans
    return out
