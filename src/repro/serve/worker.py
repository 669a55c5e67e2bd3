"""Worker process entrypoint: one engine shard behind a JSONL pipe.

``python -m repro.serve.worker --index N --config '{...}'`` is what the
cluster supervisor spawns, one OS process per shard.  Each worker owns
a private :class:`~repro.serve.server.AdvisoryServer` (collapsed to a
single in-process dispatch shard via
:meth:`~repro.serve.config.ServeConfig.worker_config`) and speaks the
:mod:`repro.serve.wire` protocol over stdin/stdout:

- ``ready`` handshake (with pid) once the embedded server is up,
- ``query`` -> ``advisory`` with the same ``id`` (answers may be out of
  submission order — the server batches concurrent queries),
- ``ping`` -> ``pong`` (the supervisor's heartbeat; carries the
  in-flight count),
- ``stats`` -> ``stats`` (serving counters snapshot),
- ``shutdown`` / stdin EOF -> drain in-flight requests, answer them,
  emit ``bye``, exit.

Workers inherit the parent environment, so the PR-6 mmap warm cache
(``REPRO_ENGINE_CACHE_DIR``) is shared across the whole cluster: the
first worker to evaluate a shape warms every later one.  The tuned
kernel tables (``REPRO_KERNEL_TABLES``, :mod:`repro.kernels`) ride the
same mechanism: every worker loads the same artifacts, so a
``kernel_params`` answer does not depend on which worker served it.

Fault sites: ``cluster.worker`` fires before each query is admitted
(a ``kill`` spec here is a crash mid-request) and ``cluster.heartbeat``
before each pong (a ``delay`` spec is a stalled heartbeat).  Plans
arrive via ``--fault-plan`` so chaos scenarios reach into the child
process, which does not inherit the parent's in-memory plan.
"""

from __future__ import annotations

import argparse
import functools
import os
import queue
import sys
import threading
from typing import IO, Any, Dict, Iterable, Optional, Sequence

from repro.errors import ConfigError, ReproError
from repro.resilience import faults
from repro.serve import wire
from repro.serve.config import ServeConfig
from repro.serve.dispatch import error_to_advisory
from repro.serve.protocol import Advisory, ShapeQuery
from repro.serve.server import AdvisoryServer

__all__ = ["WorkerLoop", "main"]


class WorkerLoop:
    """The worker's read-dispatch-respond loop, pipe-agnostic.

    Takes any line iterable and any writable text stream so tests can
    drive it fully in-process; ``__main__`` wires it to stdin/stdout.
    Every output line (advisories resolve on the embedded server's
    dispatch threads, pongs and stats on the main thread) goes through
    one FIFO queue that a writer thread drains: the lines ready when it
    wakes go out in one ``write`` and one ``flush``, in the order they
    were emitted.  A lock guards the in-flight counter.
    """

    def __init__(
        self,
        index: int,
        config: Optional[ServeConfig] = None,
        out: Optional[IO[str]] = None,
    ) -> None:
        self.index = index
        self.config = config or ServeConfig()
        self._server = AdvisoryServer(config=self.config.worker_config())
        self._out: IO[str] = out if out is not None else sys.stdout
        self._lock = threading.Lock()
        self._inflight = 0
        #: Output lines in emission order; ``None`` stops the writer.
        self._lines: "queue.SimpleQueue[Optional[str]]" = queue.SimpleQueue()

    # -- output -------------------------------------------------------------

    def _emit(self, op: str, **fields: Any) -> None:
        self._lines.put(wire.encode_message(op, **fields))

    def _write_lines(self) -> None:
        """Writer thread: drain the queue, one write per wake-up."""
        broken = False
        while True:
            line = self._lines.get()
            lines = []
            while line is not None:
                lines.append(line)
                try:
                    line = self._lines.get_nowait()
                except queue.Empty:
                    break
            if lines and not broken:
                try:
                    self._out.write("".join(lines))
                    self._out.flush()
                except (OSError, ValueError):
                    # Parent is gone (torn pipe / closed stream): stop
                    # writing; the read loop will see EOF and exit.
                    broken = True
            if line is None:
                return

    # -- per-op handlers ----------------------------------------------------

    def _handle_query(self, message: Dict[str, Any]) -> None:
        request_id = message.get("id")
        raw: Optional[Dict[str, Any]] = None
        query: Optional[ShapeQuery] = None
        try:
            raw = wire.request_payload(message)
            query = ShapeQuery.from_dict(raw)
            faults.fault_site(
                "cluster.worker", kind=query.kind, gpu=query.gpu,
                worker=self.index,
            )
            future = self._server.submit(query)
        except ReproError as exc:
            advisory = error_to_advisory(
                query, exc, raw_query=raw, shard=self.index
            )
            self._emit("advisory", id=request_id, advisory=advisory.to_dict())
            return
        with self._lock:
            self._inflight += 1
        future.add_done_callback(
            functools.partial(self._finish, request_id, query)
        )

    def _finish(
        self, request_id: Any, query: ShapeQuery, fut: "Any"
    ) -> None:
        """Done-callback: emit the advisory, settle the in-flight count."""
        try:
            advisory: Advisory = fut.result()
        except ReproError as exc:  # defensive: futures resolve, not raise
            advisory = error_to_advisory(query, exc, shard=self.index)
        # The embedded server is single-shard; report the cluster
        # worker index so observability shows who answered.
        advisory.shard = self.index
        self._emit("advisory", id=request_id, advisory=advisory.to_dict())
        with self._lock:
            self._inflight -= 1

    def _handle_ping(self, message: Dict[str, Any]) -> None:
        faults.fault_site("cluster.heartbeat", worker=self.index)
        with self._lock:
            inflight = self._inflight
        self._emit(
            "pong", id=message.get("id"), pid=os.getpid(),
            worker=self.index, inflight=inflight,
        )

    def _handle_stats(self, message: Dict[str, Any]) -> None:
        self._emit(
            "stats", id=message.get("id"),
            stats=self._server.stats().to_dict(),
        )

    # -- main loop ----------------------------------------------------------

    def run(self, lines: Iterable[str]) -> int:
        """Serve until ``shutdown`` or EOF; returns the exit status."""
        self._server.start()
        writer = threading.Thread(
            target=self._write_lines, name="repro-worker-writer", daemon=True
        )
        writer.start()
        self._emit("ready", pid=os.getpid(), worker=self.index)
        try:
            for line in lines:
                if not line.strip():
                    continue
                try:
                    message = wire.decode_line(line)
                except ConfigError as exc:
                    advisory = error_to_advisory(None, exc, shard=self.index)
                    self._emit(
                        "advisory", id=None, advisory=advisory.to_dict()
                    )
                    continue
                op = message["op"]
                if op == "query":
                    self._handle_query(message)
                elif op == "ping":
                    self._handle_ping(message)
                elif op == "stats":
                    self._handle_stats(message)
                elif op == "shutdown":
                    break
                # Other ops (advisory/pong/...) are responses the
                # supervisor sends us by mistake; ignore them.
        finally:
            # Drain: close() joins the dispatch threads, so every
            # in-flight advisory is queued before the goodbye, and the
            # writer empties the queue before it exits.
            self._server.close()
            self._emit("bye", pid=os.getpid(), worker=self.index)
            self._lines.put(None)
            writer.join()
        return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.worker",
        description="cluster worker process (spawned by the supervisor)",
    )
    parser.add_argument("--index", type=int, default=0,
                        help="worker shard index")
    parser.add_argument("--config", default=None,
                        help="ServeConfig as a JSON object string")
    parser.add_argument("--fault-plan", default=None,
                        help="fault plan JSON file (chaos testing)")
    args = parser.parse_args(argv)
    config = (
        ServeConfig.from_json(args.config) if args.config else ServeConfig()
    )
    if args.fault_plan:
        faults.install_plan(faults.FaultPlan.load(args.fault_plan))
    loop = WorkerLoop(index=args.index, config=config)
    return loop.run(sys.stdin)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
