"""Worker process entrypoint: one engine shard behind a JSONL pipe.

``python -m repro.serve.worker --index N --config '{...}'`` is what the
cluster supervisor spawns, one OS process per shard.  Each worker owns
a private :class:`~repro.serve.server.AdvisoryServer` (collapsed to a
single shard via :meth:`~repro.serve.config.ServeConfig.worker_config`)
and speaks the :mod:`repro.serve.wire` protocol over stdin/stdout:

- ``ready`` handshake (with pid) once the embedded server is up,
- ``query`` -> ``advisory`` with the same ``id``,
- ``ping`` -> ``pong`` (the supervisor's heartbeat),
- ``stats`` -> ``stats`` (serving counters snapshot),
- ``shutdown`` / stdin EOF -> answer what was read, emit ``bye``, exit.

The worker is one thread.  It reads stdin one ``os.read`` chunk at a
time; the supervisor sends one loop turn's queries in one pipe write,
so a chunk is a natural batch.  The complete lines of a chunk are
handled together: pongs and stats first, then every query of the chunk
priced by one :meth:`~repro.serve.server.AdvisoryServer.answer` call
(``max_batch`` queries per batch), and all their reply lines leave in
one ``write``.  A pong therefore waits at most for its own chunk's
batch.  There is no queue, so ``max_queue`` and ``linger_s`` do not
apply here; cluster backpressure lives in the front-end and the
supervisor's shedding.

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
import sys
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, ReproError
from repro.resilience import faults
from repro.serve import wire
from repro.serve.config import ServeConfig
from repro.serve.dispatch import error_to_advisory
from repro.serve.protocol import ShapeQuery
from repro.serve.server import AdvisoryServer

__all__ = ["WorkerLoop", "main"]

#: A reply line ready to write, or the ``(id, query)`` still to price.
_Reply = Union[str, Tuple[Any, ShapeQuery]]

#: Bytes asked of one ``os.read`` on stdin.
_READ_BYTES = 1 << 16


class WorkerLoop:
    """The worker's read-answer-write loop, pipe-agnostic.

    :meth:`run` takes any iterable of byte chunks and ``out`` is any
    binary stream, so tests drive it fully in-process; :func:`main`
    wires it to ``os.read`` on stdin and to stdout.  Everything runs on
    the calling thread.
    """

    def __init__(
        self,
        index: int,
        config: Optional[ServeConfig] = None,
        out: Optional[IO[bytes]] = None,
    ) -> None:
        self.index = index
        self.config = config or ServeConfig()
        self._server = AdvisoryServer(config=self.config.worker_config())
        self._out: IO[bytes] = out if out is not None else sys.stdout.buffer
        self._broken = False

    def _write(self, lines: List[str]) -> None:
        """One ``write`` and one ``flush`` for ``lines``."""
        if not lines or self._broken:
            return
        try:
            self._out.write("".join(lines).encode("utf-8"))
            self._out.flush()
        except (OSError, ValueError):
            # Parent is gone (torn pipe / closed stream): stop writing;
            # the read side will see EOF and end the loop.
            self._broken = True

    def _answer(self, lines: Sequence[bytes]) -> bool:
        """Answer the complete lines of one chunk in one write.

        Pongs and stats go first, then the advisories in line order.
        Returns True once a ``shutdown`` line was read; lines after it
        are ignored.
        """
        control: List[str] = []
        replies: List[_Reply] = []
        stop = False
        for line in lines:
            if not line.strip():
                continue
            try:
                message = wire.decode_line(line)
            except ConfigError as exc:
                replies.append(self._failure(None, None, exc))
                continue
            op = message["op"]
            if op == "query":
                replies.append(self._parse_query(message))
            elif op == "ping":
                faults.fault_site("cluster.heartbeat", worker=self.index)
                control.append(wire.encode_message(
                    "pong", id=message.get("id"), pid=os.getpid(),
                    worker=self.index,
                ))
            elif op == "stats":
                control.append(wire.encode_message(
                    "stats", id=message.get("id"),
                    stats=self._server.stats().to_dict(),
                ))
            elif op == "shutdown":
                stop = True
                break
            # Other ops (advisory/pong/...) are responses the supervisor
            # sends us by mistake; ignore them.
        priced = [r for r in replies if isinstance(r, tuple)]
        answers = iter(self._server.answer([query for _, query in priced]))
        for i, reply in enumerate(replies):
            if isinstance(reply, tuple):
                advisory = next(answers)
                # The embedded server is single-shard; report the
                # cluster worker index so observability shows who
                # answered.
                advisory.shard = self.index
                replies[i] = wire.encode_message(
                    "advisory", id=reply[0], advisory=advisory.to_dict()
                )
        self._write(control + replies)
        return stop

    def _parse_query(self, message: Dict[str, Any]) -> _Reply:
        """``(id, query)`` to price, or the error reply line."""
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
        except ReproError as exc:
            return self._failure(request_id, query, exc, raw)
        return request_id, query

    def _failure(
        self, request_id: Any, query: Optional[ShapeQuery],
        exc: ReproError, raw: Optional[Dict[str, Any]] = None,
    ) -> str:
        advisory = error_to_advisory(
            query, exc, raw_query=raw, shard=self.index
        )
        return wire.encode_message(
            "advisory", id=request_id, advisory=advisory.to_dict()
        )

    def run(self, chunks: Iterable[bytes]) -> int:
        """Serve until ``shutdown`` or EOF; returns the exit status."""
        self._write([wire.encode_message(
            "ready", pid=os.getpid(), worker=self.index
        )])
        tail = b""
        for chunk in chunks:
            lines = (tail + chunk).split(b"\n")
            tail = lines.pop()
            if self._answer(lines):
                break
        else:
            self._answer([tail])  # EOF after an unterminated last line
        self._write([wire.encode_message(
            "bye", pid=os.getpid(), worker=self.index
        )])
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
    read = functools.partial(os.read, sys.stdin.fileno(), _READ_BYTES)
    return loop.run(iter(read, b""))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
