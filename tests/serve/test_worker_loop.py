"""The worker's output path: advisories that are ready together leave in
one write, and every in-flight advisory precedes the ``bye``.

:class:`~repro.serve.worker.WorkerLoop` runs in-process here, fed from a
queue and writing to a recording stream, so the test controls when the
writer thread may write.
"""

import queue
import threading
import time

from repro.serve import wire
from repro.serve.config import ServeConfig
from repro.serve.protocol import ShapeQuery
from repro.serve.worker import WorkerLoop

_WAIT_S = 60.0


class _GatedStream:
    """A text stream whose writes wait for ``gate`` and are recorded."""

    def __init__(self):
        self.gate = threading.Event()
        self.held = threading.Event()  # a write is waiting on the gate
        self.writes = []
        self.flushes = 0

    def write(self, text):
        self.held.set()
        assert self.gate.wait(_WAIT_S)
        self.writes.append(text)

    def flush(self):
        self.flushes += 1


def _wait_for(predicate):
    deadline = time.monotonic() + _WAIT_S
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def test_ready_advisories_share_one_write_and_precede_bye():
    out = _GatedStream()
    worker = WorkerLoop(0, ServeConfig(workers=1, cache_ttl_s=0), out=out)
    feed = queue.Queue()
    asked = []

    def lines():
        while True:
            asked.append(True)  # the previous line is fully handled
            line = feed.get()
            if line is None:
                return
            yield line

    runner = threading.Thread(target=worker.run, args=(lines(),))
    runner.start()
    try:
        # The writer is held on its first line ("ready") before any
        # query arrives, so the advisories queue up behind it.
        assert out.held.wait(_WAIT_S)
        queries = [
            ShapeQuery(kind="latency", m=64 * (i + 1), n=256, k=256)
            for i in range(8)
        ]
        for i, query in enumerate(queries):
            feed.put(wire.query_message(query.to_dict(), i))
        # Wait until all eight advisories are queued.
        assert _wait_for(lambda: len(asked) == 9 and worker._inflight == 0)
        out.gate.set()
        assert _wait_for(lambda: len(out.writes) == 2)
    finally:
        out.gate.set()
        feed.put(None)
        runner.join(timeout=_WAIT_S)
    assert not runner.is_alive()
    ready, answers, bye = (
        [wire.decode_line(l) for l in text.splitlines()] for text in out.writes
    )
    assert [m["op"] for m in ready] == ["ready"]
    assert sorted(m["id"] for m in answers) == list(range(8))
    assert all(m["op"] == "advisory" for m in answers)
    assert all(m["advisory"]["status"] == "ok" for m in answers)
    assert [m["op"] for m in bye] == ["bye"]
    assert out.flushes == 3
