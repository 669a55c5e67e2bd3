"""The worker contract: one thread, one batch per pipe read, one write back.

:class:`~repro.serve.worker.WorkerLoop` runs in-process here, fed byte
chunks directly (as ``os.read`` would hand them over) and writing to a
recording stream, so each test sees exactly which write carried which
reply.
"""

import threading

from repro.serve import wire
from repro.serve.config import ServeConfig
from repro.serve.protocol import ShapeQuery
from repro.serve.worker import WorkerLoop


class _RecordingStream:
    """A binary stream that keeps every write apart."""

    def __init__(self):
        self.writes = []
        self.flushes = 0

    def write(self, data):
        assert isinstance(data, bytes)
        self.writes.append([wire.decode_line(line) for line in data.splitlines()])

    def flush(self):
        self.flushes += 1


def _query_line(i, **kw):
    base = dict(kind="latency", m=64 * (i + 1), n=256, k=256)
    base.update(kw)
    return wire.query_message(ShapeQuery(**base).to_dict(), i)


def _run(chunks, **config):
    out = _RecordingStream()
    worker = WorkerLoop(
        3, ServeConfig(workers=1, cache_ttl_s=0, **config), out=out
    )
    assert worker.run(chunk.encode("utf-8") for chunk in chunks) == 0
    assert [m["op"] for m in out.writes[0]] == ["ready"]
    assert [m["op"] for m in out.writes[-1]] == ["bye"]  # bye comes last
    assert out.flushes == len(out.writes)
    return out.writes[1:-1]


def _stats_chunk():
    return wire.encode_message("stats", id="s")


def test_one_chunk_is_one_batch_and_one_write():
    queries = "".join(
        _query_line(i, gpu="A100" if i % 3 else "H100") for i in range(8)
    )
    answers, (stats,) = _run([queries, _stats_chunk()])
    assert [m["op"] for m in answers] == ["advisory"] * 8
    assert [m["id"] for m in answers] == list(range(8))
    assert all(m["advisory"]["status"] == "ok" for m in answers)
    assert all(m["advisory"]["shard"] == 3 for m in answers)
    assert all(m["advisory"]["batch_size"] == 8 for m in answers)
    counters = stats["stats"]
    assert counters["batches"] == 1
    assert counters["engine_calls"] == 2  # one per (gpu, dtype) bucket
    assert counters["served"] == 8


def test_a_chunk_past_max_batch_is_priced_in_slices():
    queries = "".join(_query_line(i) for i in range(10))
    answers, (stats,) = _run([queries, _stats_chunk()], max_batch=4)
    assert sorted(m["id"] for m in answers) == list(range(10))
    assert stats["stats"]["batches"] == 3  # ceil(10 / 4)
    assert [m["advisory"]["batch_size"] for m in answers] == [4] * 8 + [2] * 2


def test_a_ping_is_answered_in_its_chunks_write_ahead_of_the_advisories():
    chunk = (
        _query_line(0) + _query_line(1)
        + wire.encode_message("ping", id="p") + _query_line(2)
    )
    (write,) = _run([chunk])
    assert [(m["op"], m["id"]) for m in write] == [
        ("pong", "p"), ("advisory", 0), ("advisory", 1), ("advisory", 2),
    ]
    assert write[0]["worker"] == 3 and "inflight" not in write[0]


def test_lines_split_across_reads_are_joined():
    chunk = _query_line(0) + _query_line(1) + _query_line(2)
    cut = len(_query_line(0)) + 7
    first, second = _run([chunk[:cut], chunk[cut:]])
    assert [m["id"] for m in first] == [0]
    assert [m["id"] for m in second] == [1, 2]


def test_a_bad_line_gets_one_typed_error_and_the_chunk_is_still_answered():
    chunk = (
        _query_line(0) + "this is not json\n"
        + wire.query_message({"kind": "latency", "m": 0, "n": 1, "k": 1}, 1)
        + _query_line(2)
    )
    (write,) = _run([chunk])
    assert [m.get("id") for m in write] == [0, None, 1, 2]
    malformed, invalid = write[1]["advisory"], write[2]["advisory"]
    assert malformed["error_type"] == "ConfigError"
    assert invalid["error_type"] == "ShapeError"
    assert malformed["retryable"] is invalid["retryable"] is False
    assert [write[i]["advisory"]["status"] for i in (0, 3)] == ["ok", "ok"]


def test_shutdown_answers_what_came_before_it_and_drops_the_rest():
    chunk = (
        _query_line(0) + wire.encode_message("shutdown") + _query_line(1)
    )
    (write,) = _run([chunk, _query_line(2)])
    assert [m["id"] for m in write] == [0]


def test_an_unterminated_last_line_is_answered_at_eof():
    (write,) = _run([_query_line(0).rstrip("\n")])
    assert [m["id"] for m in write] == [0]


def test_run_starts_no_thread():
    before = set(threading.enumerate())
    seen = []

    def chunks():
        for i in range(3):
            seen.append(set(threading.enumerate()))
            yield (_query_line(i) + wire.encode_message("ping", id=i)).encode()
        seen.append(set(threading.enumerate()))

    worker = WorkerLoop(0, ServeConfig(workers=1), out=_RecordingStream())
    worker.run(chunks())
    seen.append(set(threading.enumerate()))
    assert len(seen) == 5
    assert all(threads == before for threads in seen)
