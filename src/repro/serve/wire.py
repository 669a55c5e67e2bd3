"""JSONL wire framing shared by worker pipes and network sockets.

One message per line, one JSON object per message — the same framing
``repro serve --queries`` already reads from files, promoted to the
cluster's two transports: supervisor <-> worker (stdin/stdout pipes)
and client <-> front-end (TCP).  Using a single codec for both means a
message captured off either hop replays on the other.

Message shapes (``op`` defaults to ``"query"`` when absent, so a bare
``{"m": ..., "n": ...}`` query object is also a valid request line):

- request:  ``{"op": "query", "id": 7, "query": {...}}``
- response: ``{"op": "advisory", "id": 7, "advisory": {...}}``
- health:   ``{"op": "ping", "id": 3}`` / ``{"op": "pong", "id": 3, ...}``
- stats:    ``{"op": "stats", "id": 9}`` / ``{"op": "stats", "id": 9,
  "stats": {...}}``
- lifecycle: ``{"op": "ready", "pid": ...}`` (worker handshake),
  ``{"op": "shutdown"}`` (graceful drain), ``{"op": "bye"}`` (worker
  acknowledges drain complete).

``id`` correlates responses with requests: the front-end answers
queries concurrently, so responses on one connection may arrive out of
submission order.

The codec is query-kind agnostic: ``kernel_params`` queries and their
tuned-table advisories ride the same frames as shape and lint queries,
which is what makes kernel answers bit-identical across the pipe and
TCP transports (the payload is one JSON object either way).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # workers import this module and never run a loop
    import asyncio

__all__ = [
    "OPS",
    "LineBatch",
    "decode_line",
    "encode_message",
    "query_message",
    "request_payload",
]

#: Every operation either side of a wire may send.
OPS = (
    "query", "advisory", "ping", "pong", "stats",
    "ready", "shutdown", "bye", "reload",
)


def encode_message(op: str, **fields: Any) -> str:
    """One wire line (newline-terminated JSON) for ``op`` + fields.

    ``None`` fields are elided: an absent key and a ``null`` value read
    the same on the far side (``message.get``), so the wire stays
    minimal and ``id=None`` (unparseable request) sends no id at all.
    """
    if op not in OPS:
        raise ConfigError(f"unknown wire op {op!r}; expected one of {OPS}")
    record: Dict[str, Any] = {"op": op}
    record.update((k, v) for k, v in fields.items() if v is not None)
    return json.dumps(record, sort_keys=True) + "\n"


def decode_line(line: "str | bytes") -> Dict[str, Any]:
    """Parse one wire line into a message dict, validating the op.

    Raises :class:`~repro.errors.ConfigError` on malformed JSON, a
    non-object line, or an unknown ``op`` — the callers map that to a
    structured error advisory rather than tearing the connection down.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"wire line is not UTF-8: {exc}") from exc
    try:
        data = json.loads(line)
    except ValueError as exc:
        raise ConfigError(f"malformed wire JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(
            f"wire message must be an object, got {type(data).__name__}"
        )
    op = data.setdefault("op", "query")
    if op not in OPS:
        raise ConfigError(f"unknown wire op {op!r}; expected one of {OPS}")
    return data


def query_message(
    query_dict: Mapping[str, Any], request_id: int
) -> str:
    """The request line for one query dict."""
    return encode_message("query", id=request_id, query=dict(query_dict))


def request_payload(message: Mapping[str, Any]) -> Dict[str, Any]:
    """The query object of a request message.

    Accepts both the enveloped form (``{"op": "query", "query":
    {...}}``) and a bare query object (any dict without a recognized
    envelope key), so hand-written ``echo '{"m": 4096, ...}' | nc``
    sessions work against the front-end.
    """
    raw: Optional[Any] = message.get("query")
    if raw is None:
        # Bare query object: strip the envelope keys we injected.
        raw = {k: v for k, v in message.items() if k not in ("op", "id")}
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("request carries no query object")
    return raw


class LineBatch:
    """Wire lines queued during one event-loop iteration, sent as one write.

    The first :meth:`send` of an iteration schedules :meth:`flush` with
    ``loop.call_soon``, so every line queued before the loop runs its
    next ready callbacks reaches ``write`` as one bytes object, in the
    order sent.  Used on the event loop only (worker pipes and client
    sockets alike).
    """

    __slots__ = ("_loop", "_write", "_lines")

    def __init__(
        self, loop: asyncio.AbstractEventLoop, write: Callable[[bytes], None]
    ) -> None:
        self._loop = loop
        self._write = write
        self._lines: List[str] = []

    def send(self, line: str) -> None:
        if not self._lines:
            self._loop.call_soon(self.flush)
        self._lines.append(line)

    def flush(self) -> None:
        lines, self._lines = self._lines, []
        if lines:
            self._write("".join(lines).encode("utf-8"))
