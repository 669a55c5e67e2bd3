"""Transport-agnostic dispatch layer: wire codec, typed error
advisories, retryability, and the unwrap inverse."""

import pytest

from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    FaultInjectionError,
    LoadShedError,
    QueueFullError,
    ServeError,
    ServerClosedError,
    TaskTimeoutError,
    WorkerDiedError,
)
from repro.serve import wire
from repro.serve.config import ServeConfig
from repro.serve.dispatch import (
    RETRYABLE_ERRORS,
    TYPED_ERRORS,
    Transport,
    error_to_advisory,
    is_retryable,
    unwrap_advisory,
)
from repro.serve.protocol import Advisory, ShapeQuery
from repro.serve.server import AdvisoryServer


def _query(**kw):
    base = dict(kind="latency", m=128, n=128, k=128)
    base.update(kw)
    return ShapeQuery(**base)


class TestWireCodec:
    def test_roundtrip(self):
        line = wire.encode_message("advisory", id=7, advisory={"a": 1})
        assert line.endswith("\n")
        assert "\n" not in line[:-1]
        message = wire.decode_line(line)
        assert message == {"op": "advisory", "id": 7, "advisory": {"a": 1}}

    def test_none_fields_are_elided(self):
        line = wire.encode_message("pong", id=None, live=2)
        assert "id" not in wire.decode_line(line)

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigError):
            wire.decode_line('{"op": "mystery"}\n')

    def test_missing_op_defaults_to_query(self):
        # A bare query object is a valid request line (nc-friendly).
        assert wire.decode_line('{"m": 4096}\n')["op"] == "query"

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            wire.decode_line("not json at all\n")
        with pytest.raises(ConfigError):
            wire.decode_line('["a", "list"]\n')

    def test_query_message_and_payload(self):
        query = _query(gpu="H100")
        line = wire.query_message(query.to_dict(), 3)
        message = wire.decode_line(line)
        assert message["op"] == "query"
        assert message["id"] == 3
        payload = wire.request_payload(message)
        assert ShapeQuery.from_dict(payload) == query

    def test_request_payload_accepts_bare_query(self):
        # A minimal peer may put the query fields at the top level.
        bare = wire.decode_line(
            wire.encode_message("query", id=1, **_query().to_dict())
        )
        assert ShapeQuery.from_dict(wire.request_payload(bare)) == _query()


class TestErrorToAdvisory:
    def test_backpressure_is_rejected_and_retryable(self):
        query = _query()
        for exc in (
            QueueFullError("full"),
            DeadlineExceededError("late"),
            LoadShedError("shed"),
        ):
            advisory = error_to_advisory(query, exc)
            assert advisory.status == "rejected"
            assert advisory.retryable is True
            assert advisory.error_type == type(exc).__name__
            assert not advisory.ok

    def test_model_error_is_failed_and_not_retryable(self):
        advisory = error_to_advisory(_query(), ConfigError("bad model"))
        assert advisory.status == "failed"
        assert advisory.retryable is False
        assert advisory.error_type == "ConfigError"

    def test_no_raw_traceback_crosses_the_wire(self):
        try:
            raise QueueFullError("queue full at depth 512")
        except QueueFullError as exc:
            advisory = error_to_advisory(_query(), exc)
        flat = repr(advisory.to_dict())
        assert "Traceback" not in flat
        assert "queue full at depth 512" in flat

    def test_unparseable_query_echoes_raw_request(self):
        raw = {"kind": "latency", "m": "not-a-number"}
        advisory = error_to_advisory(None, ConfigError("bad m"), raw_query=raw)
        assert advisory.payload["request"] == raw
        assert advisory.status == "failed"

    def test_shard_is_stamped(self):
        advisory = error_to_advisory(_query(), LoadShedError("x"), shard=3)
        assert advisory.shard == 3

    def test_wire_roundtrip_preserves_typing(self):
        advisory = error_to_advisory(_query(), WorkerDiedError("gone"))
        back = Advisory.from_dict(advisory.to_dict())
        assert back.error_type == "WorkerDiedError"
        assert back.retryable is True
        assert back.status == advisory.status


class TestRetryability:
    def test_transient_capacity_errors_retryable(self):
        for exc in (
            QueueFullError("x"),
            DeadlineExceededError("x"),
            LoadShedError("x"),
            WorkerDiedError("x"),
            TaskTimeoutError("x"),
        ):
            assert is_retryable(exc), exc

    def test_query_properties_not_retryable(self):
        for exc in (
            ConfigError("x"),
            ServerClosedError("x"),
            FaultInjectionError("x"),
        ):
            assert not is_retryable(exc), exc

    def test_environmental_errors_retryable(self):
        assert is_retryable(OSError("torn pipe"))
        assert is_retryable(EOFError("closed"))
        assert not is_retryable(ValueError("programming bug"))

    def test_registry_names_match_classes(self):
        assert RETRYABLE_ERRORS == {
            "QueueFullError", "DeadlineExceededError", "LoadShedError",
            "WorkerDiedError", "TaskTimeoutError",
        }


class TestUnwrapAdvisory:
    def test_ok_advisory_returns_payload(self):
        advisory = Advisory(query=_query(), status="ok")
        advisory.payload = {"latency_ms": 1.5}
        assert unwrap_advisory(advisory) == {"latency_ms": 1.5}

    def test_typed_reraise(self):
        for exc_cls in (QueueFullError, LoadShedError, WorkerDiedError):
            advisory = error_to_advisory(_query(), exc_cls("boom"))
            with pytest.raises(exc_cls, match="boom"):
                unwrap_advisory(advisory)

    def test_unknown_error_type_folds_to_serve_error(self):
        advisory = Advisory(
            query=_query(), status="failed",
            error="who knows", error_type="SomethingNovelError",
        )
        with pytest.raises(ServeError, match="who knows"):
            unwrap_advisory(advisory)

    def test_config_error_folds_to_serve_error(self):
        # Callers catching ServeError must always get one: non-serve
        # error types re-raise as the base class, the precise name
        # stays on the advisory for logs.
        advisory = error_to_advisory(_query(), ConfigError("bad model"))
        with pytest.raises(ServeError, match="bad model"):
            unwrap_advisory(advisory)
        assert not isinstance(TYPED_ERRORS.get("ConfigError"), type)

    def test_every_typed_error_is_a_serve_error(self):
        for cls in TYPED_ERRORS.values():
            assert issubclass(cls, ServeError), cls


class TestTransportProtocol:
    def test_in_process_server_satisfies_transport(self):
        server = AdvisoryServer(ServeConfig(workers=1))
        assert isinstance(server, Transport)

    def test_priority_rides_the_wire_only_when_set(self):
        assert "priority" not in _query().to_dict()
        elevated = _query(priority=7)
        assert elevated.to_dict()["priority"] == 7
        assert ShapeQuery.from_dict(elevated.to_dict()).priority == 7

    def test_priority_does_not_change_cache_key(self):
        assert _query(priority=0).cache_key() == _query(priority=9).cache_key()
