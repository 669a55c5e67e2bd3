"""ServeConfig: validation contract and exact JSON round-trip (property-based)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.serve.config import ServeConfig

_POS_INT = st.integers(min_value=1, max_value=10_000)
_NONNEG_S = st.floats(min_value=0.0, max_value=120.0, allow_nan=False)
_OPT_POS_S = st.one_of(
    st.none(), st.floats(min_value=1e-3, max_value=120.0, allow_nan=False)
)

valid_configs = st.builds(
    ServeConfig,
    workers=st.integers(min_value=1, max_value=32),
    max_batch=_POS_INT,
    max_queue=_POS_INT,
    linger_s=_NONNEG_S,
    deadline_s=_OPT_POS_S,
    cache_ttl_s=_NONNEG_S,
    cache_entries=_POS_INT,
    retries=st.integers(min_value=0, max_value=8),
    retry_backoff_s=_NONNEG_S,
    compute_timeout_s=_OPT_POS_S,
)


class TestRoundTrip:
    @given(valid_configs)
    @settings(max_examples=150, deadline=None)
    def test_json_round_trip_is_exact(self, cfg):
        assert ServeConfig.from_json(cfg.to_json()) == cfg

    @given(valid_configs)
    @settings(max_examples=50, deadline=None)
    def test_dict_round_trip_is_exact(self, cfg):
        assert ServeConfig.from_dict(cfg.to_dict()) == cfg

    def test_defaults_round_trip(self):
        cfg = ServeConfig()
        assert ServeConfig.from_json(cfg.to_json()) == cfg

    def test_partial_dict_fills_defaults(self):
        cfg = ServeConfig.from_dict({"workers": 4})
        assert cfg.workers == 4
        assert cfg.max_batch == ServeConfig().max_batch


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("workers", 0),
            ("workers", -1),
            ("max_batch", 0),
            ("max_queue", 0),
            ("linger_s", -0.1),
            ("deadline_s", 0.0),
            ("deadline_s", -1.0),
            ("cache_ttl_s", -1.0),
            ("cache_entries", 0),
            ("retries", -1),
            ("retry_backoff_s", -0.5),
            ("compute_timeout_s", 0.0),
        ],
    )
    def test_bad_value_raises(self, field, value):
        with pytest.raises(ConfigError):
            ServeConfig(**{field: value})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown serve config field"):
            ServeConfig.from_dict({"workerz": 2})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            ServeConfig.from_dict([1, 2, 3])

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            ServeConfig.from_json("{not json")

    def test_frozen(self):
        cfg = ServeConfig()
        with pytest.raises(AttributeError):
            cfg.workers = 9

    def test_describe_mentions_knobs(self):
        text = ServeConfig(workers=3, max_batch=16).describe()
        assert "3 worker(s)" in text
        assert "batch<=16" in text
