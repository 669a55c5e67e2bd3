"""Resolver behaviour: loading, staleness refusal, memo, fallback."""

import dataclasses

import pytest

from repro.engine.cache import model_version
from repro.errors import KernelTableError
from repro.kernels.registry import TABLES_ENV, KernelParamResolver, load_tables
from repro.kernels.search import best_for_shape
from repro.kernels.table import KernelTable


@pytest.fixture()
def table_dir(tmp_path, tiny_table):
    path = tmp_path / f"{tiny_table.gpu}-{tiny_table.dtype}.json"
    path.write_text(tiny_table.to_json())
    return tmp_path


class TestLoadTables:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(KernelTableError, match="directory not found"):
            load_tables(tmp_path / "nope")

    def test_corrupt_artifact_names_the_path(self, table_dir):
        bad = table_dir / "H100-FP16.json"
        bad.write_text('{"schema": 1, "broken": tru')
        with pytest.raises(KernelTableError, match="H100-FP16.json"):
            load_tables(table_dir)

    def test_loads_and_verifies(self, table_dir, tiny_table):
        (loaded,) = load_tables(table_dir)
        assert loaded == tiny_table


class TestResolver:
    def test_hit_serves_the_bucket_entry(self, tiny_table, engine):
        resolver = KernelParamResolver(tables=[tiny_table], engine=engine)
        entry = tiny_table.lookup(1, 256, 512, 256)
        payload = resolver.resolve(1, 256, 512, 256, "A100", "fp16")
        assert payload["table_hit"] is True
        assert payload["table_checksum"] == tiny_table.checksum()
        assert payload["model_version"] == model_version()
        for key, value in entry.to_dict().items():
            assert payload[key] == value

    def test_whole_bucket_shares_one_answer(self, tiny_table, engine):
        resolver = KernelParamResolver(tables=[tiny_table], engine=engine)
        rep = resolver.resolve(1, 256, 512, 256, "A100", "fp16")
        off = resolver.resolve(1, 300, 700, 280, "A100", "fp16")
        assert off == rep  # same log2 buckets -> same entry

    def test_miss_falls_back_to_exact_shape_argmin(self, tiny_table, engine):
        resolver = KernelParamResolver(tables=[tiny_table], engine=engine)
        # m=64 is outside the tiny grid's octaves: a clean miss.
        payload = resolver.resolve(1, 64, 256, 256, "A100", "fp16")
        assert payload["table_hit"] is False
        assert payload["table_checksum"] is None
        expected = best_for_shape(1, 64, 256, 256, "A100", engine=engine)
        for key, value in expected.to_dict().items():
            assert payload[key] == value

    def test_empty_resolver_always_falls_back(self, engine):
        resolver = KernelParamResolver(engine=engine)
        payload = resolver.resolve(1, 512, 512, 512, "A100", "fp16")
        assert payload["table_hit"] is False
        assert payload["tile"]

    def test_stale_table_refused_and_reported(self, tiny_table, engine):
        stale = dataclasses.replace(tiny_table, model_version="0:stale")
        resolver = KernelParamResolver(tables=[stale], engine=engine)
        assert resolver.tables == {}
        assert "stale" in resolver.describe()
        payload = resolver.resolve(1, 256, 256, 256, "A100", "fp16")
        assert payload["table_hit"] is False

    def test_table_checksum_is_computed_once_per_table(
        self, tiny_table, engine, monkeypatch
    ):
        want = tiny_table.checksum()
        calls = []
        original = KernelTable.checksum

        def counted(table):
            calls.append(table.gpu)
            return original(table)

        monkeypatch.setattr(KernelTable, "checksum", counted)
        resolver = KernelParamResolver(tables=[tiny_table], engine=engine)
        # Distinct shapes in covered buckets: every resolve is a table
        # hit past the memo.
        for m in (256, 300, 400, 511, 512, 700, 1000, 1023):
            payload = resolver.resolve(1, m, 256, 256, "A100", "fp16")
            assert payload["table_hit"] is True
            assert payload["table_checksum"] == want
        assert len(calls) <= 1

    def test_memo_returns_copies(self, tiny_table, engine):
        resolver = KernelParamResolver(tables=[tiny_table], engine=engine)
        first = resolver.resolve(1, 256, 256, 256, "A100", "fp16")
        first["tile"] = "tampered"
        second = resolver.resolve(1, 256, 256, 256, "A100", "fp16")
        assert second["tile"] != "tampered"

    def test_describe_names_loaded_tables(self, tiny_table, engine):
        resolver = KernelParamResolver(tables=[tiny_table], engine=engine)
        assert "A100/FP16" in resolver.describe()


class TestFromEnv:
    def test_env_directory_is_loaded(self, table_dir, engine, monkeypatch):
        monkeypatch.setenv(TABLES_ENV, str(table_dir))
        resolver = KernelParamResolver.from_env(engine=engine)
        assert ("A100", "FP16") in resolver.tables

    def test_unset_env_means_empty_resolver(self, engine, monkeypatch):
        monkeypatch.delenv(TABLES_ENV, raising=False)
        resolver = KernelParamResolver.from_env(engine=engine)
        assert resolver.tables == {}

    def test_bad_env_directory_raises(self, engine, monkeypatch, tmp_path):
        monkeypatch.setenv(TABLES_ENV, str(tmp_path / "missing"))
        with pytest.raises(KernelTableError):
            KernelParamResolver.from_env(engine=engine)
