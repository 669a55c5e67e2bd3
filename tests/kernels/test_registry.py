"""Resolver behaviour: loading, staleness refusal, memo, fallback, and
the batched ``resolve_many`` wall (== one shape at a time)."""

import dataclasses

import numpy as np
import pytest

from repro.engine.cache import model_version
from repro.engine.core import ShapeEngine
from repro.engine.grid import ShapeGrid
from repro.errors import KernelTableError
from repro.gpu.specs import get_gpu
from repro.kernels.registry import TABLES_ENV, KernelParamResolver, load_tables
from repro.kernels.search import _argmin_entries, best_for_shape, tune_table
from repro.kernels.table import KernelTable
from repro.observability.metrics import metrics
from repro.types import DType


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
        # A fresh instance, so no digest is memoized yet.  Hashing
        # serializes ``payload()``; count those builds.
        table = dataclasses.replace(tiny_table)
        want = tiny_table.checksum()
        calls = []
        original = KernelTable.payload

        def counted(self):
            calls.append(self.gpu)
            return original(self)

        monkeypatch.setattr(KernelTable, "payload", counted)
        resolver = KernelParamResolver(tables=[table], engine=engine)
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


# -- resolve_many wall ---------------------------------------------------------

_WALL_GPUS = ("A100", "H100", "V100", "MI250X")


def _computes():
    return metrics().counter("engine.evaluate.computes").value


def reference_resolve(tables, batch, m, n, k, gpu, dtype="fp16"):
    """The per-shape resolution ``resolve_many`` replaced: a bucket
    lookup, else a one-row tile sweep at the exact shape."""
    spec = get_gpu(gpu)
    parsed = DType.parse(dtype)
    table = {(t.gpu, t.dtype): t for t in tables}.get((spec.name, parsed.name))
    entry = table.lookup(batch, m, n, k) if table is not None else None
    checksum = table.checksum() if entry is not None else None
    if entry is None:
        grid = ShapeGrid.from_columns(
            batch=np.asarray([batch]), m=np.asarray([m]),
            n=np.asarray([n]), k=np.asarray([k]),
        )
        sweep = ShapeEngine().evaluate_tiles(grid, spec, parsed)
        (entry,) = _argmin_entries(grid, sweep)
    payload = entry.to_dict()
    payload["table_hit"] = checksum is not None
    payload["table_checksum"] = checksum
    payload["model_version"] = model_version()
    return payload


def _wall_shapes(seed):
    """Table hits, misses (untuned octaves and batches) and duplicates."""
    rng = np.random.default_rng(seed)
    hits = [(1, int(m), int(n), int(k))
            for m, n, k in rng.integers(256, 1024, size=(6, 3))]
    misses = [(int(b), int(m), int(n), int(k))
              for b, m, n, k in zip(rng.integers(2, 9, 8),
                                    *rng.integers(1, 6000, size=(3, 8)))]
    shapes = hits + misses + [misses[0], hits[0], misses[3], misses[0]]
    order = rng.permutation(len(shapes))
    return [shapes[i] for i in order]


@pytest.fixture(scope="module")
def wall_tables(engine):
    return [
        tune_table(gpu, dims=(256, 512), batches=(1,), engine=engine)
        for gpu in _WALL_GPUS
    ]


class TestResolveMany:
    @pytest.mark.parametrize("gpu", _WALL_GPUS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_equals_one_at_a_time(self, wall_tables, gpu, seed):
        shapes = _wall_shapes(seed)
        batched = KernelParamResolver(
            tables=wall_tables, engine=ShapeEngine()
        ).resolve_many(shapes, gpu)
        single = KernelParamResolver(tables=wall_tables, engine=ShapeEngine())
        one_at_a_time = [single.resolve(*s, gpu) for s in shapes]
        reference = [reference_resolve(wall_tables, *s, gpu) for s in shapes]
        assert batched == one_at_a_time == reference
        assert any(p["table_hit"] for p in batched)
        assert not all(p["table_hit"] for p in batched)

    @pytest.mark.parametrize("gpu", _WALL_GPUS)
    def test_memo_hits_mixed_with_fresh_shapes(self, wall_tables, gpu):
        shapes = _wall_shapes(3)
        resolver = KernelParamResolver(tables=wall_tables, engine=ShapeEngine())
        reference = [reference_resolve(wall_tables, *s, gpu) for s in shapes]
        # Memoize every other shape first, then answer the whole list.
        for s in shapes[::2]:
            resolver.resolve(*s, gpu)
        assert resolver.resolve_many(shapes, gpu) == reference
        # Everything is memoized now: a repeat prices nothing.
        before = _computes()
        assert resolver.resolve_many(shapes, gpu) == reference
        assert _computes() == before

    def test_payloads_are_distinct_dicts(self, wall_tables):
        resolver = KernelParamResolver(tables=wall_tables, engine=ShapeEngine())
        shape = (2, 96, 96, 96)
        first, second = resolver.resolve_many([shape, shape], "A100")
        assert first == second and first is not second
        first["tile"] = "tampered"
        assert resolver.resolve(*shape, "A100")["tile"] != "tampered"

    def test_misses_cost_one_tile_sweep(self, wall_tables):
        resolver = KernelParamResolver(tables=wall_tables, engine=ShapeEngine())
        misses = [(2, 100 + i, 300, 700) for i in range(5)]
        before = _computes()
        resolver.resolve_many(misses + misses[:2], "H100")
        assert _computes() == before + 1
        hits = [(1, 256 + i, 512, 256) for i in range(5)]
        before = _computes()
        resolver.resolve_many(hits, "H100")
        assert _computes() == before

    def test_empty_request_prices_nothing(self, wall_tables):
        resolver = KernelParamResolver(tables=wall_tables, engine=ShapeEngine())
        before = _computes()
        assert resolver.resolve_many([], "A100") == []
        assert _computes() == before
