"""Tests for the two cache levels, key construction, and invalidation."""

import numpy as np
import pytest

from repro.engine import cache as engine_cache
from repro.engine.cache import (
    CacheStats,
    DiskCache,
    LRUCache,
    shapes_digest,
    spec_key,
    tile_policy_key,
)
from repro.engine.core import (
    DISK_CACHE_ENV,
    ShapeEngine,
    default_engine,
    reset_default_engine,
)
from repro.engine.vectorized import shape_array
from repro.gpu import alignment
from repro.gpu.gemm_model import GemmModel
from repro.gpu.specs import get_gpu
from repro.gpu.tiles import candidate_tiles, default_tile
from repro.types import DType

SHAPES = shape_array([512, 1024, 1000], [512, 1024, 1000], [64, 128, 80])


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert "75% hit rate" in stats.describe()

    def test_empty_hit_rate(self):
        assert CacheStats().hit_rate == 0.0

    def test_snapshot_delta(self):
        stats = CacheStats(hits=5, misses=2)
        before = stats.snapshot()
        stats.hits += 3
        delta = stats.delta(before)
        assert (delta.hits, delta.misses) == (3, 0)


class TestLRUCache:
    def test_hit_miss_counters(self):
        lru = LRUCache(maxsize=4)
        assert lru.get("a") is None
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert (lru.stats.hits, lru.stats.misses) == (1, 1)

    def test_evicts_least_recently_used(self):
        lru = LRUCache(maxsize=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # refresh "a"; "b" is now LRU
        lru.put("c", 3)
        assert lru.get("b") is None
        assert lru.get("a") == 1 and lru.get("c") == 3

    def test_clear(self):
        lru = LRUCache(maxsize=2)
        lru.put("a", 1)
        lru.clear()
        assert len(lru) == 0 and lru.get("a") is None

    def test_bad_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


class TestKeys:
    def test_spec_key_distinct_and_hashable(self):
        keys = {spec_key(get_gpu(g)) for g in ("A100", "V100", "H100", "MI250X")}
        assert len(keys) == 4

    def test_spec_key_follows_every_field(self):
        import dataclasses

        a100 = get_gpu("A100")
        assert spec_key(a100) is spec_key(a100)  # computed once per spec
        fewer_sms = dataclasses.replace(a100, num_sms=100)
        assert spec_key(fewer_sms) != spec_key(a100)
        assert spec_key(dataclasses.replace(a100)) == spec_key(a100)
        faster = a100.with_overrides(
            matrix_tflops={**a100.matrix_tflops, DType.FP16: 400.0}
        )
        assert spec_key(faster) != spec_key(a100)

    def test_same_name_calibrated_spec_never_reuses_builtin_entry(self):
        a100 = get_gpu("A100")
        calibrated = a100.with_overrides(kernel_overhead_s=9.0e-6)
        assert calibrated.name == a100.name
        assert spec_key(calibrated) != spec_key(a100)
        engine = ShapeEngine()
        shapes = shape_array([1024], [1024], [512])
        builtin = engine.latency(shapes, a100)
        tuned = engine.latency(shapes, calibrated)
        assert engine.memory_stats.hits == 0
        assert tuned[0] == GemmModel(calibrated).evaluate(1024, 1024, 512).latency_s
        assert tuned[0] != builtin[0]

    def test_tile_policy_key_variants(self):
        tile = default_tile()
        pool = candidate_tiles(get_gpu("A100"), DType.FP16)
        auto = tile_policy_key(None, None)
        pinned = tile_policy_key(tile, None)
        cands = tile_policy_key(None, pool)
        assert len({auto, pinned, cands}) == 3
        assert auto == ("auto",)
        # A pinned tile wins over candidates, like GemmModel's precedence.
        assert tile_policy_key(tile, pool) == pinned

    def test_shapes_digest_stable_and_distinct(self):
        a = shape_array([128, 256], [128, 256], [64, 64])
        assert shapes_digest(a) == shapes_digest(a.tolist())
        b = shape_array([128, 257], [128, 256], [64, 64])
        assert shapes_digest(a) != shapes_digest(b)

    def test_model_version_tracks_calibration(self, monkeypatch):
        before = engine_cache.model_version()
        monkeypatch.setattr(alignment, "_EFF_AT_MIN", alignment._EFF_AT_MIN / 2)
        assert engine_cache.model_version() != before


class TestShapeEngineMemory:
    def test_second_evaluate_hits(self):
        engine = ShapeEngine()
        first = engine.evaluate(SHAPES, "A100")
        second = engine.evaluate(SHAPES, "A100")
        assert second is first
        assert engine.memory_stats.hits == 1
        assert engine.memory_stats.misses == 1

    def test_distinct_configs_do_not_collide(self):
        engine = ShapeEngine()
        a = engine.evaluate(SHAPES, "A100", "fp16")
        b = engine.evaluate(SHAPES, "A100", "fp32")
        c = engine.evaluate(SHAPES, "V100", "fp16")
        d = engine.evaluate(SHAPES, "A100", "fp16", tile=default_tile())
        assert engine.memory_stats.misses == 4
        assert not np.array_equal(a.latency_s, b.latency_s)
        assert not np.array_equal(a.latency_s, c.latency_s)
        assert not np.array_equal(a.latency_s, d.latency_s)

    def test_model_version_bump_invalidates(self, monkeypatch):
        engine = ShapeEngine()
        engine.evaluate(SHAPES, "A100")
        monkeypatch.setattr(engine_cache, "MODEL_VERSION", "999-test")
        engine.evaluate(SHAPES, "A100")
        assert engine.memory_stats.misses == 2
        assert engine.memory_stats.hits == 0

    def test_calibration_mutation_invalidates_and_changes_result(self, monkeypatch):
        # n=k=1032 (pow-2 divisor 8) sits exactly on the _EFF_AT_MIN knee,
        # so re-fitting the floor must both miss the cache and change the
        # answer.
        shapes = shape_array(2048, 1032, 1032)
        engine = ShapeEngine()
        before = engine.evaluate(shapes, "A100")
        monkeypatch.setattr(alignment, "_EFF_AT_MIN", 0.25)
        after = engine.evaluate(shapes, "A100")
        assert engine.memory_stats.misses == 2
        assert float(after.latency_s[0]) != float(before.latency_s[0])

    def test_clear(self):
        engine = ShapeEngine()
        engine.evaluate(SHAPES, "A100")
        engine.clear()
        engine.evaluate(SHAPES, "A100")
        assert engine.memory_stats.misses == 2

    def test_describe_mentions_hit_rate(self):
        engine = ShapeEngine()
        engine.evaluate(SHAPES, "A100")
        assert "hit rate" in engine.describe()


class TestDiskCache:
    def test_roundtrip_across_engines(self, tmp_path):
        first = ShapeEngine(disk_dir=tmp_path)
        result = first.evaluate(SHAPES, "A100")
        assert len(first._disk) == 1

        fresh = ShapeEngine(disk_dir=tmp_path)
        loaded = fresh.evaluate(SHAPES, "A100")
        assert fresh.disk_stats.hits == 1
        assert fresh.memory_stats.misses == 1  # memory missed, disk served
        np.testing.assert_array_equal(loaded.latency_s, result.latency_s)
        np.testing.assert_array_equal(loaded.tflops, result.tflops)
        assert loaded.pool == result.pool

        # Second call is now served from memory, not disk.
        fresh.evaluate(SHAPES, "A100")
        assert fresh.memory_stats.hits == 1
        assert fresh.disk_stats.hits == 1

    def test_key_mismatch_is_a_miss(self, tmp_path):
        disk = DiskCache(tmp_path)
        disk.put("deadbeef", "key-A", {"x": np.arange(3)}, {"note": "t"})
        assert disk.get("deadbeef", "key-B") is None
        assert disk.get("deadbeef", "key-A") is not None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        disk = DiskCache(tmp_path)
        (tmp_path / "cafe.soa").write_bytes(b"not a soa entry")
        assert disk.get("cafe", "whatever") is None

    def test_clear_removes_files(self, tmp_path):
        engine = ShapeEngine(disk_dir=tmp_path)
        engine.evaluate(SHAPES, "A100")
        engine.clear(disk=True)
        assert len(engine._disk) == 0

    def test_default_engine_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DISK_CACHE_ENV, str(tmp_path))
        reset_default_engine()
        try:
            engine = default_engine()
            assert engine._disk is not None
            engine.evaluate(SHAPES, "A100")
            assert len(engine._disk) == 1
        finally:
            monkeypatch.delenv(DISK_CACHE_ENV)
            reset_default_engine()


class TestScalarMemo:
    def setup_method(self):
        engine_cache.clear_scalar_memo()

    def test_repeat_evaluate_hits(self):
        model = GemmModel("A100")
        before = engine_cache.scalar_memo_stats().snapshot()
        a = model.evaluate(2048, 2048, 64)
        b = model.evaluate(2048, 2048, 64)
        used = engine_cache.scalar_memo_stats().delta(before)
        assert b is a
        assert (used.hits, used.misses) == (1, 1)

    def test_shared_across_model_instances(self):
        before = engine_cache.scalar_memo_stats().snapshot()
        GemmModel("A100").evaluate(1024, 1024, 512)
        GemmModel("A100").evaluate(1024, 1024, 512)
        used = engine_cache.scalar_memo_stats().delta(before)
        assert used.hits == 1

    def test_disabled_memo_recomputes(self):
        model = GemmModel("A100")
        engine_cache.configure(enabled=False)
        try:
            before = engine_cache.scalar_memo_stats().snapshot()
            a = model.evaluate(2048, 2048, 64)
            b = model.evaluate(2048, 2048, 64)
            used = engine_cache.scalar_memo_stats().delta(before)
            assert used.lookups == 0
            assert a == b and a is not b
        finally:
            engine_cache.configure(enabled=True)

    def test_calibration_mutation_respected(self, monkeypatch):
        # Bit of history: the memo key embeds model_version() precisely so
        # a calibration fit (which mutates alignment constants in place)
        # can never be served a stale pre-fit result.
        model = GemmModel("A100")
        before = model.evaluate(2048, 1032, 1032)
        monkeypatch.setattr(alignment, "_EFF_AT_MIN", 0.25)
        after = model.evaluate(2048, 1032, 1032)
        assert after.latency_s != before.latency_s

    def test_distinct_policies_do_not_collide(self):
        auto = GemmModel("A100").evaluate(2048, 2048, 80)
        pinned = GemmModel("A100", tile=default_tile()).evaluate(2048, 2048, 80)
        assert auto.tile != pinned.tile or auto.latency_s != pinned.latency_s

    def test_configure_maxsize_preserves_stats(self):
        engine_cache.scalar_memo().stats.hits += 0  # touch
        old_stats = engine_cache.scalar_memo_stats()
        engine_cache.configure(maxsize=1024)
        try:
            assert engine_cache.scalar_memo().maxsize == 1024
            assert engine_cache.scalar_memo_stats() is old_stats
        finally:
            engine_cache.configure(maxsize=262144)
