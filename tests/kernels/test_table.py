"""Table-artifact invariants: buckets, checksums, round-trips, diffs."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelTableError
from repro.kernels.table import (
    SCHEMA_VERSION,
    KernelEntry,
    KernelTable,
    bucket_of,
    compare_tables,
)


def _entry(batch=1, m=256, n=256, k=256, tile="128x256", **kw):
    base = dict(
        batch=batch, m=m, n=n, k=k,
        tile=tile, tile_m=128, tile_n=256, k_stage=32, threads=256,
        waves=2, blocks=16, latency_s=1e-4, tflops=100.0,
        runner_up="128x128", margin=1.2,
    )
    base.update(kw)
    return KernelEntry(**base)


def _table(entries, **kw):
    base = dict(
        gpu="A100",
        dtype="FP16",
        model_version="1:test",
        schema=SCHEMA_VERSION,
        provenance=(("tuner", "test"),),
        entries=tuple(entries),
    )
    base.update(kw)
    return KernelTable(**base)


class TestBucketOf:
    def test_octaves(self):
        assert bucket_of(1) == 0
        assert bucket_of(64) == 6
        assert bucket_of(96) == 6  # the 64..127 octave
        assert bucket_of(127) == 6
        assert bucket_of(128) == 7

    def test_rejects_nonpositive(self):
        with pytest.raises(KernelTableError):
            bucket_of(0)
        with pytest.raises(KernelTableError):
            bucket_of(-4)

    @given(v=st.integers(min_value=1, max_value=1 << 40))
    def test_matches_floor_log2(self, v):
        assert 2 ** bucket_of(v) <= v < 2 ** (bucket_of(v) + 1)


_finite = st.floats(
    min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False
)
_extent = st.integers(min_value=1, max_value=1 << 16)

_entries = st.builds(
    KernelEntry,
    batch=_extent, m=_extent, n=_extent, k=_extent,
    tile=st.sampled_from(["256x128", "128x256", "64x64", "32x32"]),
    tile_m=st.sampled_from([32, 64, 128, 256]),
    tile_n=st.sampled_from([32, 64, 128, 256]),
    k_stage=st.just(32),
    threads=st.sampled_from([64, 128, 256]),
    waves=st.integers(min_value=1, max_value=4096),
    blocks=st.integers(min_value=1, max_value=1 << 20),
    latency_s=_finite,
    tflops=_finite,
    runner_up=st.one_of(st.none(), st.just("64x128")),
    margin=st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
)


class TestRoundTrip:
    def test_tuned_table_round_trips_bit_for_bit(self, tiny_table):
        text = tiny_table.to_json()
        assert KernelTable.from_json(text).to_json() == text
        assert KernelTable.from_json(text) == tiny_table

    @settings(max_examples=50, deadline=None)
    @given(entries=st.lists(_entries, min_size=0, max_size=4))
    def test_any_table_round_trips_bit_for_bit(self, entries):
        table = _table(entries)
        text = table.to_json()
        assert KernelTable.from_json(text).to_json() == text

    def test_checksum_is_pure_function_of_payload(self, tiny_table):
        assert tiny_table.checksum() == tiny_table.checksum()
        moved = dataclasses.replace(tiny_table, model_version="1:other")
        assert moved.checksum() != tiny_table.checksum()


class TestVerificationAtLoad:
    def test_tampered_entry_fails_checksum(self, tiny_table):
        data = json.loads(tiny_table.to_json())
        data["entries"][0]["latency_s"] *= 2
        with pytest.raises(KernelTableError, match="checksum mismatch"):
            KernelTable.from_json(json.dumps(data))

    def test_tampered_checksum_fails(self, tiny_table):
        data = json.loads(tiny_table.to_json())
        data["checksum"] = "0" * 16
        with pytest.raises(KernelTableError, match="checksum mismatch"):
            KernelTable.from_json(json.dumps(data))

    def test_unsupported_schema_rejected(self, tiny_table):
        data = json.loads(tiny_table.to_json())
        data["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(KernelTableError, match="unsupported table schema"):
            KernelTable.from_json(json.dumps(data))

    def test_malformed_json_rejected(self):
        with pytest.raises(KernelTableError, match="malformed table JSON"):
            KernelTable.from_json("{not json")
        with pytest.raises(KernelTableError, match="JSON object"):
            KernelTable.from_json("[1, 2]")

    def test_bad_containers_rejected(self):
        base = {"schema": SCHEMA_VERSION, "provenance": {}, "entries": []}
        bad_prov = dict(base, provenance=[1])
        with pytest.raises(KernelTableError, match="provenance"):
            KernelTable.from_json(json.dumps(bad_prov))
        bad_entries = dict(base, entries={})
        with pytest.raises(KernelTableError, match="entries"):
            KernelTable.from_json(json.dumps(bad_entries))
        missing_fields = dict(base, entries=[{"batch": 1}])
        with pytest.raises(KernelTableError, match="bad table entry"):
            KernelTable.from_json(json.dumps(missing_fields))


class TestLookup:
    def test_hit_anywhere_in_bucket_and_miss_outside(self, tiny_table):
        rep = tiny_table.lookup(1, 256, 512, 256)
        assert rep is not None and (rep.m, rep.n, rep.k) == (256, 512, 256)
        # 300 and 256 share the log2 bucket; 700 lands in 512's.
        assert tiny_table.lookup(1, 300, 700, 300) == rep
        assert tiny_table.lookup(1, 64, 256, 256) is None  # m octave untuned
        assert tiny_table.lookup(8, 256, 256, 256) is None  # batch untuned

    def test_one_entry_per_bucket(self, tiny_table):
        assert len(tiny_table.entries) == 8  # 2 dims ** 3 x 1 batch
        assert len(tiny_table.index()) == len(tiny_table.entries)


class TestCompareTables:
    def test_identical_tables_diff_empty(self, tiny_table):
        assert compare_tables(tiny_table, tiny_table) == []
        reparsed = KernelTable.from_json(tiny_table.to_json())
        assert compare_tables(tiny_table, reparsed) == []

    def test_model_version_line_first_and_checksum_last(self, tiny_table):
        fresh = dataclasses.replace(tiny_table, model_version="2:bumped")
        diff = compare_tables(tiny_table, fresh)
        assert diff
        assert "model_version" in diff[0]
        assert "--update-golden" in diff[0]
        assert diff[-1].startswith("checksum:")

    def test_target_change_short_circuits(self, tiny_table):
        fresh = dataclasses.replace(tiny_table, gpu="H100")
        diff = compare_tables(tiny_table, fresh)
        assert len(diff) == 1
        assert "target changed" in diff[0]

    def test_pick_changes_ranked_by_latency_move(self):
        small = _entry(m=256, tile="128x256", latency_s=1e-4)
        big = _entry(m=512, tile="128x256", latency_s=1e-4)
        stored = _table([small, big])
        fresh = _table([
            # Small move on the m=256 bucket, big move on m=512.
            small._replace(tile="64x64", latency_s=1.05e-4),
            big._replace(tile="32x32", latency_s=3e-4),
        ])
        diff = compare_tables(stored, fresh)
        picks = [line for line in diff if "pick" in line]
        assert len(picks) == 2
        assert "512" in picks[0] and "200.0% move" in picks[0]
        assert "256" in picks[1]
        assert diff[-1].startswith("checksum:")

    def test_numeric_drift_without_pick_change_is_reported(self):
        entry = _entry()
        stored = _table([entry])
        fresh = _table([entry._replace(latency_s=2e-4)])
        diff = compare_tables(stored, fresh)
        assert any("numbers drifted" in line for line in diff)

    def test_bucket_count_and_membership_changes(self):
        a, b = _entry(m=256), _entry(m=512)
        diff = compare_tables(_table([a, b]), _table([a]))
        assert any("bucket count" in line for line in diff)
        assert any("entry removed" in line for line in diff)
        diff = compare_tables(_table([a]), _table([a, b]))
        assert any("new entry" in line for line in diff)
