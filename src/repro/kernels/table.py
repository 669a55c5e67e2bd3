"""The kernel-parameter table artifact: versioned, checksummed JSON.

A :class:`KernelTable` is the exported product of one tuning run
(:func:`repro.kernels.search.tune_table`): for one (GPU, dtype) pair it
maps log2 shape buckets to the tile/wave parameters the analytical
model ranks fastest at that bucket's representative shape.  The
artifact is designed for the same discipline as the golden snapshots
(:mod:`repro.harness.golden`):

- **versioned** — a ``schema`` integer for the file layout and the
  engine ``model_version`` the numbers were computed under.  A loaded
  table whose model version does not match the running engine is
  *stale*: its predicted latencies no longer agree with what the
  engine would serve, so the resolver refuses it.
- **checksummed** — a sha256 over the canonical JSON of everything
  except the checksum itself, so silent artifact edits and torn writes
  fail loudly at load.
- **deterministic** — no timestamps, hostnames, or float formatting
  noise anywhere in the payload: tuning the same (GPU, dtype) twice
  under one model version yields byte-identical files, which is what
  lets CI gate on golden-table drift.

:func:`compare_tables` mirrors ``harness.golden.compare_snapshot``: an
ordered, explanatory diff where the most explanatory difference (a
model-version bump) comes first and per-entry pick changes are ranked
by how much predicted latency they move.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import KernelTableError

__all__ = [
    "SCHEMA_VERSION",
    "KernelEntry",
    "KernelTable",
    "bucket_of",
    "compare_tables",
]

#: File-layout version; readers reject anything else.
SCHEMA_VERSION = 1

#: Hex digits kept from the sha256 (matches the golden snapshots).
_CHECKSUM_LEN = 16


def bucket_of(value: int) -> int:
    """The log2 bucket an extent falls in: ``floor(log2(value))``.

    Buckets quantize the continuous shape space into the octaves the
    table stores one representative entry for; ``bucket_of(96) == 6``
    (the 64..127 octave).
    """
    if value < 1:
        raise KernelTableError(f"extent must be >= 1, got {value}")
    return value.bit_length() - 1


class KernelEntry(NamedTuple):
    """One tuned bucket: the winning tile/wave parameters.

    ``batch``/``m``/``n``/``k`` are the bucket's *representative*
    shape (the power-of-two tuning point), not the query's exact
    shape.  ``latency_s`` / ``tflops`` are the analytical model's
    prediction for the winning tile at that representative shape;
    ``margin`` is runner-up latency over winner latency
    (dimensionless, >= 1; large margin = robust pick).

    A named tuple, not a frozen dataclass: a tuning pass builds one per
    bucket, and the tuner assembles them positionally with
    :meth:`_make` from its argmin columns.  Copies with changed fields
    come from :meth:`_replace`.
    """

    batch: int
    m: int
    n: int
    k: int
    tile: str
    tile_m: int
    tile_n: int
    k_stage: int
    threads: int
    waves: int
    blocks: int
    latency_s: float
    tflops: float
    runner_up: Optional[str]
    margin: float

    def bucket(self) -> Tuple[int, int, int, int]:
        """The (batch, m, n, k) log2 bucket this entry answers."""
        return (
            bucket_of(self.batch),
            bucket_of(self.m),
            bucket_of(self.n),
            bucket_of(self.k),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The entry as a JSON object, keys in field order."""
        return self._asdict()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "KernelEntry":
        try:
            return cls(
                batch=int(data["batch"]),
                m=int(data["m"]),
                n=int(data["n"]),
                k=int(data["k"]),
                tile=str(data["tile"]),
                tile_m=int(data["tile_m"]),
                tile_n=int(data["tile_n"]),
                k_stage=int(data["k_stage"]),
                threads=int(data["threads"]),
                waves=int(data["waves"]),
                blocks=int(data["blocks"]),
                latency_s=float(data["latency_s"]),
                tflops=float(data["tflops"]),
                runner_up=(
                    None if data.get("runner_up") is None
                    else str(data["runner_up"])
                ),
                margin=float(data["margin"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise KernelTableError(f"bad table entry: {exc}") from exc


@dataclass(frozen=True)
class KernelTable:
    """One (GPU, dtype) tuned kernel-parameter table.

    ``provenance`` describes how the table was produced (tuning grid,
    candidate pool, entry count) in *deterministic* terms only — it is
    part of the checksummed payload, so anything time- or
    machine-dependent would break byte-identical re-tuning.
    """

    gpu: str
    dtype: str
    model_version: str
    schema: int
    provenance: Tuple[Tuple[str, Any], ...]
    entries: Tuple[KernelEntry, ...]

    # -- canonical form ------------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """Everything the checksum covers, as plain JSON types."""
        return {
            "schema": self.schema,
            "gpu": self.gpu,
            "dtype": self.dtype,
            "model_version": self.model_version,
            "provenance": dict(self.provenance),
            "entries": [e.to_dict() for e in self.entries],
        }

    def checksum(self) -> str:
        """sha256 (truncated) over the canonical payload JSON.

        Hashed once per instance: the table is frozen and its entries
        are tuples, so the digest cannot change after construction, and
        :meth:`from_json`, :meth:`to_json`, :meth:`describe` and
        :func:`compare_tables` all reuse the first computation.
        """
        digest = self.__dict__.get("_checksum")
        if digest is None:
            canonical = json.dumps(
                self.payload(), sort_keys=True, separators=(",", ":")
            )
            digest = hashlib.sha256(canonical.encode()).hexdigest()[
                :_CHECKSUM_LEN
            ]
            object.__setattr__(self, "_checksum", digest)
        return digest

    def to_json(self) -> str:
        """The artifact text: payload plus its checksum, stable layout."""
        body = dict(self.payload())
        body["checksum"] = self.checksum()
        return json.dumps(body, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "KernelTable":
        """Parse and *verify* one artifact (checksum and schema)."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise KernelTableError(f"malformed table JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise KernelTableError("table artifact must be a JSON object")
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise KernelTableError(
                f"unsupported table schema {schema!r} "
                f"(this reader speaks {SCHEMA_VERSION})"
            )
        stated = data.get("checksum")
        provenance = data.get("provenance")
        if not isinstance(provenance, dict):
            raise KernelTableError("table 'provenance' must be an object")
        entries_raw = data.get("entries")
        if not isinstance(entries_raw, list):
            raise KernelTableError("table 'entries' must be an array")
        table = cls(
            gpu=str(data.get("gpu", "")),
            dtype=str(data.get("dtype", "")),
            model_version=str(data.get("model_version", "")),
            schema=int(schema),
            provenance=tuple(sorted(provenance.items())),
            entries=tuple(KernelEntry.from_dict(e) for e in entries_raw),
        )
        actual = table.checksum()
        if stated != actual:
            raise KernelTableError(
                f"table checksum mismatch for {table.gpu}/{table.dtype}: "
                f"file says {stated!r}, contents hash to {actual!r} "
                "(artifact edited or torn; re-tune with 'repro tune-kernels')"
            )
        return table

    # -- lookup --------------------------------------------------------------

    def index(self) -> Dict[Tuple[int, int, int, int], KernelEntry]:
        """Bucket -> entry map (rebuild cost is on the caller to cache)."""
        return {entry.bucket(): entry for entry in self.entries}

    def lookup(
        self, batch: int, m: int, n: int, k: int
    ) -> Optional[KernelEntry]:
        """The entry answering one shape's bucket, or None on a miss."""
        key = (bucket_of(batch), bucket_of(m), bucket_of(n), bucket_of(k))
        return self.index().get(key)

    def describe(self) -> str:
        return (
            f"kernel table {self.gpu}/{self.dtype}: {len(self.entries)} "
            f"buckets, model {self.model_version}, "
            f"checksum {self.checksum()}"
        )


def _entry_diff_rank(old: KernelEntry, new: KernelEntry) -> float:
    """How explanatory a pick change is: relative predicted-latency move."""
    if old.latency_s <= 0:
        return float("inf")
    return abs(new.latency_s - old.latency_s) / old.latency_s


def compare_tables(stored: KernelTable, fresh: KernelTable) -> List[str]:
    """Explanatory ranked diff between two tables (empty on exact match).

    Ordered like :func:`repro.harness.golden.compare_snapshot`: the
    model-version line first (it explains every numeric change below),
    then identity/shape mismatches, then per-bucket pick changes ranked
    by predicted-latency impact, then pure numeric drift, and the
    checksum line last as the summary.
    """
    diffs: List[str] = []
    if stored.model_version != fresh.model_version:
        diffs.append(
            "model_version changed: "
            f"{stored.model_version!r} -> {fresh.model_version!r} "
            "(every entry below is expected to move; if intentional, "
            "refresh with 'repro tune-kernels --update-golden')"
        )
    if (stored.gpu, stored.dtype) != (fresh.gpu, fresh.dtype):
        diffs.append(
            f"target changed: {stored.gpu}/{stored.dtype} -> "
            f"{fresh.gpu}/{fresh.dtype}"
        )
        return diffs  # different tables entirely; stop here
    if stored.schema != fresh.schema:
        diffs.append(f"schema: {stored.schema} -> {fresh.schema}")
    if dict(stored.provenance) != dict(fresh.provenance):
        diffs.append(
            f"provenance changed: {dict(stored.provenance)} -> "
            f"{dict(fresh.provenance)} (different tuning grid; entries "
            "are not comparable bucket-by-bucket)"
        )
    old_index = stored.index()
    new_index = fresh.index()
    if len(old_index) != len(new_index):
        diffs.append(
            f"bucket count: {len(old_index)} -> {len(new_index)}"
        )
    pick_changes: List[Tuple[float, str]] = []
    drift: List[str] = []
    for bucket, old in sorted(old_index.items()):
        new = new_index.get(bucket)
        if new is None:
            drift.append(f"bucket {bucket}: entry removed (was {old.tile})")
            continue
        if old.tile != new.tile:
            rel = _entry_diff_rank(old, new)
            pick_changes.append(
                (
                    rel,
                    f"shape ({old.batch}, {old.m}, {old.n}, {old.k}): "
                    f"pick {old.tile} -> {new.tile} "
                    f"(predicted latency {old.latency_s:.3e}s -> "
                    f"{new.latency_s:.3e}s, {100 * rel:.1f}% move)",
                )
            )
        elif old != new:
            drift.append(
                f"shape ({old.batch}, {old.m}, {old.n}, {old.k}): "
                f"same pick {old.tile}, numbers drifted "
                f"(latency {old.latency_s:.6e}s -> {new.latency_s:.6e}s)"
            )
    for bucket, new in sorted(new_index.items()):
        if bucket not in old_index:
            drift.append(f"bucket {bucket}: new entry ({new.tile})")
    diffs.extend(text for _, text in sorted(pick_changes, reverse=True))
    diffs.extend(drift)
    if not diffs and stored.checksum() != fresh.checksum():
        # Only reachable if a field outside the compared set moved.
        diffs.append(
            f"checksum: {stored.checksum()} -> {fresh.checksum()}"
        )
    elif diffs:
        diffs.append(
            f"checksum: {stored.checksum()} -> {fresh.checksum()}"
        )
    return diffs
