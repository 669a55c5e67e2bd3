"""Two-level memoization for shape evaluation.

The analytic GEMM model is a *pure* function of (shape, GPU spec, dtype,
tile policy, model constants), which makes every evaluation cacheable.
This module provides the two cache levels the engine composes:

- :class:`LRUCache` — a thread-safe in-memory LRU used both for whole
  :class:`~repro.engine.vectorized.BatchResult` objects and (via the
  module-global :func:`scalar_memo`) for individual
  :class:`~repro.gpu.gemm_model.GemmPerf` evaluations, so repeated
  figure regeneration and overlapping autotune grids never recompute.
- :class:`DiskCache` — an optional on-disk ``.soa`` store keyed by a
  SHA-256 digest of ``(shapes, gpu, dtype, model-version)``, surviving
  process restarts.  Entries are a flat mmap-friendly container (JSON
  header + 64-byte-aligned raw array bytes) read back as zero-copy
  :func:`numpy.frombuffer` views over a shared memory map, so every
  process on the machine — serve workers, ``repro run --parallel``
  workers, the bench harness — shares one warm page cache for the
  same store instead of N private deserialized copies.

Keys always embed :func:`model_version`, which folds in the calibration-
mutable alignment constants (``repro.gpu.alignment._EFF_AT_MIN`` /
``_EFF_ODD``): bumping :data:`MODEL_VERSION` or re-fitting the
efficiency floor invalidates every cached entry, so a stale model can
never serve old numbers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import mmap
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.errors import CacheError
from repro.gpu import alignment
from repro.observability.metrics import metrics as _metrics
from repro.observability.tracing import event as _event
from repro.resilience.faults import fault_site

log = logging.getLogger("repro.engine.cache")

#: Version of the analytic model the caches key on.  Bump whenever the
#: latency/throughput math changes in a way that affects results.
MODEL_VERSION = "1"


def model_version() -> str:
    """Full cache-key version string: code version + live constants.

    Includes the alignment-efficiency constants because calibration
    (:mod:`repro.calibration.fit`) mutates them while searching — cached
    entries from one constant setting must not serve another.
    """
    return f"{MODEL_VERSION}:{alignment._EFF_AT_MIN!r}:{alignment._EFF_ODD!r}"


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level.

    ``quarantined`` counts corrupt disk entries renamed aside (each is
    also a miss, so ``lookups`` stays hits + misses).
    """

    hits: int = 0
    misses: int = 0
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits, misses=self.misses, quarantined=self.quarantined
        )

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since an earlier :meth:`snapshot`."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            quarantined=self.quarantined - earlier.quarantined,
        )

    def describe(self) -> str:
        text = (
            f"{self.hits} hits / {self.misses} misses "
            f"({100 * self.hit_rate:.0f}% hit rate)"
        )
        if self.quarantined:
            text += f", {self.quarantined} quarantined"
        return text


class LRUCache:
    """Thread-safe least-recently-used mapping with bounded size."""

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Any) -> Optional[Any]:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.stats.misses += 1
                return None
            self._data.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


#: Per-process sequence for unique tmp-file names (combined with the
#: pid, so concurrent writers of the same digest never share a tmp).
_TMP_SEQ = itertools.count()

#: Suffix quarantined entries are renamed to.  Deliberately not
#: ``.soa``: ``clear()``/``__len__`` glob only live entries, and a
#: quarantined file can never be re-read as a cache hit.
QUARANTINE_SUFFIX = ".quarantined"

#: Live disk-cache entries end in this suffix.
ENTRY_SUFFIX = ".soa"

#: Magic bytes opening every ``.soa`` entry (version baked in).
SOA_MAGIC = b"REPRO-SOA1\x00"

#: Array payloads start on this alignment so mmap'ed views are
#: cacheline/SIMD friendly and pages fault in cleanly.
_SOA_ALIGN = 64


def _align_up(n: int, align: int = _SOA_ALIGN) -> int:
    return (n + align - 1) // align * align


class DiskCache:
    """On-disk structure-of-arrays store for batch-evaluation results.

    One flat ``.soa`` file per entry, named by the key digest::

        REPRO-SOA1\\0 | header-len (8B LE) | JSON header | pad | raw arrays

    The JSON header carries the full cache key (so digest collisions
    are detected rather than silently served), the entry metadata, a
    descriptor per array (name, dtype, shape, offset, nbytes) and a
    SHA-256 of the data section.  Array bytes are stored raw at
    64-byte-aligned offsets and read back as **zero-copy
    ``np.frombuffer`` views over a shared read-only memory map** —
    every process opening the same store shares one set of OS page
    cache pages, so N serve workers warm the cache once, not N times.
    The returned views are read-only; callers must copy before
    mutating (engine results are immutable, so none do).

    Robustness contract:

    - **Writes are atomic and crash-safe**: each writer serializes to a
      unique per-(pid, sequence) tmp file, fsyncs it, then
      ``os.replace``'s it into place — a crash mid-write can never
      leave a torn live entry, and two processes writing the same
      digest race only on which complete file wins.  Readers holding
      an mmap of the replaced file keep their (complete, old) mapping.
    - **Corrupt entries are quarantined**, not retried forever: a file
      with a bad magic, torn header, or data-section checksum mismatch
      is renamed aside (``*.quarantined``), counted in
      :attr:`CacheStats.quarantined`, and the lookup proceeds as a
      miss, so one bad file costs one recompute instead of poisoning
      every warm start.
    """

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}{ENTRY_SUFFIX}"

    def _quarantine(self, path: Path) -> None:
        """Rename a corrupt entry aside so it is never re-read."""
        target = path.with_name(
            f"{path.name}{QUARANTINE_SUFFIX}.{os.getpid()}-{next(_TMP_SEQ)}"
        )
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - racing quarantine/delete
            return
        self.stats.quarantined += 1
        _metrics().counter("engine.disk.quarantined").inc()
        _event("cache.quarantine", entry=path.name)
        log.warning("quarantined corrupt cache entry %s -> %s", path, target.name)

    def _decode(self, mm: mmap.mmap) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Parse one mapped entry into (header, zero-copy arrays).

        Raises ``ValueError``/``OSError`` on any structural problem —
        the caller quarantines.  Returned arrays are read-only views
        into ``mm``; numpy keeps the map alive via each view's base.
        """
        import numpy as np

        view = memoryview(mm)
        if len(view) < len(SOA_MAGIC) + 8:
            raise ValueError("entry shorter than magic + header length")
        if bytes(view[: len(SOA_MAGIC)]) != SOA_MAGIC:
            raise ValueError("bad magic")
        header_len = int.from_bytes(
            view[len(SOA_MAGIC) : len(SOA_MAGIC) + 8], "little"
        )
        header_start = len(SOA_MAGIC) + 8
        if header_len <= 0 or header_start + header_len > len(view):
            raise ValueError("torn header")
        header = json.loads(bytes(view[header_start : header_start + header_len]))
        if not isinstance(header, dict):
            raise ValueError(f"header is {type(header).__name__}, not dict")
        data_start = _align_up(header_start + header_len)
        data_len = int(header["data_len"])
        if data_start + data_len > len(view):
            raise ValueError("truncated data section")
        digest = hashlib.sha256(view[data_start : data_start + data_len])
        if digest.hexdigest() != header["sha256"]:
            raise ValueError("data checksum mismatch")
        arrays: Dict[str, Any] = {}
        for desc in header["arrays"]:
            dtype = np.dtype(desc["dtype"])
            shape = tuple(int(d) for d in desc["shape"])
            count = 1
            for d in shape:
                count *= d
            offset = data_start + int(desc["offset"])
            if int(desc["nbytes"]) != count * dtype.itemsize:
                raise ValueError(f"array {desc['name']!r} descriptor mismatch")
            if offset + count * dtype.itemsize > data_start + data_len:
                raise ValueError(f"array {desc['name']!r} out of bounds")
            arr = np.frombuffer(mm, dtype=dtype, count=count, offset=offset)
            arrays[desc["name"]] = arr.reshape(shape)
        return header, arrays

    def get(self, digest: str, key_repr: str) -> Optional[Dict[str, Any]]:
        """Map arrays + meta for a digest, or None on miss/mismatch.

        A corrupt file is quarantined (renamed aside) and reported as a
        miss; a key mismatch (digest collision or stale format) is a
        plain miss.  Hits return zero-copy read-only views over a
        shared memory map, not materialized copies.
        """
        fault_site("cache.disk_get", digest=digest, path=self._path(digest))
        path = self._path(digest)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            with open(path, "rb") as fh:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            header, payload = self._decode(mm)
        except (OSError, ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.stats.misses += 1
            return None
        meta = header.get("meta")
        if not isinstance(meta, dict) or header.get("key") != key_repr:
            # Digest collision or stale format: treat as a miss.  The
            # map is released when the discarded views are collected.
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        payload["__meta__"] = dict(meta, key=header["key"])
        return payload

    def put(self, digest: str, key_repr: str, arrays: Dict[str, Any], meta: Dict[str, Any]) -> None:
        """Atomically persist one entry (unique tmp + fsync + replace).

        Raises :class:`~repro.errors.CacheError` when the entry cannot
        be written (disk full, permissions); callers degrade to
        memory-only caching.
        """
        import numpy as np

        descs = []
        chunks = []
        offset = 0
        for name, value in arrays.items():
            arr = np.ascontiguousarray(np.asarray(value))
            offset = _align_up(offset)
            descs.append(
                {
                    "name": str(name),
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                    "offset": offset,
                    "nbytes": arr.nbytes,
                }
            )
            chunks.append((offset, arr.tobytes()))
            offset += arr.nbytes
        data = bytearray(offset)
        for off, raw in chunks:
            data[off : off + len(raw)] = raw
        header = {
            "key": key_repr,
            "meta": {k: v for k, v in meta.items() if k != "key"},
            "arrays": descs,
            "data_len": len(data),
            "sha256": hashlib.sha256(bytes(data)).hexdigest(),
        }
        header_bytes = json.dumps(header, sort_keys=True).encode()
        header_start = len(SOA_MAGIC) + 8
        data_start = _align_up(header_start + len(header_bytes))
        path = self._path(digest)
        tmp = path.with_name(f"{digest}.{os.getpid()}-{next(_TMP_SEQ)}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(SOA_MAGIC)
                fh.write(len(header_bytes).to_bytes(8, "little"))
                fh.write(header_bytes)
                fh.write(b"\x00" * (data_start - header_start - len(header_bytes)))
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise CacheError(f"cannot write cache entry {path}: {exc}") from exc
        # Chaos hook: a 'corrupt' fault here garbles the just-written
        # entry, exercising the quarantine path on the next get.
        fault_site("cache.disk_put", digest=digest, path=path)

    def clear(self) -> None:
        for path in self.directory.glob(f"*{ENTRY_SUFFIX}"):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing deletes
                pass

    def quarantined_files(self) -> "list[Path]":
        """Quarantined entries currently on disk (diagnostics/tests)."""
        return sorted(self.directory.glob(f"*{QUARANTINE_SUFFIX}.*"))

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob(f"*{ENTRY_SUFFIX}"))


# -- key construction -----------------------------------------------------------


def spec_key(spec: Any) -> Tuple[Any, ...]:
    """Hashable fingerprint of a GPUSpec (its dict fields flattened).

    ``GPUSpec`` is frozen but holds per-dtype throughput dicts, so it is
    not hashable itself; each spec flattens every field once, at
    construction, and this returns that tuple.
    """
    return spec._fingerprint


def _tile_key(t: Any) -> Tuple[Any, ...]:
    return (t.m, t.n, t.k_stage, t.threads, t.peak_fraction)


def tile_policy_key(tile: Any, candidates: Any) -> Tuple[Any, ...]:
    """Hashable fingerprint of a (fixed-tile, candidate-pool) policy."""
    if tile is not None:
        return ("tile", _tile_key(tile))
    if candidates is not None:
        return ("candidates", tuple(_tile_key(t) for t in candidates))
    return ("auto",)


def sweep_policy_key(pool: Any) -> Tuple[Any, ...]:
    """Fingerprint of a tile sweep: every tile of ``pool`` pinned in turn."""
    return ("sweep", tuple(_tile_key(t) for t in pool))


def digest_key(key: Any) -> str:
    """Stable SHA-256 digest of an arbitrary (repr-able) cache key."""
    return hashlib.sha256(repr(key).encode()).hexdigest()


def shapes_digest(shapes: Any) -> str:
    """SHA-256 digest of a canonical int64 (N, 4) shape array."""
    import numpy as np

    arr = np.ascontiguousarray(np.asarray(shapes, dtype=np.int64))
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


# -- the global scalar memo ------------------------------------------------------

#: Shared LRU for scalar ``GemmModel.evaluate`` calls.  Sized to hold the
#: full figure registry's distinct shapes many times over; one entry is a
#: small frozen dataclass, so memory cost is a few hundred bytes each.
_SCALAR_MEMO = LRUCache(maxsize=262144)
_SCALAR_ENABLED = True


def scalar_memo() -> LRUCache:
    """The process-wide scalar evaluation cache."""
    return _SCALAR_MEMO


def scalar_memo_enabled() -> bool:
    return _SCALAR_ENABLED


def configure(enabled: Optional[bool] = None, maxsize: Optional[int] = None) -> None:
    """Adjust the global scalar memo (used by tests and benchmarks)."""
    global _SCALAR_ENABLED, _SCALAR_MEMO
    if enabled is not None:
        _SCALAR_ENABLED = bool(enabled)
    if maxsize is not None and maxsize != _SCALAR_MEMO.maxsize:
        fresh = LRUCache(maxsize=maxsize)
        fresh.stats = _SCALAR_MEMO.stats
        _SCALAR_MEMO = fresh


def clear_scalar_memo() -> None:
    _SCALAR_MEMO.clear()


def scalar_memo_stats() -> CacheStats:
    return _SCALAR_MEMO.stats
