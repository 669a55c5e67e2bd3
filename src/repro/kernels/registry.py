"""Loading tuned tables and answering ``kernel_params`` queries.

:class:`KernelParamResolver` is what the serve tier holds: a set of
loaded :class:`~repro.kernels.table.KernelTable` artifacts keyed by
(GPU, dtype), a bounded memo of answered shapes, and the deterministic
analytical fallback (:func:`~repro.kernels.search.best_for_shapes`) for
anything the tables miss, priced in one tile sweep per call however many
shapes miss.  Resolution is a pure function of (query,
loaded tables, engine model version), which is what makes answers
bit-identical across the in-process server, supervisor pipe workers,
and the TCP cluster: every process resolves from the same environment
(``REPRO_KERNEL_TABLES`` is inherited by cluster workers exactly like
the engine cache dir) and the same model.

Stale tables are *refused*, not trusted: a loaded artifact whose
``model_version`` does not match the running engine would serve
predicted latencies the engine no longer agrees with, so it is treated
as absent (fallback answers instead) and counted in
:meth:`KernelParamResolver.describe`.
"""

from __future__ import annotations

import logging
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.cache import model_version
from repro.engine.core import ShapeEngine
from repro.errors import KernelTableError
from repro.gpu.specs import get_gpu
from repro.kernels.search import best_for_shapes
from repro.kernels.table import KernelEntry, KernelTable, bucket_of
from repro.types import DType

__all__ = ["TABLES_ENV", "KernelParamResolver", "load_tables"]

#: Directory of ``<gpu>-<dtype>.json`` table artifacts for serving.
#: Unset (the default) means every query takes the analytical fallback.
TABLES_ENV = "REPRO_KERNEL_TABLES"

#: Bounded memo of resolved shapes per resolver.
_MEMO_ENTRIES = 4096

log = logging.getLogger("repro.kernels")


def load_tables(directory: "str | os.PathLike") -> List[KernelTable]:
    """Load and verify every ``*.json`` table artifact in a directory.

    A malformed or checksum-failing file raises
    :class:`~repro.errors.KernelTableError` naming the path — a corrupt
    artifact should fail loudly at startup, not silently degrade to
    fallback answers.
    """
    root = Path(directory)
    if not root.is_dir():
        raise KernelTableError(f"kernel table directory not found: {root}")
    tables = []
    for path in sorted(root.glob("*.json")):
        try:
            tables.append(KernelTable.from_json(path.read_text()))
        except OSError as exc:
            raise KernelTableError(
                f"cannot read kernel table {path}: {exc}"
            ) from exc
        except KernelTableError as exc:
            raise KernelTableError(f"{path}: {exc}") from exc
    return tables


class KernelParamResolver:
    """Answer "best (tile, wave) for this GEMM" from tables + fallback.

    Thread-safe; one instance is shared by every shard of an
    :class:`~repro.serve.server.AdvisoryServer`.
    """

    def __init__(
        self,
        tables: "List[KernelTable] | None" = None,
        engine: Optional[ShapeEngine] = None,
    ) -> None:
        self._engine = engine
        self._lock = threading.Lock()
        self._memo: "OrderedDict[Tuple[Any, ...], Dict[str, Any]]" = (
            OrderedDict()
        )
        self._tables: Dict[Tuple[str, str], KernelTable] = {}
        self._indexes: Dict[
            Tuple[str, str], Dict[Tuple[int, int, int, int], KernelEntry]
        ] = {}
        self._stale: List[str] = []
        current = model_version()
        for table in tables or []:
            if table.model_version != current:
                self._stale.append(
                    f"{table.gpu}/{table.dtype} (table model "
                    f"{table.model_version!r} != engine {current!r})"
                )
                log.warning(
                    "ignoring stale kernel table %s/%s: %s != %s",
                    table.gpu, table.dtype, table.model_version, current,
                )
                continue
            key = (table.gpu, table.dtype)
            self._tables[key] = table
            self._indexes[key] = table.index()

    @classmethod
    def from_env(
        cls, engine: Optional[ShapeEngine] = None
    ) -> "KernelParamResolver":
        """Build from ``REPRO_KERNEL_TABLES`` (empty resolver if unset)."""
        directory = os.environ.get(TABLES_ENV)
        tables = load_tables(directory) if directory else None
        return cls(tables=tables, engine=engine)

    # -- resolution ----------------------------------------------------------

    @staticmethod
    def _entry_payload(
        entry: KernelEntry, checksum: Optional[str]
    ) -> Dict[str, Any]:
        """``checksum`` is the answering table's, or None on a miss."""
        payload = entry.to_dict()
        payload["table_hit"] = checksum is not None
        payload["table_checksum"] = checksum
        payload["model_version"] = model_version()
        return payload

    def resolve(
        self,
        batch: int,
        m: int,
        n: int,
        k: int,
        gpu: str,
        dtype: str = "fp16",
    ) -> Dict[str, Any]:
        """The ``kernel_params`` answer payload for one GEMM.

        Table hit: the bucket entry (representative-shape prediction).
        Miss: the analytical argmin at the exact shape, flagged with
        ``table_hit: false``.  Either way the payload names the tile
        geometry, wave/block counts, predicted latency and throughput,
        the runner-up tile with its latency margin, and the provenance
        needed to audit the answer (table checksum, model version).
        One-shape view of :meth:`resolve_many`.
        """
        return self.resolve_many([(batch, m, n, k)], gpu, dtype)[0]

    def resolve_many(
        self,
        shapes: Iterable[Sequence[int]],
        gpu: str,
        dtype: str = "fp16",
    ) -> List[Dict[str, Any]]:
        """The ``kernel_params`` payloads for ``(batch, m, n, k)`` rows.

        Memo and table hits are answered per shape; every remaining
        distinct shape is priced together in *one* tile sweep
        (:func:`~repro.kernels.search.best_for_shapes`).  The sweep
        prices each row independently, so every payload equals what
        :meth:`resolve` returns for that shape alone.  Each payload is
        a fresh dict, also for duplicate shapes.
        """
        spec = get_gpu(gpu)
        parsed = DType.parse(dtype)
        key = (spec.name, parsed.name)
        rows = [(int(b), int(m), int(n), int(k)) for b, m, n, k in shapes]
        out: List[Optional[Dict[str, Any]]] = [None] * len(rows)
        with self._lock:
            for i, row in enumerate(rows):
                hit = self._memo.get(row + key)
                if hit is not None:
                    self._memo.move_to_end(row + key)
                    out[i] = dict(hit)

        # Distinct shapes the memo did not answer, in first-seen order.
        pending = dict.fromkeys(
            row for row, hit in zip(rows, out) if hit is None
        )
        index = self._indexes.get(key)
        answered: Dict[Tuple[int, ...], Dict[str, Any]] = {}
        if index is not None:
            checksum = self._tables[key].checksum()
            for row in pending:
                entry = index.get(tuple(map(bucket_of, row)))
                if entry is not None:
                    answered[row] = self._entry_payload(entry, checksum)
        misses = [row for row in pending if row not in answered]
        if misses:
            entries = best_for_shapes(
                misses, spec.name, parsed.name, engine=self._engine
            )
            for row, entry in zip(misses, entries):
                answered[row] = self._entry_payload(entry, None)
        if answered:
            with self._lock:
                for row, payload in answered.items():
                    self._memo[row + key] = dict(payload)
                while len(self._memo) > _MEMO_ENTRIES:
                    self._memo.popitem(last=False)
        return [
            dict(answered[row]) if payload is None else payload
            for row, payload in zip(rows, out)
        ]

    # -- introspection -------------------------------------------------------

    @property
    def tables(self) -> Dict[Tuple[str, str], KernelTable]:
        return dict(self._tables)

    def describe(self) -> str:
        loaded = ", ".join(
            f"{gpu}/{dtype}" for gpu, dtype in sorted(self._tables)
        )
        parts = [
            f"{len(self._tables)} kernel table(s) loaded"
            + (f" ({loaded})" if loaded else "")
        ]
        if self._stale:
            parts.append(f"{len(self._stale)} stale ignored: "
                         + "; ".join(self._stale))
        return "; ".join(parts)
