"""Checkpointed sweeps: an append-only, crash-safe JSONL journal.

Long sweeps (``run_all`` over the figure registry, autotune candidate
scans, calibration fits) record each completed unit of work to a
:class:`SweepJournal` so a killed run can ``--resume`` and re-execute
only what is unfinished.

The format is one JSON object per line, because append-only JSONL has
exactly the durability property a checkpoint needs: a crash mid-write
can only tear the *final* line, which the reader detects (bad JSON or
missing newline) and drops — every earlier record is intact.  Each
append is flushed and ``fsync``'d before :meth:`record` returns, so a
completed unit is durable the moment its outcome is reported.

The first line is a header carrying a caller-chosen ``sweep_id`` (e.g.
the sorted experiment ids).  Resuming against a journal whose header
does not match raises :class:`~repro.errors.CheckpointError` instead of
silently skipping the wrong work.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.errors import CheckpointError
from repro.observability.metrics import metrics as _metrics
from repro.observability.tracing import event as _event

_HEADER_KIND = "header"
_UNIT_KIND = "unit"
_FORMAT_VERSION = 1


class SweepJournal:
    """Append-only JSONL record of completed sweep units.

    Thread-safe: parallel workers report completions through one
    journal.  ``sweep_id`` identifies *what* is being swept; a journal
    created for a different sweep_id refuses to resume.
    """

    def __init__(
        self,
        path: "str | Path",
        sweep_id: str = "",
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self.sweep_id = sweep_id
        self._lock = threading.Lock()
        self._entries: List[Dict[str, Any]] = []
        self.dropped_lines = 0  # torn/corrupt lines skipped on load
        if resume and self.path.exists():
            self._load()
        else:
            if self.path.parent and not self.path.parent.exists():
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._write_line(
                {
                    "kind": _HEADER_KIND,
                    "version": _FORMAT_VERSION,
                    "sweep": sweep_id,
                },
                mode="w",
            )

    # -- durability ----------------------------------------------------------

    def _write_line(self, record: Dict[str, Any], mode: str = "a") -> None:
        line = json.dumps(record, sort_keys=True)
        try:
            with open(self.path, mode) as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise CheckpointError(
                f"cannot write journal {self.path}: {exc}"
            ) from exc

    def _load(self) -> None:
        try:
            text = self.path.read_text()
        except OSError as exc:
            raise CheckpointError(
                f"cannot read journal {self.path}: {exc}"
            ) from exc
        records: List[Dict[str, Any]] = []
        lines = text.split("\n")
        # A file not ending in a newline has a torn final line: the
        # split leaves it as the last element instead of "".
        torn_tail = bool(lines) and lines[-1] != ""
        for i, line in enumerate(lines):
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self.dropped_lines += 1
                continue
            if torn_tail and i == len(lines) - 1:
                # Parses but was never newline-terminated: the fsync'd
                # write contract means it may be incomplete — drop it.
                self.dropped_lines += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                self.dropped_lines += 1
        if not records or records[0].get("kind") != _HEADER_KIND:
            raise CheckpointError(
                f"{self.path} is not a sweep journal (missing header)"
            )
        header = records[0]
        if self.sweep_id and header.get("sweep") != self.sweep_id:
            raise CheckpointError(
                f"journal {self.path} was written for sweep "
                f"{header.get('sweep')!r}, not {self.sweep_id!r}; "
                "use a fresh journal path (or drop --resume)"
            )
        loaded = [r for r in records[1:] if r.get("kind") == _UNIT_KIND]
        with self._lock:
            self._entries = loaded

    # -- recording -----------------------------------------------------------

    def record(
        self,
        unit_id: str,
        status: str,
        payload: Optional[Dict[str, Any]] = None,
        attempts: int = 1,
    ) -> None:
        """Durably append one completed unit of work."""
        entry = {
            "kind": _UNIT_KIND,
            "id": unit_id,
            "status": status,
            "attempts": attempts,
            "payload": payload or {},
        }
        with self._lock:
            self._write_line(entry)
            self._entries.append(entry)
        _metrics().counter("journal.appends").inc()
        _event("journal.append", unit=unit_id, status=status)

    # -- querying ------------------------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """All unit records loaded or appended, in journal order."""
        with self._lock:
            return list(self._entries)

    def completed(self) -> Set[str]:
        """Unit ids recorded with status ``"ok"`` (skipped on resume).

        Failed/timed-out units are *not* completed: a resumed sweep
        re-executes them.
        """
        with self._lock:
            return {
                e["id"] for e in self._entries if e.get("status") == "ok"
            }

    def entry_for(self, unit_id: str) -> Optional[Dict[str, Any]]:
        """Latest record for one unit id, or None."""
        with self._lock:
            for entry in reversed(self._entries):
                if entry.get("id") == unit_id:
                    return entry
        return None

    def describe(self) -> str:
        done = len(self.completed())
        parts = [f"{done} completed unit(s) in {self.path}"]
        if self.dropped_lines:
            parts.append(f"{self.dropped_lines} torn line(s) dropped")
        return "; ".join(parts)
