"""Golden-regression snapshots for headline experiments.

A snapshot is a compact, checked-in JSON record of one experiment's
output: the column layout, the ranked winners (top rows by the table's
headline metric), and a checksum per numeric column.  The test wall
(``tests/golden/``) re-runs each experiment and compares against its
snapshot, so *any* silent numeric drift in the model — a constant
nudged, an efficiency curve reshaped, a cache serving stale entries —
fails loudly with a diff naming what moved, while the snapshot stays a
few hundred bytes instead of a full results dump.

Snapshots embed :func:`repro.engine.cache.model_version`; a version
mismatch is reported first, since it legitimately changes every number
(the fix is ``repro figure <id> --update-golden``, same as for an
intentional model change).

Values are formatted with ``%.12g`` before hashing/storing so
comparisons are exact at well above float32 precision but immune to
repr noise.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List

from repro.engine.cache import model_version
from repro.errors import ExperimentError
from repro.harness.results import ResultTable
from repro.harness.runner import ExperimentReport, run_experiment

#: The headline experiments the golden wall pins (fig1/fig2 throughput
#: comparisons, fig5 tiling, fig7 alignment, fig12 attention sizing,
#: the Sec VII-B 2.7B retune case study, and the decode experiments:
#: fig13's Pythia trend plus the GQA, batching, window and quantized
#: decode extensions).
GOLDEN_EXPERIMENTS = (
    "fig1",
    "fig2",
    "fig5",
    "fig7",
    "fig12",
    "case_gpt3",
    "ext_trainstep",
    "ext_capacity",
    "fig13",
    "ext_gqa",
    "ext_batching",
    "ext_window",
    "ext_quant",
)

#: Where snapshots live relative to the repo root.
DEFAULT_GOLDEN_DIR = Path("tests") / "golden"

#: How many ranked winners a snapshot stores verbatim.
TOP_ROWS = 3

_FORMAT_VERSION = 1


def fmt_value(value: Any) -> str:
    """Canonical string form of one cell (floats via ``%.12g``)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _numeric_columns(table: "ResultTable") -> List[str]:
    out = []
    for name in table.columns:
        values = table.column(name)
        if values and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in values
        ):
            out.append(name)
    return out


def rank_column(table: "ResultTable") -> "tuple[str, bool] | None":
    """(column, minimize) the table's winners rank by, or None.

    Prefers a throughput-style column (maximize), then a latency-style
    column (minimize), then the first numeric column.
    """
    numeric = _numeric_columns(table)
    if not numeric:
        return None
    for token in ("tflops", "throughput", "tokens_per_s", "speedup"):
        for name in numeric:
            if token in name.lower():
                return name, False
    for token in ("latency", "time", "waste", "ms", "_s"):
        for name in numeric:
            if token in name.lower():
                return name, True
    return numeric[0], False


def _column_checksum(values: List[Any]) -> str:
    payload = "\n".join(fmt_value(v) for v in values)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _top_rows(table: "ResultTable", by: str, minimize: bool) -> List[Dict[str, str]]:
    ranked = sorted(
        table.rows_as_dicts(),
        key=lambda r: r[by],
        reverse=not minimize,
    )
    return [
        {col: fmt_value(v) for col, v in row.items()}
        for row in ranked[:TOP_ROWS]
    ]


def snapshot_experiment(report: "ExperimentReport") -> Dict[str, Any]:
    """Build the golden snapshot dict for one experiment report."""
    table = report.table
    ranking = rank_column(table)
    snap: Dict[str, Any] = {
        "format": _FORMAT_VERSION,
        "experiment": report.id,
        "title": report.title,
        "paper_ref": report.paper_ref,
        "model_version": model_version(),
        "check_passed": report.passed,
        "columns": list(table.columns),
        "row_count": len(table.rows),
        "checksums": {
            name: _column_checksum(table.column(name))
            for name in _numeric_columns(table)
        },
    }
    if ranking is not None:
        by, minimize = ranking
        snap["ranked_by"] = by
        snap["minimize"] = minimize
        snap["winners"] = _top_rows(table, by, minimize)
    return snap


def snapshot_path(exp_id: str, golden_dir: "str | Path" = DEFAULT_GOLDEN_DIR) -> Path:
    return Path(golden_dir) / f"{exp_id}.json"


def write_snapshot(
    report: "ExperimentReport", golden_dir: "str | Path" = DEFAULT_GOLDEN_DIR
) -> Path:
    """Write (or refresh) one experiment's golden snapshot."""
    path = snapshot_path(report.id, golden_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(snapshot_experiment(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_snapshot(
    exp_id: str, golden_dir: "str | Path" = DEFAULT_GOLDEN_DIR
) -> Dict[str, Any]:
    path = snapshot_path(exp_id, golden_dir)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ExperimentError(
            f"no golden snapshot for {exp_id!r} at {path} "
            f"(generate with 'repro figure {exp_id} --update-golden'): {exc}"
        ) from exc
    except ValueError as exc:
        raise ExperimentError(f"corrupt golden snapshot {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ExperimentError(f"corrupt golden snapshot {path}: not an object")
    return data


def compare_snapshot(
    stored: Dict[str, Any], report: "ExperimentReport"
) -> List[str]:
    """Diff a fresh report against a stored snapshot.

    Returns human-readable difference strings, empty on an exact match.
    Ordered so the most explanatory difference comes first (a model
    version bump explains every downstream checksum change).
    """
    fresh = snapshot_experiment(report)
    diffs: List[str] = []
    if stored.get("model_version") != fresh["model_version"]:
        diffs.append(
            "model_version changed: "
            f"{stored.get('model_version')!r} -> {fresh['model_version']!r} "
            "(every checksum below is expected to move; if intentional, "
            f"refresh with 'repro figure {report.id} --update-golden')"
        )
    if stored.get("experiment") != fresh["experiment"]:
        diffs.append(
            f"experiment id: {stored.get('experiment')!r} != {fresh['experiment']!r}"
        )
    if stored.get("columns") != fresh["columns"]:
        diffs.append(
            f"columns changed: {stored.get('columns')} -> {fresh['columns']}"
        )
        return diffs  # every further comparison would be noise
    if stored.get("row_count") != fresh["row_count"]:
        diffs.append(
            f"row count: {stored.get('row_count')} -> {fresh['row_count']}"
        )
    if bool(stored.get("check_passed")) != fresh["check_passed"]:
        diffs.append(
            f"qualitative check flipped: passed={stored.get('check_passed')} "
            f"-> passed={fresh['check_passed']}"
        )
    if stored.get("ranked_by") != fresh.get("ranked_by"):
        diffs.append(
            f"rank column: {stored.get('ranked_by')!r} -> {fresh.get('ranked_by')!r}"
        )
    elif stored.get("winners") != fresh.get("winners"):
        old = stored.get("winners") or []
        new = fresh.get("winners") or []
        for i in range(max(len(old), len(new))):
            o = old[i] if i < len(old) else None
            n = new[i] if i < len(new) else None
            if o == n:
                continue
            if o is None or n is None:
                diffs.append(f"winner #{i + 1}: {o} -> {n}")
                continue
            changed = [
                f"{col}: {o.get(col)} -> {n.get(col)}"
                for col in fresh["columns"]
                if o.get(col) != n.get(col)
            ]
            diffs.append(
                f"winner #{i + 1} (ranked by {fresh.get('ranked_by')}) "
                f"changed: {'; '.join(changed)}"
            )
    old_sums = stored.get("checksums", {})
    for name, checksum in fresh["checksums"].items():
        if name not in old_sums:
            diffs.append(f"column {name!r}: no stored checksum (new column?)")
        elif old_sums[name] != checksum:
            diffs.append(
                f"column {name!r} series changed "
                f"(checksum {old_sums[name]} -> {checksum})"
            )
    for name in old_sums:
        if name not in fresh["checksums"]:
            diffs.append(f"column {name!r}: stored checksum has no counterpart")
    return diffs


def check_experiment(
    exp_id: str, golden_dir: "str | Path" = DEFAULT_GOLDEN_DIR
) -> List[str]:
    """Run one experiment and diff it against its snapshot."""
    stored = load_snapshot(exp_id, golden_dir)
    return compare_snapshot(stored, run_experiment(exp_id))
