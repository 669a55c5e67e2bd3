"""Shared diagnostics framework for both lint prongs.

The co-design shape linter (:mod:`repro.analysis.shape_rules`) and the
AST self-lint pass (:mod:`repro.analysis.selflint`) emit the same
currency: a :class:`LintDiagnostic` carrying a stable rule id, a
:class:`Severity` (ordered, so lint output sorts and filters by it),
a message, a :class:`Location` (source file/line for AST findings,
config path for shape findings), and an optional quantified
:class:`FixIt`.

A :class:`LintReport` aggregates diagnostics for one target and owns
the exit-code contract of ``repro lint``:

====  ==========================================================
code  meaning
====  ==========================================================
0     clean — nothing above ``INFO``
1     ``WARNING`` findings present (throughput left on the table)
2     ``ERROR`` findings present (infeasible or correctness risk)
====  ==========================================================
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "FixIt",
    "LintDiagnostic",
    "LintReport",
    "Location",
    "Severity",
]


class Severity(enum.IntEnum):
    """Ordered severity of a diagnostic (higher is worse)."""

    OK = 0
    INFO = 1
    WARNING = 2
    ERROR = 3


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points: a source position or a config path.

    Exactly one of the two addressing modes is normally populated:
    ``file``/``line``/``column`` for AST findings, ``config_path``
    (e.g. ``"gpt3-2.7b.vocab_size"``) for shape findings.
    """

    file: Optional[str] = None
    line: Optional[int] = None
    column: Optional[int] = None
    config_path: Optional[str] = None

    def describe(self) -> str:
        if self.file is not None:
            pos = self.file
            if self.line is not None:
                pos += f":{self.line}"
                if self.column is not None:
                    pos += f":{self.column}"
            return pos
        return self.config_path or "<unknown>"

    def to_dict(self) -> Dict[str, Any]:
        return {
            k: v
            for k, v in (
                ("file", self.file),
                ("line", self.line),
                ("column", self.column),
                ("config_path", self.config_path),
            )
            if v is not None
        }


@dataclass(frozen=True)
class FixIt:
    """A concrete, quantified remediation for one diagnostic.

    ``latency_before_s``/``latency_after_s`` are engine-modeled
    latencies (seconds) of the affected GEMM set before and after
    applying the suggestion, so the estimated throughput recovered is a
    checkable number rather than folklore.  They are ``None`` for
    purely structural fix-its (e.g. "choose t dividing h").
    """

    field: str
    current: Any
    suggested: Any
    latency_before_s: Optional[float] = None
    latency_after_s: Optional[float] = None
    note: str = ""

    @property
    def speedup(self) -> Optional[float]:
        """Modeled before/after latency ratio (> 1 means the fix helps)."""
        if self.latency_before_s is None or not self.latency_after_s:
            return None
        return self.latency_before_s / self.latency_after_s

    def describe(self) -> str:
        text = f"set {self.field} = {self.suggested} (from {self.current})"
        if self.speedup is not None:
            text += (
                f"; modeled {self.latency_before_s * 1e6:.0f} -> "
                f"{self.latency_after_s * 1e6:.0f} us "
                f"({self.speedup:.2f}x on the affected GEMMs)"
            )
        if self.note:
            text += f" [{self.note}]"
        return text

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "field": self.field,
            "current": self.current,
            "suggested": self.suggested,
        }
        if self.latency_before_s is not None:
            out["latency_before_s"] = self.latency_before_s
        if self.latency_after_s is not None:
            out["latency_after_s"] = self.latency_after_s
        if self.speedup is not None:
            out["speedup"] = self.speedup
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class LintDiagnostic:
    """One finding from one lint rule.

    ``rule_id`` is stable and namespaced: ``shape/...`` for config
    findings, ``self/...`` for AST findings.  ``paper_ref`` cites the
    paper section grounding the rule (empty for self-lint rules).
    """

    rule_id: str
    severity: Severity
    message: str
    location: Location = field(default_factory=Location)
    fixit: Optional[FixIt] = None
    paper_ref: str = ""

    def __str__(self) -> str:
        head = f"[{self.severity.name}] {self.rule_id}"
        if self.paper_ref:
            head += f" ({self.paper_ref})"
        text = f"{head} at {self.location.describe()}: {self.message}"
        if self.fixit is not None:
            text += f"\n    fix: {self.fixit.describe()}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "rule_id": self.rule_id,
            "severity": self.severity.name,
            "message": self.message,
            "location": self.location.to_dict(),
        }
        if self.paper_ref:
            out["paper_ref"] = self.paper_ref
        if self.fixit is not None:
            out["fixit"] = self.fixit.to_dict()
        return out


@dataclass
class LintReport:
    """All diagnostics for one lint target plus the exit-code contract."""

    target: str
    diagnostics: List[LintDiagnostic] = field(default_factory=list)

    def extend(self, diags: Sequence[LintDiagnostic]) -> None:
        self.diagnostics.extend(diags)

    @property
    def worst(self) -> Severity:
        return max((d.severity for d in self.diagnostics), default=Severity.OK)

    @property
    def exit_code(self) -> int:
        """0 clean/INFO, 1 WARNING present, 2 ERROR present."""
        worst = self.worst
        if worst >= Severity.ERROR:
            return 2
        if worst >= Severity.WARNING:
            return 1
        return 0

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    def findings(self, min_severity: Severity = Severity.INFO) -> List[LintDiagnostic]:
        """Diagnostics at or above a severity, worst first.

        The order is fully deterministic regardless of rule-family
        registration or dict iteration order: severity (worst first),
        then path, line, column, rule id, and finally message text as
        the tiebreak for co-located findings.
        """
        kept = [d for d in self.diagnostics if d.severity >= min_severity]

        def key(d: LintDiagnostic) -> Any:
            loc = d.location
            return (
                -d.severity,
                loc.file or loc.config_path or "",
                loc.line or 0,
                loc.column or 0,
                d.rule_id,
                d.message,
            )

        return sorted(kept, key=key)

    def render_text(self, min_severity: Severity = Severity.INFO) -> str:
        lines = [f"lint: {self.target}"]
        shown = self.findings(min_severity)
        for diag in shown:
            lines.append(str(diag))
        counts = ", ".join(
            f"{self.count(sev)} {sev.name.lower()}"
            for sev in (Severity.ERROR, Severity.WARNING, Severity.INFO)
            if self.count(sev)
        )
        if not counts:
            counts = "clean"
        lines.append(f"result: {counts} (exit {self.exit_code})")
        return "\n".join(lines)

    def to_json(self, min_severity: Severity = Severity.INFO) -> str:
        payload = {
            "target": self.target,
            "worst": self.worst.name,
            "exit_code": self.exit_code,
            "counts": {
                sev.name: self.count(sev)
                for sev in (Severity.ERROR, Severity.WARNING, Severity.INFO, Severity.OK)
            },
            "diagnostics": [d.to_dict() for d in self.findings(min_severity)],
        }
        return json.dumps(payload, indent=2)

    #: SARIF severity levels by :class:`Severity`.
    _SARIF_LEVELS = {
        Severity.ERROR: "error",
        Severity.WARNING: "warning",
        Severity.INFO: "note",
        Severity.OK: "none",
    }

    def to_sarif(self, min_severity: Severity = Severity.INFO) -> str:
        """Minimal SARIF 2.1.0 log for CI inline annotations.

        One run, one driver (``repro-lint``), one result per finding.
        Source findings carry a ``physicalLocation``; config-path
        findings (shape lint) carry a ``logicalLocation`` instead.
        """
        shown = self.findings(min_severity)
        rules: List[Dict[str, Any]] = []
        rule_index: Dict[str, int] = {}
        for diag in shown:
            if diag.rule_id not in rule_index:
                rule_index[diag.rule_id] = len(rules)
                rule: Dict[str, Any] = {
                    "id": diag.rule_id,
                    "shortDescription": {"text": diag.rule_id},
                }
                if diag.paper_ref:
                    rule["properties"] = {"paper_ref": diag.paper_ref}
                rules.append(rule)

        results: List[Dict[str, Any]] = []
        for diag in shown:
            message = diag.message
            if diag.fixit is not None:
                message += f" | fix: {diag.fixit.describe()}"
            result: Dict[str, Any] = {
                "ruleId": diag.rule_id,
                "ruleIndex": rule_index[diag.rule_id],
                "level": self._SARIF_LEVELS[diag.severity],
                "message": {"text": message},
            }
            loc = diag.location
            if loc.file is not None:
                region: Dict[str, Any] = {}
                if loc.line is not None:
                    region["startLine"] = loc.line
                if loc.column is not None:
                    # SARIF columns are 1-based; ast columns are 0-based.
                    region["startColumn"] = loc.column + 1
                physical: Dict[str, Any] = {
                    "artifactLocation": {"uri": loc.file.replace("\\", "/")}
                }
                if region:
                    physical["region"] = region
                result["locations"] = [{"physicalLocation": physical}]
            elif loc.config_path is not None:
                result["locations"] = [
                    {
                        "logicalLocations": [
                            {"fullyQualifiedName": loc.config_path}
                        ]
                    }
                ]
            results.append(result)

        payload = {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-lint",
                            "informationUri": (
                                "https://github.com/repro/repro"
                            ),
                            "rules": rules,
                        }
                    },
                    "results": results,
                }
            ],
        }
        return json.dumps(payload, indent=2)
