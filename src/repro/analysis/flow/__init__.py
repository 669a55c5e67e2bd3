"""Flow-sensitive static analysis: ``repro lint --flow``.

This package is the dataflow counterpart to the flat AST walker in
:mod:`repro.analysis.selflint`: it lowers every function to a CFG
(:mod:`~repro.analysis.flow.cfg`), solves a forward join-lattice
fixpoint over it (:mod:`~repro.analysis.flow.fixpoint`), and runs
three rule families on the result —

- units (:mod:`~repro.analysis.flow.unit_rules`): the perf model's
  flops/bytes/seconds/elements arithmetic must be dimensionally
  consistent;
- concurrency (:mod:`~repro.analysis.flow.concurrency`): shared
  attributes keep one lock discipline, threading locks never span
  ``await``, coroutine bodies never block;
- observability (:mod:`~repro.analysis.flow.obs_rules`): spans are
  entered, metric/span names use known phases, instruments go through
  the registry.

All findings flow through :class:`~repro.analysis.diagnostics.
LintReport` and honor the same ``# lint: allow(rule-id)`` pragma as
the self-lint pass.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.diagnostics import LintReport
from repro.analysis.flow.concurrency import ConcurrencyChecker
from repro.analysis.flow.obs_rules import ObservabilityChecker
from repro.analysis.flow.unit_rules import UnitChecker
from repro.analysis.selflint import _suppressed
from repro.errors import ConfigError

__all__ = ["FlowLinter"]


class FlowLinter:
    """Runs the flow rule families over a Python source tree."""

    def __init__(self, root: "str | Path | None" = None) -> None:
        if root is None:
            root = Path(__file__).parent.parent.parent
        self.root = Path(root)
        if not self.root.exists():
            raise ConfigError(f"flow-lint root does not exist: {self.root}")

    def _files(self, paths: Optional[Sequence["str | Path"]]) -> List[Path]:
        if paths:
            out: List[Path] = []
            for p in paths:
                p = Path(p)
                if p.is_dir():
                    out.extend(sorted(p.rglob("*.py")))
                elif p.suffix == ".py":
                    out.append(p)
                else:
                    raise ConfigError(f"not a Python file or directory: {p}")
            return out
        if self.root.is_file():
            return [self.root]
        return sorted(self.root.rglob("*.py"))

    def _rel(self, path: Path) -> str:
        try:
            return str(path.relative_to(self.root.parent))
        except ValueError:
            return str(path)

    def lint(self, paths: Optional[Sequence["str | Path"]] = None) -> LintReport:
        files = self._files(paths)
        report = LintReport(
            target="flow-lint of "
            + (str(self.root) if not paths else ", ".join(map(str, paths)))
        )
        for path in files:
            source = path.read_text()
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                raise ConfigError(f"cannot parse {path}: {exc}") from exc
            lines = source.splitlines()
            rel = self._rel(path)
            report.extend(UnitChecker(rel, lines, _suppressed).check_module(tree))
            report.extend(
                ConcurrencyChecker(rel, lines, _suppressed).check_module(tree)
            )
            report.extend(
                ObservabilityChecker(rel, lines, _suppressed).check_module(tree)
            )
        return report
