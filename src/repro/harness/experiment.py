"""The experiment unit: a named, runnable paper artifact.

Each :class:`Experiment` wraps a ``run()`` producing a
:class:`~repro.harness.results.ResultTable` and an optional ``check()``
verifying the paper's qualitative claim about that artifact's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.errors import ExperimentError
from repro.harness.compare import CheckResult
from repro.harness.results import ResultTable

RunFn = Callable[[], ResultTable]
CheckFn = Callable[[ResultTable], CheckResult]


@dataclass
class Experiment:
    """One reproducible figure/table/case study."""

    id: str
    title: str
    paper_ref: str
    run_fn: RunFn
    check_fn: Optional[CheckFn] = None
    description: str = ""
    #: Model-preset names this experiment sweeps; the runner lints them
    #: through :class:`repro.analysis.shape_rules.ShapeLinter` before running so
    #: known-inefficient shapes are flagged before a long sweep starts.
    lint_configs: Tuple[str, ...] = ()

    def run(self) -> ResultTable:
        """Execute the experiment and return its table."""
        table = self.run_fn()
        if not isinstance(table, ResultTable):
            raise ExperimentError(
                f"{self.id}: run_fn returned {type(table).__name__}, "
                "expected ResultTable"
            )
        if len(table) == 0:
            raise ExperimentError(f"{self.id}: experiment produced no rows")
        return table

    def check(self, table: Optional[ResultTable] = None) -> CheckResult:
        """Run (or reuse) the table and verify the paper-shape claim."""
        if table is None:
            table = self.run()
        if self.check_fn is None:
            return CheckResult(
                passed=True,
                details=f"{self.id}: no qualitative check registered",
            )
        return self.check_fn(table)

    def describe(self) -> str:
        return f"{self.id:<12} {self.paper_ref:<18} {self.title}"
