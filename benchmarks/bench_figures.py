"""Benchmark: regenerate every registered paper figure, table and extension.

One case per experiment in :func:`repro.harness.figures.list_experiments`,
so a newly registered experiment is benchmarked without further wiring.
"""

import pytest

from repro.harness.figures import list_experiments


@pytest.mark.parametrize("exp_id", [exp.id for exp in list_experiments()])
def bench_figures(regenerate, exp_id):
    regenerate(exp_id)
