"""Shared tuning fixtures: tables are expensive, tune each once."""

import pytest

from repro.engine.core import ShapeEngine
from repro.kernels.search import TUNE_DIMS_QUICK, tune_table


@pytest.fixture(scope="session")
def engine():
    return ShapeEngine()


@pytest.fixture(scope="session")
def tiny_table(engine):
    """The smallest useful table: 2 dims x 1 batch = 8 buckets."""
    return tune_table("A100", dims=(256, 512), batches=(1,), engine=engine)


@pytest.fixture(scope="session")
def quick_table(engine):
    """The CI smoke grid (same one the golden tables are tuned on)."""
    return tune_table("A100", dims=TUNE_DIMS_QUICK, engine=engine)
