"""What importing one module loads: the layer order keeps verbs light.

Each case imports one module in a fresh interpreter and lists
``sys.modules``; none of the named modules (or their submodules) may
appear.  A package ``__init__`` that re-exports across layers, or a
module-level import of a later layer, shows up here as a load.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

CASES = [
    ("repro.gpu.specs", ("repro.engine",)),
    (
        "repro.core.config",
        ("repro.harness", "repro.serve", "repro.analysis", "multiprocessing"),
    ),
    ("repro.engine", ("concurrent.futures.process",)),
    ("repro.cli", ("repro.harness.figures",)),
]


def _loaded_by(module: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.split()


@pytest.mark.parametrize("module,absent", CASES, ids=[c[0] for c in CASES])
def test_import_loads_nothing_it_does_not_need(module, absent):
    loaded = _loaded_by(module)
    assert module in loaded
    leaked = sorted(
        name for name in loaded
        if any(name == a or name.startswith(a + ".") for a in absent)
    )
    assert not leaked, f"import {module} loads {leaked}"
