"""The import layer order of ``src/repro``, stated once and enforced.

Every module belongs to the longest unit in :data:`LAYERS` that prefixes
its dotted name.  A module may import from its own unit and from any
unit listed before it; importing a unit listed after it fails this
test, whether the import sits at module level or inside a function.
``repro`` itself (the lazy top-level facade) is the last unit, so no
module under ``src/repro`` imports through it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Lowest first.  ``repro.gpu.gemm_model`` is the scalar oracle: it sits
#: above the engine it checks and whose scalar memo it uses.
LAYERS = (
    "repro.errors",
    "repro.types",
    "repro.observability",
    "repro.resilience",
    "repro.gpu",
    "repro.engine",
    "repro.gpu.gemm_model",
    "repro.transformer",
    "repro.autotune",
    "repro.kernels",
    "repro.calibration",
    "repro.core",
    "repro.trainstep",
    "repro.parallelism",
    "repro.inference",
    "repro.analysis",
    "repro.harness",
    "repro.serve",
    "repro.cli",
    "repro",
)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_module(name: str) -> bool:
    path = SRC.joinpath(*name.split("."))
    return path.with_suffix(".py").exists() or (path / "__init__.py").exists()


def _unit(name: str) -> str:
    matches = [u for u in LAYERS if name == u or name.startswith(u + ".")]
    return max(matches, key=len)


def _imported(node: ast.AST, module: str, is_package: bool) -> List[str]:
    """Dotted names of the modules one import statement loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    assert isinstance(node, ast.ImportFrom)
    base = node.module or ""
    if node.level:
        package = module.split(".") if is_package else module.split(".")[:-1]
        package = package[: len(package) - node.level + 1]
        base = ".".join(package + ([base] if base else []))
    return [
        f"{base}.{alias.name}" if _is_module(f"{base}.{alias.name}") else base
        for alias in node.names
    ]


def _upward(module: str, source: str, is_package: bool = False) -> List[str]:
    """Every import in ``source`` (module ``module``) of a later unit."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for target in _imported(node, module, is_package):
            if target != "repro" and not target.startswith("repro."):
                continue
            if LAYERS.index(_unit(target)) > LAYERS.index(_unit(module)):
                found.append(
                    f"{module}:{node.lineno} imports {target} "
                    f"({_unit(module)} is below {_unit(target)})"
                )
    return found


def test_every_module_is_in_a_layer():
    names = [_module_name(p) for p in SRC.rglob("*.py")]
    assert len(names) > 100
    for name in names:
        assert _unit(name) in LAYERS


def test_no_module_imports_a_later_layer():
    upward = [
        line
        for path in sorted(SRC.rglob("*.py"))
        for line in _upward(
            _module_name(path), path.read_text(), path.name == "__init__.py"
        )
    ]
    assert not upward, "\n".join(upward)


def test_the_check_sees_every_import_form():
    in_function = "def f():\n    from repro.harness.runner import run_all\n"
    assert _upward("repro.core.config", in_function)
    assert _upward("repro.gpu.specs", "import repro.engine.cache\n")
    assert _upward("repro.gpu.specs", "from repro.engine import cache\n")
    assert _upward("repro.gpu.specs", "from repro import GemmModel\n")
    assert _upward("repro.gpu", "from . import gemm_model\n", is_package=True)
    assert not _upward("repro.gpu.gemm_model", "from repro.engine import cache\n")
    assert not _upward("repro.harness.runner", "from repro.core import config\n")
