"""Every ``from repro… import …`` in the README, docs and examples resolves.

The top-level ``repro`` package serves its names lazily and package
``__init__`` files re-export only what callers outside them use, so the
documented import lines are the public surface this test holds.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
           *sorted((ROOT / "examples").glob("*.py"))]

_IMPORT = re.compile(
    r"^[ \t]*(from repro[\w.]* import (?:\([^)]*\)|[^\n#]*)|import repro[\w.]*)",
    re.MULTILINE,
)


def _statements() -> List[Tuple[str, str]]:
    found = []
    for path in SOURCES:
        text = path.read_text()
        for match in _IMPORT.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            found.append((f"{path.relative_to(ROOT)}:{line}", match.group(1).strip()))
    return found


STATEMENTS = _statements()


def test_the_docs_have_import_lines():
    assert len(STATEMENTS) > 20


@pytest.mark.parametrize("where,statement", STATEMENTS, ids=[w for w, _ in STATEMENTS])
def test_documented_import_resolves(where, statement):
    exec(statement, {})
