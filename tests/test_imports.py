"""Every import in the package and the test suite is used.

A name counts as used when the module reads it anywhere or lists it in
``__all__``; ``from __future__`` imports are compiler directives and are
skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "procure").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            }
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import json\n"
        "from math import log, sqrt\n"
        "from fractions import Fraction\n"
        "__all__ = ['Fraction']\n"
        "print(json.dumps(log(2)))\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (5, "sqrt")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
