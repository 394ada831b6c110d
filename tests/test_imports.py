"""Every import in the package and the test suite is used, every public
function, class and UPPER_CASE constant of the package is read by the
package, and no package module reads another package module's private name.

An imported name counts as used when the module reads it anywhere or lists
it in ``__all__``; ``from __future__`` imports are compiler directives and
are skipped.  A public name counts as read when another part of the package
loads it, when ``procure.__all__`` lists it, or when it is a click command.
"""

import ast
import re
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


PACKAGE = sorted((ROOT / "src" / "procure").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _is_command(node) -> bool:
    # @main.command(...) and @click.group() register a click command.
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def unread_public_names(sources: dict) -> list:
    """(module, name) of each public module-level function, class or
    UPPER_CASE constant that no module of the package reads outside its own
    definition, that the package's ``__all__`` does not list, and that is
    not a click command.  A constant nothing reads is a dead option.

    ``sources`` maps module names to source text; ``__init__`` holds
    ``__all__``.  A read is a loaded name or attribute; imports are not reads.
    """
    exported, definitions, reads = set(), [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                if not _is_command(node):
                    definitions.append((module, node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if module == "__init__" and "__all__" in names:
                    exported |= {e.value for e in node.value.elts}
                definitions += [
                    (module, name, node) for name in names if CONSTANT.fullmatch(name)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.attr, node.lineno))

    def read_outside(module, defined, node) -> bool:
        return any(
            name == defined
            and (where != module or not node.lineno <= line <= node.end_lineno)
            for where, name, line in reads
        )

    return sorted(
        (module, name)
        for module, name, node in definitions
        if name not in exported and not read_outside(module, name, node)
    )


def test_checker_flags_only_unread_public_names():
    sources = {
        "__init__": "from .a import exported\n__all__ = ['exported']\n",
        "a": (
            "import click\n"
            "def exported(): pass\n"
            "def used(): pass\n"
            "def unread(): pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def _private(): pass\n"
            "class Unread: pass\n"
            "class Annotated: pass\n"
            "def typed() -> Annotated: pass\n"
            "@click.group()\n"
            "def main(): pass\n"
            "@main.command('x')\n"
            "def cmd(): pass\n"
        ),
        "b": "from .a import unread\nfrom . import a\nprint(a.used())\n",
    }
    assert unread_public_names(sources) == [
        ("a", "Unread"), ("a", "recursive"), ("a", "typed"), ("a", "unread"),
    ]


def test_checker_flags_only_unread_constants():
    sources = {
        "__init__": "from .a import EXPORTED\n__all__ = ['EXPORTED']\n",
        "a": (
            "EXPORTED = 1\n"
            "LIMIT = 10\n"
            "UNREAD = 2\n"
            "TYPED: int = 3\n"
            "SELF_READ = [SELF_READ]\n"
            "_PRIVATE = 5\n"
            "Alias = tuple\n"
            "def f(n):\n"
            "    return n < LIMIT\n"
        ),
        "b": "from .a import UNREAD\nfrom . import a\nprint(a.TYPED)\n",
    }
    assert unread_public_names(sources) == [
        ("a", "SELF_READ"), ("a", "UNREAD"), ("a", "f"),
    ]


def test_public_names_are_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_public_names(sources) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_cross_reads(sources: dict) -> list:
    """(module, line, name) of each read of another package module's
    ``_``-prefixed name, as ``module._name`` after ``from . import module``
    or as ``from .module import _name``.  Dunder names are not private.
    """
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        package_modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if node.module is None:
                        package_modules.add(alias.asname or alias.name)
                    if _private(alias.name):
                        found.append((module, node.lineno, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in package_modules
                and _private(node.attr)
            ):
                found.append((module, node.lineno, node.attr))
    return sorted(found)


def test_checker_flags_only_cross_module_private_reads():
    sources = {
        "a": "_X = 1\ndef _p(): pass\ndef pub(): return _p()\n",
        "b": (
            "import json\n"
            "from . import a as alias\n"
            "from .a import _p, pub\n"
            "print(alias._X, alias.pub, alias.__name__, json._default_decoder)\n"
            "class C:\n"
            "    def m(self): return self._y\n"
        ),
    }
    assert private_cross_reads(sources) == [("b", 3, "_p"), ("b", 4, "_X")]


def test_no_cross_module_private_reads():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert private_cross_reads(sources) == []
