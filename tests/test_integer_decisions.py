"""No mechanism, optimum oracle or classifier decision reads a rational value.

They decide on each valuation's integer form (``scale``, ``ivalue``,
``imargins``).  A call of a ``.value`` or ``.margins`` attribute in them
would bring the rational form back into a decision, so the syntax tree of
each is searched for one.  In ``valuations`` only the classifier's
functions are searched: ``value`` itself, its callers outside the
decisions and the families' definitions live there too.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "procure"
RATIONAL_READS = ("value", "margins")
WHOLE_MODULES = ("mech_additive", "mech_single_item", "mech_subadditive", "oracles")


def rational_reads(source: str, functions=None) -> list:
    """(line, name) of each call of a ``.value`` or ``.margins`` attribute:
    anywhere in the module, or, when ``functions`` is a predicate on names,
    inside the module-level functions whose names it accepts."""
    tree = ast.parse(source)
    roots = [tree]
    if functions is not None:
        roots = [n for n in tree.body if isinstance(n, ast.FunctionDef) and functions(n.name)]
    return sorted(
        (node.lineno, node.func.attr)
        for root in roots
        for node in ast.walk(root)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in RATIONAL_READS
    )


def _is_classifier(name: str) -> bool:
    return "classify" in name


def test_checker_flags_only_rational_calls():
    source = (
        "def classify(v, caps):\n"
        "    return v.margins(caps), v.imargins(caps), v.margins\n"
        "def _classify_table(v, a):\n"
        "    def inner(b):\n"
        "        return v.value(b)\n"
        "    return inner(a), v.ivalue(a), value(a)\n"
        "def other(v, a):\n"
        "    return v.value(a)\n"
    )
    assert rational_reads(source) == [(2, "margins"), (5, "value"), (8, "value")]
    assert rational_reads(source, _is_classifier) == [(2, "margins"), (5, "value")]


@pytest.mark.parametrize("module", WHOLE_MODULES)
def test_mechanisms_and_oracles_read_no_rational_value(module):
    assert rational_reads((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == []


def test_classifier_reads_no_rational_value():
    source = (PACKAGE / "valuations.py").read_text(encoding="utf-8")
    checked = {
        n.name
        for n in ast.parse(source).body
        if isinstance(n, ast.FunctionDef) and _is_classifier(n.name)
    }
    assert {"classify", "_classify_margins", "_classify_symmetric", "_classify_explicit"} <= checked
    assert rational_reads(source, _is_classifier) == []
