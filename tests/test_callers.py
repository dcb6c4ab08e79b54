"""Every top-level name in the package has a caller in the package.

Code that only tests use lives under tests/.  A top-level function or class
of src/dycklat counts as used when some module of the package other than
__init__ reads it (as a name, an attribute or a string looked up by name)
outside its own definition and outside the names found unused, so a name
only an unused one calls is unused too.  The names perfbench/layer_trace.py
wraps are exempt: the tracer looks them up, and test_trace_plan.py checks
they exist.
"""

import ast
from pathlib import Path

from test_trace_plan import load_plan

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dycklat"


def _reads(node, skip):
    """The names read under node, as names, attributes or strings, leaving out the subtrees in skip."""
    if node in skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, skip)


def test_every_top_level_name_has_a_caller_in_the_package(monkeypatch):
    exempt = {attribute.split(".")[0] for _, attribute, _, _ in load_plan(monkeypatch)}
    trees = [
        ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        for source in sorted(PACKAGE.glob("*.py"))
        if source.name != "__init__.py"
    ]
    assert trees
    names = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in exempt
    ]
    unused = set()
    while found := {
        node
        for node in names
        if node not in unused
        and not any(node.name in _reads(tree, unused | {node}) for tree in trees)
    }:
        unused |= found
    assert sorted(node.name for node in unused) == []
