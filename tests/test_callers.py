"""Every function, class and method in the package has a caller in the package.

Code that only tests use lives under tests/.  The check parses the modules
of src/dycklat other than __init__ and finds, to a fixed point, the
definitions that nothing in the package reads outside their own body and
outside the definitions already found unread, so a name that only unread
code reads is unread too.  A definition is one of:

- a top-level function or class, or a top-level assignment, read when one
  of its names is read as a name, an attribute or a string looked up by name;
- a method or property of a top-level class, read only as an attribute
  (x.name) or a looked-up string, since its name may also be a local
  variable's.

Top-level statements that bind no name (imports, the __main__ call) always
run.  An unread assignment is not reported itself, but what only it names
is unread.  Exempt are dunder methods, which are protocol hooks; the names
perfbench/layer_trace.py wraps, which the tracer looks up and
test_trace_plan.py checks; and methods that override an attribute of a
base class, such as Limits._make, which namedtuple's _replace calls.
"""

import ast
import importlib
from pathlib import Path

from test_trace_plan import load_plan

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dycklat"


def _definitions(tree, exempt, inherited):
    """{node: (label, names, bare)} for the definitions of one module that may go unread.

    bare says whether a plain name read counts; inherited(class, method)
    says whether the method overrides a base-class attribute.
    """
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in exempt:
            found[node] = (node.name, {node.name}, True)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if names:
                found[node] = (None, names, True)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                label = f"{node.name}.{item.name}"
                dunder = item.name.startswith("__") and item.name.endswith("__")
                if not dunder and label not in exempt and not inherited(node.name, item.name):
                    found[item] = (label, {item.name}, False)
    return found


def _reads(node, owners, definitions):
    """(name, bare, owners) for each read under node, owners being the definitions around it."""
    if node in definitions:
        owners = owners | {node}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, True, owners
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, False, owners
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value, False, owners
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, owners, definitions)


def unread(trees, definitions):
    """The labels of the functions, classes and methods in definitions that nothing reads."""
    reads = {}
    for tree in trees:
        for name, by_name, owners in _reads(tree, frozenset(), definitions):
            reads.setdefault(name, []).append((by_name, owners))
    dead = set()
    while found := {
        node
        for node, (_, names, bare) in definitions.items()
        if node not in dead
        and not any(
            (bare or not by_name) and node not in owners and not owners & dead
            for name in names
            for by_name, owners in reads.get(name, ())
        )
    }:
        dead |= found
    return sorted(definitions[node][0] for node in dead if definitions[node][0])


def test_every_definition_has_a_caller_in_the_package(monkeypatch):
    plan = [attribute for _, attribute, _, _ in load_plan(monkeypatch)]
    exempt = set(plan) | {attribute.split(".")[0] for attribute in plan}
    trees, definitions = [], {}
    for source in sorted(PACKAGE.glob("*.py")):
        if source.name == "__init__.py":
            continue

        def inherited(cls, name, module=f"dycklat.{source.stem}"):
            bases = getattr(importlib.import_module(module), cls).__mro__[1:]
            return any(name in vars(base) for base in bases)

        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        trees.append(tree)
        definitions |= _definitions(tree, exempt, inherited)
    assert trees
    assert unread(trees, definitions) == []


def test_only_reads_from_read_code_count():
    tree = ast.parse(
        "def lone():\n    pass\n\n"
        "TABLE = (lone,)\n\n"
        "class Box:\n"
        "    def size(self):\n        return self.width()\n\n"
        "    def width(self):\n        return 1\n\n"
        "    def depth(self):\n        return 1\n\n"
        "def main():\n    depth = 2\n    return Box().size() + depth\n\n"
        "main()\n"
    )
    definitions = _definitions(tree, set(), lambda cls, name: False)
    assert unread([tree], definitions) == ["Box.depth", "lone"]
