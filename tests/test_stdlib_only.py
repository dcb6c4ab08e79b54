"""The runtime package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dycklat"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{source.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []



def _relative_imports(source):
    """The package modules that source imports by relative import.

    An absolute import of the package fails the standard-library test above.
    """
    tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
    return found


def test_counting_routes_share_only_primitives():
    # Routes may share path and shape primitives, never counting logic, so
    # neither the formula nor the brute-force route imports another route.
    primitives = {"errors", "limits", "paths", "shapes"}
    for name in ("formula.py", "lattice.py"):
        imported = _relative_imports(PACKAGE / name)
        assert imported, name
        assert imported <= primitives, (name, imported - primitives)


def test_shared_primitives_import_no_route():
    # The shape walk resembles the brute-force memoised walk, so the shared
    # primitives must never reach into a counting route.
    allowed = {"paths.py": {"errors", "limits"}, "shapes.py": {"errors", "limits", "paths"}}
    for name, primitives in allowed.items():
        imported = _relative_imports(PACKAGE / name)
        assert imported, name
        assert imported <= primitives, (name, imported - primitives)


def test_closed_forms_import_no_route():
    # The closed forms are a route of their own; they share no code with
    # the series route, not even the Darboux numerator it also derives.
    imported = _relative_imports(PACKAGE / "indices.py")
    assert imported <= {"errors", "limits"}, imported


def test_no_module_imports_another_modules_private_names():
    # A _-prefixed name is its module's own; another module that needs it
    # should get a public name instead, which keeps that module's checks.
    private = []
    for source in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [
                    f"{source.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert private == []
