"""What a command loads before it runs, and the package's lazy names.

Every command runs in a fresh process, so each module it imports is part
of its cost. The checks that need a clean ``sys.modules`` run in a child
interpreter started with ``-S``: ``site`` can import ``typing`` itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import dycklat

SRC = Path(__file__).resolve().parent.parent / "src"

SERIES_RING = ("dycklat.series", "dycklat.genseries", "dycklat.kronecker")
HEAVY = SERIES_RING + ("dataclasses", "typing")


def loaded_modules(code: str) -> set:
    """The modules a child interpreter holds after running code."""
    child = (
        f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
        "loaded = sorted(sys.modules)\nimport json\nprint(json.dumps(loaded))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", child], capture_output=True, text=True, check=True
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def modules_after_main(argv: str) -> set:
    return loaded_modules(f"from dycklat.cli import main\nassert main({argv.split()!r}) == 0")


@pytest.mark.parametrize(
    "argv",
    [
        "chains --path uuddud --h 2",
        "shapes --area 3",
        "verify --h 2 --n-max 4 --routes formula",
        "verify --h 2 --n-max 4 --routes bruteforce",
        "lattice --n 3",
        "seq sc3 --n-max 6",
        "index --h 3 --n-max 6",
        "index --h 5 --n-max 6",
        "index --h 6 --n-max 4",
    ],
)
def test_light_commands_skip_the_series_ring(argv):
    assert modules_after_main(argv).isdisjoint(HEAVY)


@pytest.mark.parametrize("argv", ["series --name A --order 4", "verify --h 2 --n-max 4 --routes series"])
def test_series_commands_load_the_series_ring(argv):
    assert "dycklat.series" in modules_after_main(argv)


def test_cli_import_loads_every_traced_light_module():
    # perfbench/layer_trace.py wraps functions only in the modules loaded
    # by `import dycklat.cli` and `import dycklat.genseries`; a light module
    # loaded later would run unwrapped and its layer metrics would read 0.
    loaded = loaded_modules("import dycklat.cli")
    for name in ("paths", "shapes", "formula", "lattice", "indices"):
        assert f"dycklat.{name}" in loaded, name


def test_bare_package_import_skips_the_series_ring():
    assert loaded_modules("import dycklat").isdisjoint(HEAVY)


def test_every_exported_name_resolves():
    for name in dycklat.__all__:
        assert getattr(dycklat, name) is not None, name
    namespace = {}
    exec("from dycklat import *", namespace)
    assert set(dycklat.__all__) <= namespace.keys()
    assert namespace["Poly"] is sys.modules["dycklat.series"].Poly
    assert namespace["sc3_series"] is sys.modules["dycklat.genseries"].sc3_series


def test_dir_lists_every_exported_name():
    assert set(dycklat.__all__) <= set(dir(dycklat))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dycklat.no_such_name
    assert not hasattr(dycklat, "no_such_name")
