"""Exact saturated-chain counts in Dyck lattices, by several independent routes.

The light modules (paths, shapes, the placement formula, the lattice and
the closed forms) load with the package. The series ring is heavier and
only some commands use it, so its names (``Jet``, ``Poly``,
``TruncatedSeries``, ``solve_polynomial``, ``sc2_series``, ``sc3_series``)
load on first access.
"""

from .errors import (
    InvalidWordError,
    ResourceLimitError,
    RouteMismatchError,
    SeriesError,
    SolveError,
)
from .formula import (
    chain_column_via_shapes,
    chain_count_via_shapes,
    total_chains_via_shapes,
)
from .indices import (
    DarbouxInput,
    boolean_index,
    catalan,
    chain3_darboux_estimate,
    darboux_estimate,
    dyck_index,
    hasse_index,
    sc2_closed,
    sc3_closed,
    sc_h_boolean,
)
from .lattice import HasseDiagram, count_chains_from, count_saturated_chains
from .limits import Limits
from .paths import DyckPath, generate_paths
from .shapes import SkewShape, enumerate_shapes, shapes_with_border

__all__ = [
    "DarbouxInput",
    "DyckPath",
    "HasseDiagram",
    "InvalidWordError",
    "Jet",
    "Limits",
    "Poly",
    "ResourceLimitError",
    "RouteMismatchError",
    "SeriesError",
    "SkewShape",
    "SolveError",
    "TruncatedSeries",
    "boolean_index",
    "catalan",
    "chain3_darboux_estimate",
    "chain_column_via_shapes",
    "chain_count_via_shapes",
    "count_chains_from",
    "count_saturated_chains",
    "darboux_estimate",
    "dyck_index",
    "enumerate_shapes",
    "generate_paths",
    "hasse_index",
    "sc2_closed",
    "sc2_series",
    "sc3_closed",
    "sc3_series",
    "sc_h_boolean",
    "shapes_with_border",
    "solve_polynomial",
    "total_chains_via_shapes",
]

__version__ = "0.1.0"

# Names resolved on first access (PEP 562), by defining module.
_LAZY = {
    "Jet": "series",
    "Poly": "series",
    "TruncatedSeries": "series",
    "solve_polynomial": "series",
    "sc2_series": "genseries",
    "sc3_series": "genseries",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
