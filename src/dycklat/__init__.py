"""Exact saturated-chain counts in Dyck lattices, by several independent routes."""

from .errors import (
    InvalidWordError,
    ResourceLimitError,
    RouteMismatchError,
    SeriesError,
    SolveError,
)
from .formula import chain_count_via_shapes, total_chains_via_shapes
from .genseries import sc2_series, sc3_series
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
from .series import Jet, Poly, TruncatedSeries, solve_polynomial
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
