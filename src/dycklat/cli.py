"""Command-line surface: sequences, route verification, shape listings,
lattice export, index tables, and series dumps.

Exit codes: 0 success or agreement, 1 disagreement or failed internal
arithmetic, 2 usage error, 3 resource cap exceeded.

``ROUTES`` alone says which chain lengths each chain-count route covers,
which caps bound it and how it computes its column; ``verify`` and
``index`` read it.  Every command runs in a fresh process, so start-up is
part of its cost: the light modules load up front, the series ring
(``series``, ``kronecker``, ``genseries``) only in the ``series`` command
and the ``series`` route.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from fractions import Fraction

from . import indices
from .errors import ResourceLimitError, RouteMismatchError
from .formula import chain_column_via_shapes, chain_count_via_shapes
from .lattice import (
    HasseDiagram,
    count_saturated_chains,
    total_valleys,
    valley_abscissae_sum,
)
from .limits import Limits
from .shapes import enumerate_shapes

SEQ_STATS = ("sc2", "sc3", "catalan", "edges", "valley-abscissae")
# The output formats each command renders; any other --fmt is a usage error.
FORMATS = {
    "seq": ("plain", "csv", "bfile"),
    "verify": ("plain",),
    "shapes": ("plain", "csv"),
    "chains": ("plain",),
    "lattice": ("plain", "dot"),
    "index": ("plain", "csv"),
    "series": ("plain", "csv", "bfile"),
}


RunConfig = namedtuple(
    "RunConfig", ("n_max", "h", "order", "fmt", "limits"), defaults=(9, 2, 20, "plain", Limits())
)

# Config keys and flag destinations: the run settings plus the Limits fields.
_CAP_KEYS = set(Limits._fields)
_KEYS = set(RunConfig._fields) - {"limits"} | _CAP_KEYS
_INT_KEYS = {
    key
    for key, default in {**RunConfig._field_defaults, **Limits._field_defaults}.items()
    if type(default) is int
}


def load_config_file(path: str) -> dict:
    """Parse a key=value file; '#' starts a comment, keys use flag names."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in _INT_KEYS:
                try:
                    values[key] = int(value)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {key} needs an integer") from None
            else:
                values[key] = value
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _KEYS:
        value = getattr(args, key, None)
        if value is not None:
            values[key] = value
    caps = {key: values.pop(key) for key in _CAP_KEYS & values.keys()}
    cfg = RunConfig(**values, limits=Limits(**caps))
    if cfg.fmt not in FORMATS[args.command]:
        raise ValueError(f"format {cfg.fmt!r} does not apply to {args.command}")
    for key in ("n_max", "h", "order"):
        value = getattr(cfg, key)
        if value < 0:
            raise ValueError(f"{key.replace('_', '-')} must be nonnegative, got {value}")
    return cfg


def render_bfile(values) -> str:
    return "\n".join(f"{n} {v}" for n, v in enumerate(values))


def _print_rows(fmt: str, header: str, rows, plain) -> None:
    """Print rows as csv under header, or else each as the line plain(*row)."""
    if fmt == "csv":
        print(header)
        for row in rows:
            print(",".join(map(str, row)))
    else:
        for row in rows:
            print(plain(*row))


def cmd_seq(args, cfg: RunConfig) -> int:
    stat = args.stat
    ns = range(cfg.n_max + 1)
    if stat in ("sc2", "sc3", "catalan"):
        cfg.limits.check("max_closed_n", cfg.n_max, "n-max")
        fn = {"sc2": indices.sc2_closed, "sc3": indices.sc3_closed, "catalan": indices.catalan}[stat]
        values = [fn(n) for n in ns]
    else:
        cfg.limits.check("max_lattice_n", cfg.n_max, "n-max")
        fn = {"edges": total_valleys, "valley-abscissae": valley_abscissae_sum}[stat]
        values = [fn(n, cfg.limits) for n in ns]
    if cfg.fmt == "csv":
        _print_rows("csv", f"n,{stat}", enumerate(values), None)
    else:
        print(",".join(map(str, values)) if cfg.fmt == "plain" else render_bfile(values))
    return 0


def _series_column(cfg: RunConfig):
    from . import genseries

    build = {2: genseries.sc2_series, 3: genseries.sc3_series}[cfg.h]
    return genseries.integer_coefficients(build(cfg.n_max))


# In verify's column order; the reverse is cheapest first.  lengths: None
# for all.  h_cap: the cap that index holds h to, or None.  A column looks
# its counting function up by name as it runs, so a name that a test or
# perfbench/layer_trace.py rebinds on this module, indices or genseries is
# the one that counts.
Route = namedtuple("Route", ("lengths", "n_cap", "h_cap", "column"))
ROUTES = {
    "bruteforce": Route(None, "max_lattice_n", None, lambda cfg: (
        count_saturated_chains(n, cfg.h, cfg.limits) for n in range(cfg.n_max + 1))),
    "formula": Route(None, "max_closed_n", "max_shape_area",
                     lambda cfg: chain_column_via_shapes(cfg.n_max, cfg.h, cfg.limits)),
    "series": Route((2, 3), "max_closed_n", None, _series_column),
    "closedform": Route((2, 3), "max_closed_n", None, lambda cfg: (
        indices.dyck_chain_count_closed(n, cfg.h) for n in range(cfg.n_max + 1))),
}


def _covers(route: str, h: int) -> bool:
    return ROUTES[route].lengths is None or h in ROUTES[route].lengths


def _verify_routes(args, cfg: RunConfig) -> list[str]:
    names = [r.strip() for r in args.routes.split(",") if r.strip()]
    if names == ["all"]:
        names = [r for r in ROUTES if _covers(r, cfg.h)]
    bad = [r for r in names if r not in ROUTES]
    if bad:
        raise ValueError(f"unknown route(s): {', '.join(bad)}")
    rejected = [r for r in names if not _covers(r, cfg.h)]
    if rejected:
        lengths = " or ".join(map(str, sorted({h for r in rejected for h in ROUTES[r].lengths})))
        raise ValueError(f"route(s) {', '.join(rejected)} only exist for chain length {lengths}")
    if not names:
        raise ValueError("no routes requested")
    return [r for r in ROUTES if r in names]


def cmd_verify(args, cfg: RunConfig) -> int:
    routes = _verify_routes(args, cfg)
    for route in routes:
        cfg.limits.check(ROUTES[route].n_cap, cfg.n_max, "n-max")
    # Cheapest first, so the formula's shape-area check comes before any lattice walk.
    columns = {r: list(ROUTES[r].column(cfg)) for r in reversed(routes)}
    print(f"verify h={cfg.h} routes={','.join(routes)}")
    mismatches = 0
    for n in range(cfg.n_max + 1):
        row = {r: columns[r][n] for r in routes}
        agree = len(set(row.values())) == 1
        mismatches += not agree
        cells = " ".join(f"{r}={v}" for r, v in row.items())
        print(f"n={n} {cells} {'ok' if agree else 'MISMATCH'}")
    if mismatches:
        print(f"DISAGREEMENT in {mismatches} row(s)")
        return 1
    print("all rows agree")
    return 0


def cmd_shapes(args, cfg: RunConfig) -> int:
    shapes = enumerate_shapes(args.area, cfg.limits)
    rows = ((s.lower, s.upper, s.tableau_count(cfg.limits)) for s in shapes)
    _print_rows(cfg.fmt, "lower,upper,tableaux", rows, "{} {} t={}".format)
    return 0


def cmd_chains(args, cfg: RunConfig) -> int:
    print(chain_count_via_shapes(args.path, cfg.h, cfg.limits))
    return 0


def cmd_lattice(args, cfg: RunConfig) -> int:
    diagram = HasseDiagram.build(args.n, cfg.limits)
    export = diagram.to_dot if cfg.fmt == "dot" else diagram.to_edge_list
    export(sys.stdout)
    print()  # the line end that print(export()) added
    return 0


def _index_rows(cfg: RunConfig):
    # The cheapest route that covers h within its h cap; brute force has none.
    route = next(
        ROUTES[r] for r in reversed(ROUTES)
        if _covers(r, cfg.h) and (ROUTES[r].h_cap is None or cfg.h <= getattr(cfg.limits, ROUTES[r].h_cap))
    )
    cfg.limits.check(route.n_cap, cfg.n_max, "n-max")
    for n, count in enumerate(route.column(cfg)):
        size = indices.catalan(n)
        index = indices.hasse_index(count, size)
        target = Fraction(n**cfg.h, 2**cfg.h)
        ratio = str(index / target) if n > 0 else "-"
        yield n, count, size, index, f"{float(index):.6f}", target, ratio


def cmd_index(args, cfg: RunConfig) -> int:
    header = "n,chains,elements,index,index_decimal,boolean_target,ratio"
    plain = "n={} chains={} elements={} index={} decimal={} target={} ratio={}".format
    _print_rows(cfg.fmt, header, _index_rows(cfg), plain)
    return 0


# Each entry takes the genseries module and, like a ROUTES column, looks its
# function up by name as it runs.
SERIES = {
    "SC2": lambda g, order: g.sc2_series(order),
    "SC3": lambda g, order: g.sc3_series(order),
    "V": lambda g, order: g.valley_marked_series(order),
    "F2": lambda g, order: g.duu_marked_system(order)[0],
    "F3": lambda g, order: g.duu_valley_marked_system(order)[0],
    "A": lambda g, order: g.dduu_marked_series(order),
    "B": lambda g, order: g.dudu_marked_series(order),
    "C": lambda g, order: g.duuu_marked_series(order),
}
SERIES_NAMES = tuple(SERIES)


def cmd_series(args, cfg: RunConfig) -> int:
    order = cfg.order
    cfg.limits.check("max_closed_n", order, "order")
    from . import genseries

    series = SERIES[args.name](genseries, order)
    coeffs = series.coefficients()
    if cfg.fmt == "bfile":
        from .series import Poly

        if isinstance(coeffs[0], Poly):
            raise ValueError(f"series {args.name} has polynomial coefficients; bfile does not apply")
        if any(Fraction(c).denominator != 1 for c in coeffs):
            raise ValueError(f"series {args.name} has non-integer coefficients; bfile does not apply")
        print(render_bfile(Fraction(c).numerator for c in coeffs))
    else:
        _print_rows(cfg.fmt, "n,coefficient", enumerate(coeffs), "{} {}".format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dycklat",
        description="Saturated chain counts in Dyck lattices via independent exact routes.",
    )
    parser.add_argument("--config", help="key=value config file; explicit flags win")

    def add_common(sub, command, n_max=False, h=False, order=False):
        # No argparse choices: _resolve_config checks flag and config values alike.
        formats = "{" + ",".join(FORMATS[command]) + "}"
        sub.add_argument("--fmt", metavar=formats, help="output format")
        if n_max:
            sub.add_argument("--n-max", dest="n_max", type=int, help="largest semilength emitted")
        if h:
            sub.add_argument("--h", type=int, help="chain length")
        if order:
            sub.add_argument("--order", type=int, help="series truncation order")
        for cap in Limits._fields:
            sub.add_argument("--" + cap.replace("_", "-"), dest=cap, type=int, help=argparse.SUPPRESS)

    commands = parser.add_subparsers(dest="command", required=True)

    seq = commands.add_parser("seq", help="emit a statistic sequence a(0)..a(n-max)")
    seq.add_argument("stat", choices=SEQ_STATS)
    add_common(seq, "seq", n_max=True)
    seq.set_defaults(handler=cmd_seq)

    verify = commands.add_parser("verify", help="cross-check chain-count routes")
    verify.add_argument("--routes", default="all", help="comma list of routes, or 'all'")
    add_common(verify, "verify", n_max=True, h=True)
    verify.set_defaults(handler=cmd_verify)

    shapes = commands.add_parser("shapes", help="list shapes of a given area with tableau counts")
    shapes.add_argument("--area", type=int, required=True)
    add_common(shapes, "shapes")
    shapes.set_defaults(handler=cmd_shapes)

    chains = commands.add_parser("chains", help="count length-h chains upward from one path")
    chains.add_argument("--path", required=True, help="Dyck word in letters u and d")
    add_common(chains, "chains", h=True)
    chains.set_defaults(handler=cmd_chains)

    lattice = commands.add_parser("lattice", help="export the Hasse diagram")
    lattice.add_argument("--n", type=int, required=True)
    add_common(lattice, "lattice")
    lattice.set_defaults(handler=cmd_lattice)

    index = commands.add_parser("index", help="Hasse index table against the Boolean target")
    add_common(index, "index", n_max=True, h=True)
    index.set_defaults(handler=cmd_index)

    series = commands.add_parser("series", help="dump coefficients of a named series")
    series.add_argument("--name", choices=SERIES_NAMES, required=True)
    add_common(series, "series", order=True)
    series.set_defaults(handler=cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.handler(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RouteMismatchError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
