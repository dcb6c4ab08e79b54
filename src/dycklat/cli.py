"""Command-line surface: sequences, route verification, shape listings,
lattice export, index tables, and series dumps.

Exit codes: 0 success or agreement, 1 disagreement or failed internal
arithmetic, 2 usage error, 3 resource cap exceeded.

Every command runs in a fresh process, so start-up is part of its cost.
This module imports the light modules (paths, shapes, formula, lattice,
closed forms) up front and the series ring (``series``, ``kronecker``,
``genseries``) only inside the two commands that use it: ``series`` and
the ``series`` route of ``verify``.
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
from .paths import DyckPath
from .shapes import enumerate_shapes

SERIES_NAMES = ("SC2", "SC3", "V", "F2", "F3", "A", "B", "C")
SEQ_STATS = ("sc2", "sc3", "catalan", "edges", "valley-abscissae")
ROUTE_NAMES = ("bruteforce", "formula", "series", "closedform")
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


def _emit_sequence(values, name: str, fmt: str) -> str:
    if fmt == "plain":
        return ",".join(str(v) for v in values)
    if fmt == "csv":
        rows = [f"n,{name}"]
        rows.extend(f"{n},{v}" for n, v in enumerate(values))
        return "\n".join(rows)
    return render_bfile(values)


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
    print(_emit_sequence(values, stat, cfg.fmt))
    return 0


def _verify_routes(args, cfg: RunConfig) -> list[str]:
    names = [r.strip() for r in args.routes.split(",") if r.strip()]
    if names == ["all"]:
        names = list(ROUTE_NAMES) if cfg.h in (2, 3) else ["bruteforce", "formula"]
    bad = [r for r in names if r not in ROUTE_NAMES]
    if bad:
        raise ValueError(f"unknown route(s): {', '.join(bad)}")
    if cfg.h not in (2, 3):
        rejected = [r for r in names if r in ("series", "closedform")]
        if rejected:
            raise ValueError(
                f"route(s) {', '.join(rejected)} only exist for chain length 2 or 3"
            )
    if not names:
        raise ValueError("no routes requested")
    return names


def cmd_verify(args, cfg: RunConfig) -> int:
    routes = _verify_routes(args, cfg)
    limits = cfg.limits
    if "bruteforce" in routes or "formula" in routes:
        limits.check("max_lattice_n", cfg.n_max, "n-max")
    if "formula" in routes:
        limits.check("max_formula_h", cfg.h, "chain length")
    if "series" in routes or "closedform" in routes:
        limits.check("max_closed_n", cfg.n_max, "n-max")

    columns = {}
    if "bruteforce" in routes:
        columns["bruteforce"] = [count_saturated_chains(n, cfg.h, limits) for n in range(cfg.n_max + 1)]
    if "formula" in routes:
        columns["formula"] = chain_column_via_shapes(cfg.n_max, cfg.h, limits)
    if "series" in routes:
        from . import genseries

        build = genseries.sc2_series if cfg.h == 2 else genseries.sc3_series
        columns["series"] = genseries.integer_coefficients(build(cfg.n_max))
    if "closedform" in routes:
        fn = indices.sc2_closed if cfg.h == 2 else indices.sc3_closed
        columns["closedform"] = [fn(n) for n in range(cfg.n_max + 1)]

    enabled = [r for r in ROUTE_NAMES if r in columns]
    print(f"verify h={cfg.h} routes={','.join(enabled)}")
    mismatches = 0
    for n in range(cfg.n_max + 1):
        row = {r: columns[r][n] for r in enabled}
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
    if cfg.fmt == "csv":
        print("lower,upper,tableaux")
        for s in shapes:
            print(f"{s.lower},{s.upper},{s.tableau_count(cfg.limits)}")
    else:
        for s in shapes:
            print(f"{s.lower} {s.upper} t={s.tableau_count(cfg.limits)}")
    return 0


def cmd_chains(args, cfg: RunConfig) -> int:
    path = DyckPath(args.path)
    print(chain_count_via_shapes(path, cfg.h, cfg.limits))
    return 0


def cmd_lattice(args, cfg: RunConfig) -> int:
    diagram = HasseDiagram.build(args.n, cfg.limits)
    export = diagram.to_dot if cfg.fmt == "dot" else diagram.to_edge_list
    export(sys.stdout)
    print()  # the line end that print(export()) added
    return 0


def _index_rows(cfg: RunConfig):
    # The cheapest exact count: the closed forms at h = 2 and 3, bounded by
    # max_closed_n; otherwise one formula column, or brute force where the
    # chain length or its shapes are over the formula's caps.  Both of those
    # visit semilengths up to n-max, so max_lattice_n bounds them first.
    limits = cfg.limits
    ns = range(cfg.n_max + 1)
    if cfg.h in (2, 3):
        limits.check("max_closed_n", cfg.n_max, "n-max")
        counts = (indices.dyck_chain_count_closed(n, cfg.h) for n in ns)
    else:
        limits.check("max_lattice_n", cfg.n_max, "n-max")
        if cfg.h <= min(limits.max_formula_h, limits.max_shape_area):
            counts = chain_column_via_shapes(cfg.n_max, cfg.h, limits)
        else:
            counts = (count_saturated_chains(n, cfg.h, limits) for n in ns)
    for n, count in zip(ns, counts):
        size = indices.catalan(n)
        index = indices.hasse_index(count, size)
        target = Fraction(n**cfg.h, 2**cfg.h)
        ratio = str(index / target) if n > 0 else "-"
        yield n, count, size, index, target, ratio


def cmd_index(args, cfg: RunConfig) -> int:
    rows = _index_rows(cfg)
    if cfg.fmt == "csv":
        print("n,chains,elements,index,index_decimal,boolean_target,ratio")
        for n, count, size, index, target, ratio in rows:
            print(f"{n},{count},{size},{index},{float(index):.6f},{target},{ratio}")
    else:
        for n, count, size, index, target, ratio in rows:
            print(
                f"n={n} chains={count} elements={size} index={index} "
                f"decimal={float(index):.6f} target={target} ratio={ratio}"
            )
    return 0


def _series_by_name(name: str, order: int):
    from . import genseries

    if name == "SC2":
        return genseries.sc2_series(order)
    if name == "SC3":
        return genseries.sc3_series(order)
    if name == "V":
        return genseries.valley_marked_series(order)
    if name == "F2":
        return genseries.duu_marked_system(order)[0]
    if name == "F3":
        return genseries.duu_valley_marked_system(order)[0]
    if name == "A":
        return genseries.dduu_marked_series(order)
    if name == "B":
        return genseries.dudu_marked_series(order)
    return genseries.duuu_marked_series(order)


def cmd_series(args, cfg: RunConfig) -> int:
    order = cfg.order
    cfg.limits.check("max_closed_n", order, "order")
    series = _series_by_name(args.name, order)
    coeffs = series.coefficients()
    if cfg.fmt == "bfile":
        from .series import Poly

        if isinstance(coeffs[0], Poly):
            raise ValueError(f"series {args.name} has polynomial coefficients; bfile does not apply")
        if any(Fraction(c).denominator != 1 for c in coeffs):
            raise ValueError(f"series {args.name} has non-integer coefficients; bfile does not apply")
        print(render_bfile(Fraction(c).numerator for c in coeffs))
    elif cfg.fmt == "csv":
        print("n,coefficient")
        for n, c in enumerate(coeffs):
            print(f"{n},{c}")
    else:
        for n, c in enumerate(coeffs):
            print(f"{n} {c}")
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
        sub.add_argument("--max-lattice-n", dest="max_lattice_n", type=int, help=argparse.SUPPRESS)
        sub.add_argument("--max-closed-n", dest="max_closed_n", type=int, help=argparse.SUPPRESS)
        sub.add_argument("--max-formula-h", dest="max_formula_h", type=int, help=argparse.SUPPRESS)
        sub.add_argument("--max-shape-area", dest="max_shape_area", type=int, help=argparse.SUPPRESS)

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
