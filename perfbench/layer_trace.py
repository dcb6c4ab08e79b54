"""Run one dycklat CLI command with every layer's public functions wrapped.

Usage: python perfbench/layer_trace.py REPORT.json <dycklat arguments...>

The command runs through ``dycklat.cli.main`` exactly as ``python -m dycklat``
would run it, so stdout is byte-identical to an untraced run.  The wrappers
live here, outside ``src/``: each one is installed on the defining module or
class and rebound in every ``dycklat`` module that imported the function by
name, since a call through a stale name would bypass it.  Spans and counters
stay in memory and are written to REPORT.json when the command ends.

Four kinds of wrapper, chosen by call volume:

* ``SPAN``: a few calls per command; records a span (name, start, end,
  parent span) and the ``ru_maxrss`` growth across the layer's outermost call.
* ``NODE``: up to ~10^5 calls; aggregated call count and inclusive time.
* ``LEAF``: ~10^6 calls that never reach another wrapper; aggregated count
  and time with the least bookkeeping.
* ``WORDS``: a generator, so only the yielded items are counted.  Timing a
  generator would charge its consumer's work to it.

Every timed wrapper also charges its self time (its duration minus the time
of wrapped calls inside it) to its layer, so layer self times partition the
traced part of the command.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
from collections import defaultdict
from time import perf_counter

SPAN, NODE, LEAF, WORDS = "span", "node", "leaf", "words"

# (module, attribute, metric, kind); the layer is the metric's prefix.
PLAN = (
    ("paths", "iter_words", "paths.words", WORDS),
    ("lattice", "count_saturated_chains", "lattice.propagate", SPAN),
    ("lattice", "HasseDiagram.build", "lattice.build", SPAN),
    ("lattice", "HasseDiagram.to_dot", "lattice.export", SPAN),
    ("lattice", "HasseDiagram.to_edge_list", "lattice.export", SPAN),
    ("lattice", "total_valleys", "lattice.scan", SPAN),
    ("lattice", "valley_abscissae_sum", "lattice.scan", SPAN),
    ("shapes", "SkewShape.tableau_count", "shapes.tableau", LEAF),
    ("shapes", "enumerate_shapes", "shapes.enumerate", SPAN),
    ("shapes", "shapes_with_border", "shapes.enumerate", SPAN),
    ("formula", "total_chains_via_shapes", "formula.total", SPAN),
    ("formula", "chain_count_via_shapes", "formula.paths_scanned", NODE),
    ("series", "Poly.__mul__", "series.poly_mul", LEAF),
    ("series", "TruncatedSeries.__mul__", "series.mul", NODE),
    ("series", "TruncatedSeries.__truediv__", "series.div", NODE),
    ("series", "TruncatedSeries.sqrt", "series.sqrt", SPAN),
    ("series", "solve_polynomial", "series.newton", SPAN),
    ("genseries", "duu_valley_marked_system", "genseries.system3", SPAN),
    ("genseries", "duu_marked_system", "genseries.system2", SPAN),
    ("genseries", "factor_count_series", "genseries.factor", SPAN),
    ("genseries", "dduu_marked_series", "genseries.factor", SPAN),
    ("genseries", "dudu_marked_series", "genseries.factor", SPAN),
    ("genseries", "duuu_marked_series", "genseries.factor", SPAN),
    ("genseries", "valley_marked_series", "genseries.valley", SPAN),
    ("genseries", "ordered_valley_pairs_series", "genseries.valley", SPAN),
    ("genseries", "ordered_valley_triples_series", "genseries.valley", SPAN),
    ("genseries", "catalan_series", "genseries.closed", SPAN),
    ("genseries", "duu_marked_closed_form", "genseries.closed", SPAN),
    ("genseries", "sc2_series_closed_form", "genseries.closed", SPAN),
    ("genseries", "sc3_series_closed_form", "genseries.closed", SPAN),
    ("genseries", "disjoint_valley_duu_series", "genseries.assembly", SPAN),
    ("genseries", "sc2_series_from_derivatives", "genseries.assembly", SPAN),
    ("genseries", "sc3_series_from_derivatives", "genseries.assembly", SPAN),
    ("genseries", "sc2_series", "genseries.assembly", SPAN),
    ("genseries", "sc3_series", "genseries.assembly", SPAN),
    ("genseries", "integer_coefficients", "genseries.assembly", SPAN),
    ("indices", "catalan", "indices.busy", NODE),
    ("indices", "sc2_closed", "indices.busy", NODE),
    ("indices", "sc3_closed", "indices.busy", NODE),
    ("indices", "dyck_chain_count_closed", "indices.busy", NODE),
    ("indices", "hasse_index", "indices.busy", NODE),
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans and counters of one command, filled by the installed wrappers."""

    def __init__(self):
        self.calls = defaultdict(int)  # metric -> calls (items for WORDS)
        self.seconds = defaultdict(float)  # metric -> inclusive time, outermost calls
        self.self_s = defaultdict(float)  # layer -> time outside nested wrapped calls
        self.rss_growth_kb = defaultdict(int)  # layer -> ru_maxrss growth, outermost spans
        self.spans = []  # [metric, function, start, end, parent span index]
        self.top_s = 0.0  # time inside any outermost wrapped call
        self._children = []  # child-time accumulator of each open timed call
        self._open_spans = []
        self._depth = defaultdict(int)  # metric or layer -> open calls
        self._origin = perf_counter()

    def wrap(self, func, metric: str, kind: str, label: str):
        layer = metric.split(".", 1)[0]
        if kind == WORDS:
            return self._count_items(func, metric)
        if kind == LEAF:
            return self._leaf(func, metric, layer)
        return self._node(func, metric, layer, label, kind == SPAN)

    def _count_items(self, func, metric):
        calls = self.calls

        def wrapper(*args, **kwargs):
            for item in func(*args, **kwargs):
                calls[metric] += 1
                yield item

        return wrapper

    def _leaf(self, func, metric, layer):
        calls, seconds, self_s, children = self.calls, self.seconds, self.self_s, self._children

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                calls[metric] += 1
                seconds[metric] += elapsed
                self_s[layer] += elapsed
                if children:
                    children[-1] += elapsed
                else:
                    self.top_s += elapsed

        return wrapper

    def _node(self, func, metric, layer, label, span):
        calls, seconds, self_s, children = self.calls, self.seconds, self.self_s, self._children
        depth, open_spans, spans = self._depth, self._open_spans, self.spans

        def wrapper(*args, **kwargs):
            outer_metric = depth[metric] == 0
            outer_layer = depth[layer] == 0
            depth[metric] += 1
            depth[layer] += 1
            if span:
                rss_before = _maxrss_kb() if outer_layer else 0
                parent = open_spans[-1] if open_spans else None
                open_spans.append(len(spans))
                spans.append(None)
            children.append(0.0)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                self_s[layer] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                else:
                    self.top_s += elapsed
                depth[metric] -= 1
                depth[layer] -= 1
                calls[metric] += 1
                if outer_metric:
                    seconds[metric] += elapsed
                if span:
                    if outer_layer:
                        self.rss_growth_kb[layer] += _maxrss_kb() - rss_before
                    origin = self._origin
                    spans[open_spans.pop()] = [metric, label, start - origin, end - origin, parent]

        return wrapper

    def install(self) -> None:
        """Wrap every PLAN entry and rebind the names other modules imported."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "dycklat"]
        for module_name, attribute, metric, kind in PLAN:
            module = importlib.import_module(f"dycklat.{module_name}")
            owner_name, _, name = attribute.rpartition(".")
            if owner_name:
                self._wrap_method(getattr(module, owner_name), name, metric, kind, attribute)
                continue
            original = getattr(module, name)
            wrapped = self.wrap(original, metric, kind, attribute)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)

    def _wrap_method(self, cls, name, metric, kind, label) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(self.wrap(raw.__func__, metric, kind, label)))
            return
        wrapped = self.wrap(raw, metric, kind, label)
        # Aliases such as ``__rmul__ = __mul__`` share the function object.
        for key, value in list(vars(cls).items()):
            if value is raw:
                setattr(cls, key, wrapped)


def lru_caches(module) -> dict:
    """The module's public lru-cached functions, by name."""
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_") and callable(getattr(value, "cache_info", None))
    }


def main(argv: list[str]) -> int:
    report_path, cli_argv = argv[0], argv[1:]
    import dycklat.cli
    import dycklat.genseries

    caches = lru_caches(dycklat.genseries)  # before the wrappers replace them
    tracer = Tracer()
    tracer.install()
    start = perf_counter()
    try:
        code = dycklat.cli.main(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    main_s = perf_counter() - start
    sys.stdout.flush()
    infos = [cache.cache_info() for cache in caches.values()]
    report = {
        "main_s": main_s,
        "top_s": tracer.top_s,
        "calls": tracer.calls,
        "seconds": tracer.seconds,
        "self_s": tracer.self_s,
        "rss_growth_kb": tracer.rss_growth_kb,
        "cache_hits": sum(info.hits for info in infos),
        "cache_misses": sum(info.misses for info in infos),
        "spans": tracer.spans,
    }
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
