"""Saturated-chain counting through border placements of skew shapes.

A saturated chain of length h starting at a path amounts to choosing a set
of pairwise disjoint skew shapes planted on factors of the path, with areas
summing to h, together with an interleaving of their individual fillings.
Summing over the partitions of h, each placement set contributes the
multinomial coefficient of its area multiset times the product of the
tableau counts of its shapes.

The weighted placement sets of every partition come from one right-to-left
sweep over the placement options of the path, sorted by start position.
For each option and each multiset m of areas summing to at most h, it keeps
the weighted number of disjoint sets with area multiset m among that option
and the ones after it: either the option is skipped, or it is taken and the
rest of m is placed on the options that start at or after its end.

The whole-lattice total is a weighted count of (path, placement set) pairs,
so it needs no path enumeration.  Read left to right, such a pair is a
sequence of free u or d steps and whole border words, with every height
nonnegative and a return to height 0 at position 2n.  One DP over
(position, height, area used) counts these sequences.  The multinomial
needs no multiset in the state, because it factors as a product of
binomials over the parts in path order: with running sums s_k of the areas
a_k, multinomial(h; a_1, ..., a_r) = C(s_1, a_1) C(s_2, a_2) ... C(s_r, a_r).
So a border of area a laid down when k cells are used multiplies by
C(k + a, a) and by its summed tableau count.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from math import comb, factorial

from .limits import Limits
from .paths import DyckPath, occurrences
from .shapes import _border_index


def partitions(h: int) -> list[tuple[int, ...]]:
    """All partitions of h as weakly decreasing tuples, largest part first."""
    if h < 0:
        raise ValueError("cannot partition a negative integer")
    result: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            result.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(h, h, ())
    return result


def multinomial(total: int, parts: tuple[int, ...]) -> int:
    if sum(parts) != total:
        raise ValueError("parts must sum to the total")
    value = factorial(total)
    for part in parts:
        value //= factorial(part)
    return value


def _border_weights(area: int, limits: Limits) -> list[tuple[str, int]]:
    # One (border, weight) pair per border of the area; shapes sharing a
    # border and area are alternatives for the same slot, so their tableau
    # counts add up.
    limits.check("max_shape_area", area, "area")
    return [
        (border, sum(shape.tableau_count(limits) for shape in shapes))
        for border, shapes in _border_index(area).items()
    ]


def _area_options(word: str, area: int, limits: Limits) -> list[tuple[int, int, int, int]]:
    # One option (start, end, area, weight) per (position, border).
    return [
        (pos, pos + len(border), area, weight)
        for border, weight in _border_weights(area, limits)
        for pos in occurrences(word, border)
    ]


def partition_contributions(
    path: DyckPath | str, h: int, limits: Limits = Limits()
) -> dict[tuple[int, ...], int]:
    """Chain count split by the partition of h into placement areas."""
    if h < 0:
        raise ValueError("chain length must be nonnegative")
    limits.check("max_formula_h", h, "chain length")
    word = (path if isinstance(path, DyckPath) else DyckPath(path)).word
    options = sorted(
        option for area in range(1, h + 1) for option in _area_options(word, area, limits)
    )
    starts = [start for start, _, _, _ in options]
    multisets = [m for k in range(h + 1) for m in partitions(k)]
    # m - a for every multiset m and part a of m, keeping the decreasing order.
    minus = {(m, a): m[: m.index(a)] + m[m.index(a) + 1 :] for m in multisets for a in m}
    # ways[i][m]: weighted disjoint placement sets with area multiset m
    # drawn from options i onwards.
    ways = [None] * len(options) + [{m: int(not m) for m in multisets}]
    for i in reversed(range(len(options))):
        _, end, area, weight = options[i]
        skip, take = ways[i + 1], ways[bisect_left(starts, end)]
        ways[i] = {
            m: skip[m] + (weight * take[minus[m, area]] if area in m else 0)
            for m in multisets
        }
    return {parts: multinomial(h, parts) * ways[0][parts] for parts in partitions(h)}


def chain_count_via_shapes(
    path: DyckPath | str, h: int, limits: Limits = Limits()
) -> int:
    """Saturated chains of length h starting at path, by the placement formula."""
    return sum(partition_contributions(path, h, limits).values())


def total_chains_via_shapes(n: int, h: int, limits: Limits = Limits()) -> int:
    """Saturated chains of length h in the whole lattice, by the placement formula."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    limits.check("max_lattice_n", n, "semilength")
    if h < 0:
        raise ValueError("chain length must be nonnegative")
    limits.check("max_formula_h", h, "chain length")
    # Free u and d steps are words of area 0 and weight 1 beside the borders.
    words = [("u", 0, 1), ("d", 0, 1)]
    for area in range(1, h + 1):
        words += [(border, area, weight) for border, weight in _border_weights(area, limits)]
    # One move (length, net height, depth, area, weight) per word; depth is
    # minus the lowest height the word reaches from its start.
    moves = []
    for word, area, weight in words:
        heights = list(accumulate((1 if step == "u" else -1 for step in word), initial=0))
        moves.append((len(word), heights[-1], -min(heights), area, weight))
    length = 2 * n
    # layers[pos][y, k]: weighted (prefix, placement set) pairs of length pos
    # that end at height y with k cells used.
    layers: list[dict[tuple[int, int], int]] = [{} for _ in range(length + 1)]
    layers[0][0, 0] = 1
    for pos in range(length):
        for (y, k), v in layers[pos].items():
            for size, net, depth, area, weight in moves:
                end = pos + size
                if y >= depth and k + area <= h and end <= length and y + net <= length - end:
                    layer, key = layers[end], (y + net, k + area)
                    layer[key] = layer.get(key, 0) + v * weight * comb(k + area, area)
    return layers[length].get((0, h), 0)
