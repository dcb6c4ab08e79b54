"""Saturated-chain counting through border placements of skew shapes.

A saturated chain of length h starting at a path amounts to choosing a set
of pairwise disjoint skew shapes planted on factors of the path, with areas
summing to h, together with an interleaving of their individual fillings.
Summing over the partitions of h, each placement set contributes the
multinomial coefficient of its area multiset times the product of the
tableau counts of its shapes.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import factorial

from .limits import Limits
from .paths import DyckPath, iter_words, occurrences
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


def _area_options(word: str, area: int, limits: Limits) -> list[tuple[int, int, int]]:
    # One option per (position, border); shapes sharing a border and area are
    # alternatives for the same slot, so their tableau counts add up.
    limits.check("max_shape_area", area, "area")
    options = []
    for border, shapes in _border_index(area).items():
        positions = occurrences(word, border)
        if not positions:
            continue
        weight = sum(shape.tableau_count(limits) for shape in shapes)
        size = len(border)
        for pos in positions:
            options.append((pos, pos + size, weight))
    options.sort()
    return options


def _weighted_placements(word: str, parts: tuple[int, ...], limits: Limits) -> int:
    """Sum over disjoint placement sets with area multiset `parts` of the
    product of tableau counts."""
    groups = []
    for area, mult in sorted(Counter(parts).items()):
        options = _area_options(word, area, limits)
        if len(options) < mult:
            return 0
        groups.append((options, mult))

    def rec(group_index: int, taken: tuple[tuple[int, int], ...]) -> int:
        if group_index == len(groups):
            return 1
        options, mult = groups[group_index]
        total = 0
        for combo in combinations(options, mult):
            ok = all(
                a[1] <= b[0] for a, b in zip(combo, combo[1:])
            ) and all(
                iv[1] <= old[0] or old[1] <= iv[0]
                for iv in combo
                for old in taken
            )
            if ok:
                weight = 1
                for _, _, w in combo:
                    weight *= w
                total += weight * rec(
                    group_index + 1, taken + tuple((a, b) for a, b, _ in combo)
                )
        return total

    return rec(0, ())


def partition_contributions(
    path: DyckPath | str, h: int, limits: Limits = Limits()
) -> dict[tuple[int, ...], int]:
    """Chain count split by the partition of h into placement areas."""
    if h < 0:
        raise ValueError("chain length must be nonnegative")
    limits.check("max_formula_h", h, "chain length")
    word = path.word if isinstance(path, DyckPath) else path
    return {
        parts: multinomial(h, parts) * _weighted_placements(word, parts, limits)
        for parts in partitions(h)
    }


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
    return sum(chain_count_via_shapes(word, h, limits) for word in iter_words(n))
