"""Independent reference implementations used as oracles by the tests.

Nothing here imports the package under test; the point is that agreement
between these and the library is evidence, not tautology.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb


@lru_cache(maxsize=None)
def dyck_words(n):
    """All Dyck words of semilength n via first-return decomposition."""
    if n == 0:
        return ("",)
    out = []
    for k in range(n):
        for left in dyck_words(k):
            for right in dyck_words(n - 1 - k):
                out.append("u" + left + "d" + right)
    return tuple(out)


def count_occurrences(word, factor):
    return sum(word.startswith(factor, i) for i in range(len(word)))


def _intervals_disjoint(a, b):
    return a[1] <= b[0] or b[1] <= a[0]


def count_disjoint_placements(word, factors):
    """Count unordered sets of pairwise disjoint factor occurrences in word.

    factors is a multiset of subwords; a placement gives each of them a start
    position so that the occupied index intervals are pairwise disjoint
    (touching endpoints are fine).  Placements differing only by swapping
    positions between equal factors are counted once.
    """
    groups = [
        ([(i, i + len(f)) for i in range(len(word)) if word.startswith(f, i)], mult)
        for f, mult in sorted(Counter(factors).items())
    ]

    def rec(group_index, taken):
        if group_index == len(groups):
            return 1
        intervals, mult = groups[group_index]
        total = 0
        for combo in combinations(intervals, mult):
            placed = taken + combo
            if all(_intervals_disjoint(a, b) for a, b in combinations(placed, 2)):
                total += rec(group_index + 1, placed)
        return total

    return rec(0, ())


def profile(word):
    heights = [0]
    for step in word:
        heights.append(heights[-1] + (1 if step == "u" else -1))
    return heights


def word_leq(low, high):
    pl, ph = profile(low), profile(high)
    return all(a <= b for a, b in zip(pl, ph))


def catalan_ref(n):
    return comb(2 * n, n) // (n + 1)


def boolean_chain_count(n, h):
    """Saturated chains of length h in the subset lattice of {1..n}, by DP.

    Chains go upward one added element at a time; masks are subsets.
    """
    size = 1 << n
    ways = [1] * size
    for _ in range(h):
        nxt = [0] * size
        for mask in range(size):
            for bit in range(n):
                if not mask & (1 << bit):
                    nxt[mask] += ways[mask | (1 << bit)]
        ways = nxt
    return sum(ways)


def shape_cells(lower, upper):
    """Cells of the region between two profiles, as (abscissa, level) pairs."""
    pl, pu = profile(lower), profile(upper)
    cells = []
    for x in range(1, len(lower)):
        for level in range(pl[x] + 1, pu[x], 2):
            cells.append((x, level))
    return cells


def tableau_count_by_linear_extensions(lower, upper):
    """Fillings of the shape, counted as linear extensions of its cell poset.

    A cell can only be added once the two cells diagonally below it (when
    they belong to the region) are already present.
    """
    cells = frozenset(shape_cells(lower, upper))
    predecessors = {
        c: {p for p in ((c[0] - 1, c[1] - 1), (c[0] + 1, c[1] - 1)) if p in cells}
        for c in cells
    }

    @lru_cache(maxsize=None)
    def extensions(done):
        if done == cells:
            return 1
        total = 0
        for c in cells - done:
            if predecessors[c] <= done:
                total += extensions(done | {c})
        return total

    result = extensions(frozenset())
    extensions.cache_clear()
    return result
