"""Saturated-chain counting through border placements of skew shapes.

A saturated chain of length h starting at a path amounts to choosing a set
of pairwise disjoint skew shapes planted on factors of the path, with areas
a_1, ..., a_r summing to h, together with an interleaving of their
fillings.  A placement set counts h!/(a_1! ... a_r!) interleavings times
the tableau counts of its shapes.

Read left to right, a (path, placement set) pair is a sequence of moves:
free u or d steps, and whole border words, each standing for every shape
with that border and area.  One DP over (position, height, area used)
counts these sequences.  The interleaving count needs no area multiset in
the state, because with running sums s_j = a_1 + ... + a_j it factors as
C(s_1, a_1) C(s_2, a_2) ... C(s_r, a_r), a product over the borders in
path order.  So a border of area a laid down when k cells are used
multiplies by C(k + a, a) and by its summed tableau count.

The two public counts differ only in the moves the DP may take at each
position: a whole lattice may take every move anywhere, subject to the
height checks; a single path may take only the moves whose words occur in
it at that position, and there the height checks always hold.
"""

from __future__ import annotations

from math import comb

from .limits import Limits
from .paths import DyckPath, occurrences, profile
from .shapes import _border_index

# A move is (length, net height, depth, area, weight); depth is minus the
# lowest height its word reaches from its start.
Move = tuple[int, int, int, int, int]


def _moves(h: int, limits: Limits) -> list[tuple[str, Move]]:
    # Free steps have area 0 and weight 1.  Shapes sharing a border and area
    # are alternatives for the same slot, so their tableau counts add up.
    words = [("u", 0, 1), ("d", 0, 1)]
    for area in range(1, h + 1):
        limits.check("max_shape_area", area, "area")
        words += [
            (border, area, sum(shape.tableau_count(limits) for shape in shapes))
            for border, shapes in _border_index(area).items()
        ]
    moves = []
    for word, area, weight in words:
        heights = profile(word)
        moves.append((word, (len(word), heights[-1], -min(heights), area, weight)))
    return moves


def _placements(length: int, h: int, moves_at: list[list[Move]]) -> int:
    # layers[pos][y, k]: weighted (prefix, placement set) pairs of length pos
    # that end at height y with k cells used.
    layers: list[dict[tuple[int, int], int]] = [{} for _ in range(length + 1)]
    layers[0][0, 0] = 1
    for pos in range(length):
        for (y, k), v in layers[pos].items():
            for size, net, depth, area, weight in moves_at[pos]:
                end = pos + size
                if y >= depth and k + area <= h and end <= length and y + net <= length - end:
                    layer, key = layers[end], (y + net, k + area)
                    layer[key] = layer.get(key, 0) + v * weight * comb(k + area, area)
    return layers[length].get((0, h), 0)


def _check_h(h: int, limits: Limits) -> None:
    if h < 0:
        raise ValueError("chain length must be nonnegative")
    limits.check("max_formula_h", h, "chain length")


def chain_count_via_shapes(
    path: DyckPath | str, h: int, limits: Limits = Limits()
) -> int:
    """Saturated chains of length h starting at path, by the placement formula."""
    _check_h(h, limits)
    word = (path if isinstance(path, DyckPath) else DyckPath(path)).word
    moves_at: list[list[Move]] = [[] for _ in word]
    for move_word, move in _moves(h, limits):
        for pos in occurrences(word, move_word):
            moves_at[pos].append(move)
    return _placements(len(word), h, moves_at)


def total_chains_via_shapes(n: int, h: int, limits: Limits = Limits()) -> int:
    """Saturated chains of length h in the whole lattice, by the placement formula."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    limits.check("max_lattice_n", n, "semilength")
    _check_h(h, limits)
    moves = [move for _, move in _moves(h, limits)]
    return _placements(2 * n, h, [moves] * (2 * n))
