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

The public counts differ only in the moves the DP may take at each
position: a whole lattice may take every move anywhere, subject to the
height checks; a single path may take only the moves whose words occur in
it at that position, and there the height checks always hold.

A lattice DP of length 2N gives the whole column n = 0..N at once.  Its
states at the even position 2m with height 0 and all h cells used are
exactly the (path, placement set) pairs of semilength m, because every
move stays at or above height 0.  The DP drops states that cannot return
to height 0 by position 2N, and that pruning is weaker than the one for
length 2m, so it keeps every state a shorter count needs.
"""

from __future__ import annotations

from math import comb

from .limits import Limits
from .paths import check_word, occurrences, profile
from .shapes import enumerate_shapes

# A move is (length, net height, depth, area, weight); depth is minus the
# lowest height its word reaches from its start.
Move = tuple[int, int, int, int, int]


def _moves(h: int, limits: Limits) -> list[tuple[str, Move]]:
    # Free steps have area 0 and weight 1.  Shapes sharing a border and area
    # are alternatives for the same slot, so their tableau counts add up.
    if h < 0:
        raise ValueError("chain length must be nonnegative")
    words = [("u", 0, 1), ("d", 0, 1)]
    for area in range(1, h + 1):
        weights: dict[str, int] = {}
        for shape in enumerate_shapes(area, limits):
            weights[shape.lower] = weights.get(shape.lower, 0) + shape.tableau_count(limits)
        words += [(border, area, weight) for border, weight in weights.items()]
    moves = []
    for word, area, weight in words:
        heights = profile(word)
        moves.append((word, (len(word), heights[-1], -min(heights), area, weight)))
    return moves


def _placements(length: int, h: int, moves_at: list[list[Move]]) -> list[int]:
    # layers[pos][y, k]: weighted (prefix, placement set) pairs of length pos
    # that end at height y with k cells used.  Every move into a layer starts
    # at an earlier position, so a layer is complete when the loop reaches
    # it: its count at height 0 with all h cells used is read, and it is dropped.
    layers: list[dict[tuple[int, int], int]] = [{} for _ in range(length + 1)]
    layers[0][0, 0] = 1
    returns = []
    for pos in range(length):
        here, layers[pos] = layers[pos], {}
        returns.append(here.get((0, h), 0))
        for (y, k), v in here.items():
            for size, net, depth, area, weight in moves_at[pos]:
                end = pos + size
                if y >= depth and k + area <= h and end <= length and y + net <= length - end:
                    layer, key = layers[end], (y + net, k + area)
                    layer[key] = layer.get(key, 0) + v * weight * comb(k + area, area)
    returns.append(layers[length].get((0, h), 0))
    return returns


def chain_count_via_shapes(word: str, h: int, limits: Limits = Limits()) -> int:
    """Saturated chains of length h starting at the path word, by the placement formula."""
    check_word(word)
    moves = _moves(h, limits)
    moves_at: list[list[Move]] = [[] for _ in word]
    for move_word, move in moves:
        for pos in occurrences(word, move_word):
            moves_at[pos].append(move)
    return _placements(len(word), h, moves_at)[-1]


def chain_column_via_shapes(n_max: int, h: int, limits: Limits = Limits()) -> list[int]:
    """Saturated chains of length h in the lattices of semilength 0..n_max.

    One lattice DP of length 2 * n_max; entry n is its count at position
    2n with height 0.  It checks n_max against max_closed_n with
    limits.check, then that h is nonnegative, then each shape area 1 .. h
    against max_shape_area.
    """
    limits.check("max_closed_n", n_max, "semilength")
    moves = [move for _, move in _moves(h, limits)]
    return _placements(2 * n_max, h, [moves] * (2 * n_max))[::2]


def total_chains_via_shapes(n: int, h: int, limits: Limits = Limits()) -> int:
    """Saturated chains of length h in the whole lattice, by the placement formula."""
    return chain_column_via_shapes(n, h, limits)[-1]
