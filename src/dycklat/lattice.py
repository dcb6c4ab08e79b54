"""Hasse diagrams of Dyck lattices and exhaustive saturated-chain counting.

Everything here runs on paths.walk, which visits the words of a semilength
in canonical order with their valleys and the cover drop of each: the word
of rank r is covered by the words of ranks r - d.  Nothing keeps the words
or their covers.  HasseDiagram writes its exports line by line from the
walk, and the chain counts keep at most two counts per word, each in a
buffer as narrow as the bound (n - 1)^k on round k's counts allows, and
fill several rounds in one walk.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, MutableSequence, Sequence
from io import TextIOBase
from itertools import islice
from math import comb

from .limits import Limits
from .paths import DyckPath, covers, walk


class HasseDiagram:
    """Exporter of the covering digraph of the Dyck lattice of a fixed semilength.

    It keeps only n.  Node r is the word of rank r in canonical order, and
    its edges r -> r - d, one per valley in valley order, go to the words
    covering it (that valley flipped to a peak).  Each export walks the
    lattice anew, so its memory does not grow with the words or the edges.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    @classmethod
    def build(cls, n: int, limits: Limits = Limits()) -> HasseDiagram:
        limits.check("max_lattice_n", n, "semilength")
        return cls(n)

    def to_dot(self, out: TextIOBase | None = None) -> str | None:
        """The DOT text, ending in a newline.

        Given a text stream out, writes the same text there instead, as its
        lines are produced, and returns None.
        """
        return _export(self._dot_lines(), out)

    def to_edge_list(self, out: TextIOBase | None = None) -> str | None:
        """The edge-list text: a header, then one "i j" line per edge.

        The text has no final newline.  Given a text stream out, writes the
        same text there instead, as its lines are produced, and returns None.
        """
        return _export(self._edge_list_lines(), out)

    def _dot_lines(self) -> Iterator[str]:
        yield f"digraph dyck_lattice_{self.n} {{\n"
        yield "  rankdir=BT;\n"
        for r, (steps, _, _) in enumerate(walk(self.n)):
            yield f'  {r} [label="{steps.decode()}"];\n'
        for r, (_, _, drops) in enumerate(walk(self.n)):
            for d in drops:
                yield f"  {r} -> {r - d};\n"
        yield "}\n"

    def _edge_list_lines(self) -> Iterator[str]:
        n = self.n
        yield f"# n={n} nodes={comb(2 * n, n) // (n + 1)}"
        for r, (_, _, drops) in enumerate(walk(n)):
            for d in drops:
                yield f"\n{r} {r - d}"


def _export(pieces: Iterator[str], out: TextIOBase | None) -> str | None:
    """Join the pieces, or write them to out a few thousand at a time."""
    if out is None:
        return "".join(pieces)
    while chunk := "".join(islice(pieces, 4096)):
        out.write(chunk)
    return None


def count_saturated_chains(n: int, h: int, limits: Limits = Limits()) -> int:
    """Number of saturated chains of length h in the Dyck lattice of semilength n.

    Chains are strictly increasing sequences of h covering steps; a chain of
    length 0 is a single path.  Round k lists, by rank, the chains of length
    k upward from each word: the sum over its covers, at ranks r - d for the
    drops d that paths.walk carries, of round k - 1's count.  A cover ranks
    earlier than the word it covers, so one walk can fill round k + 1 from
    the round-k entries it filled before.  The first walk fills rounds 1 (the
    valley counts) and 2, each later walk fills one more round from the last
    one stored, and the final walk also sums the last round without storing
    it: one walk for h <= 3 and h - 2 for larger h.  Two such buffers are
    all it holds whatever h is, with no words, word index or adjacency.  A
    word has at most n - 1 valleys, so round k's counts are at most
    (n - 1)^k, and its buffer stores them in one, two, four or eight bytes
    each as that bound allows, or as a list past 64 bits.
    """
    if h < 0:
        raise ValueError("chain length must be nonnegative")
    limits.check("max_lattice_n", n, "semilength")
    words = comb(2 * n, n) // (n + 1)
    if h == 0:
        return words
    if h > n * (n - 1) // 2:  # the lattice's height: no chain is longer
        return 0
    if h <= 3:
        return _chains_in_one_walk(n, h, words)
    counts = _rounds_one_and_two(n, words)
    for k in range(3, h - 1):
        counts = _next_round(n, counts, k)
    return _last_two_rounds(n, counts, h - 1)


# Each helper below is one walk.  A buffer lives only in the calls that fill or
# read it, so at most two are alive at once, each sized by the bound (n - 1)^k
# on its round's counts.  A store past a buffer's width raises instead of
# wrapping.  Buffers are made at their full length, one entry per word:
# growing one by append can copy it as it grows and leaves part of it unused.


def _round_buffer(n: int, k: int, words: int) -> MutableSequence[int]:
    """Round k's zeroed buffer, one entry per rank, in the narrowest storage for (n - 1)^k."""
    bound = (n - 1) ** k
    if bound < 1 << 8:
        return bytearray(words)
    for code in "HIQ":
        if bound < 1 << 8 * array(code).itemsize:
            return array(code, [0]) * words  # repeats the zero, with no bytes copy
    return [0] * words


def _chains_in_one_walk(n: int, h: int, words: int) -> int:
    """Chains of length h = 1, 2 or 3, summed in one walk."""
    if h == 1:
        return sum(len(drops) for _, _, drops in walk(n))
    ones = _round_buffer(n, 1, words)  # round 1: the valley counts
    total = 0
    if h == 2:
        for r, (_, _, drops) in enumerate(walk(n)):
            for d in drops:
                total += ones[r - d]
            ones[r] = len(drops)
        return total
    twos = _round_buffer(n, 2, words)
    for r, (_, _, drops) in enumerate(walk(n)):
        two = three = 0
        for d in drops:
            j = r - d
            two += ones[j]
            three += twos[j]
        ones[r] = len(drops)
        twos[r] = two
        total += three
    return total


def _rounds_one_and_two(n: int, words: int) -> MutableSequence[int]:
    """Round 2 by rank, filled from round 1 in the same walk."""
    ones = _round_buffer(n, 1, words)
    twos = _round_buffer(n, 2, words)
    for r, (_, _, drops) in enumerate(walk(n)):
        two = 0
        for d in drops:
            two += ones[r - d]
        ones[r] = len(drops)
        twos[r] = two
    return twos


def _next_round(n: int, counts: Sequence[int], k: int) -> MutableSequence[int]:
    """Round k by rank, from round k - 1 in counts."""
    fresh = _round_buffer(n, k, len(counts))
    for r, (_, _, drops) in enumerate(walk(n)):
        count = 0
        for d in drops:
            count += counts[r - d]
        fresh[r] = count
    return fresh


def _last_two_rounds(n: int, counts: Sequence[int], k: int) -> int:
    """The sum of round k + 1, filling round k from round k - 1 in counts as it goes."""
    fresh = _round_buffer(n, k, len(counts))
    total = 0
    for r, (_, _, drops) in enumerate(walk(n)):
        count = last = 0
        for d in drops:
            j = r - d
            count += counts[j]
            last += fresh[j]
        fresh[r] = count
        total += last
    return total


def count_chains_from(path: DyckPath, h: int) -> int:
    """Saturated chains of length exactly h whose minimum is the given path."""
    if h < 0:
        raise ValueError("chain length must be nonnegative")
    memo: dict[tuple[str, int], int] = {}

    def chains_from(word: str, k: int) -> int:
        if k == 0:
            return 1
        if (word, k) not in memo:
            memo[word, k] = sum(chains_from(c, k - 1) for c in covers(word))
        return memo[word, k]

    return chains_from(path.word, h)


def total_valleys(n: int, limits: Limits = Limits()) -> int:
    """Total number of valleys over all paths of semilength n (= Hasse edge count)."""
    limits.check("max_lattice_n", n, "semilength")
    return sum(len(valleys) for _, valleys, _ in walk(n))


def valley_abscissae_sum(n: int, limits: Limits = Limits()) -> int:
    """Sum of valley x-coordinates over all paths of semilength n.

    Every word after the first brings one new valley, valleys[-1], which the
    walk keeps for the words that share the prefix through its u.  Those are
    as many as its drop (see paths.cover_drops), so each valley is counted
    once, times its drop, where it appears.
    """
    limits.check("max_lattice_n", n, "semilength")
    total = 0
    for _, valleys, drops in islice(walk(n), 1, None):
        # a valley whose d is at position i has its bottom at abscissa i + 1
        total += (valleys[-1][0] + 1) * drops[-1]
    return total
