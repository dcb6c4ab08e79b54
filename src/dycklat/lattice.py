"""Hasse diagrams of Dyck lattices and exhaustive saturated-chain counting.

The whole-lattice routes here run on paths.walk, which visits the words of a
semilength in canonical order with their valleys, and finds the rank of each
cover by paths.cover_drops arithmetic.  Only HasseDiagram keeps the words
and their cover lists, because its exports print them; the counts keep one
number per word.
"""

from __future__ import annotations

from collections.abc import Iterator
from io import TextIOBase
from itertools import islice
from math import comb

from .limits import Limits
from .paths import DyckPath, cover_drops, covers, walk


class HasseDiagram:
    """Covering digraph of the Dyck lattice of a fixed semilength.

    words holds every path in canonical order; up[i] lists the indices of
    the words covering words[i] (one valley flipped to a peak), in valley
    order, found by rank arithmetic rather than by looking the words up.
    """

    __slots__ = ("n", "words", "up")

    def __init__(self, n: int, words: list[str], up: list[list[int]]):
        self.n = n
        self.words = words
        self.up = up

    @classmethod
    def build(cls, n: int, limits: Limits = Limits()) -> HasseDiagram:
        _check_semilength(n, limits)
        drops = cover_drops(n)
        words: list[str] = []
        up: list[list[int]] = []
        for r, (steps, valleys) in enumerate(walk(n)):
            words.append(steps.decode())
            up.append([r - drops[i][y] for i, y in valleys])
        return cls(n, words, up)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Cover pairs (covered, covering), grouped by the covered index."""
        for i, targets in enumerate(self.up):
            for j in targets:
                yield i, j

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
        for i, w in enumerate(self.words):
            yield f'  {i} [label="{w}"];\n'
        for i, j in self.edges():
            yield f"  {i} -> {j};\n"
        yield "}\n"

    def _edge_list_lines(self) -> Iterator[str]:
        yield f"# n={self.n} nodes={len(self.words)}"
        for i, j in self.edges():
            yield f"\n{i} {j}"


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
    length 0 is a single path.  Round k walks the words again and lists, by
    rank, the chains of length k upward from each word: the sum over its
    valleys of the previous round's count at the cover's rank, which
    paths.cover_drops gives by arithmetic.  Two such lists are all it holds
    whatever h is, with no words, word index or adjacency, and the work is
    h times the edge count.
    """
    if h < 0:
        raise ValueError("chain length must be nonnegative")
    _check_semilength(n, limits)
    if h == 0:
        return comb(2 * n, n) // (n + 1)
    drops = cover_drops(n)
    counts = [len(valleys) for _, valleys in walk(n)]  # one chain of length 1 per valley
    for _ in range(h - 1):
        fresh = []
        r = 0
        for _, valleys in walk(n):
            total = 0
            for i, y in valleys:
                total += counts[r - drops[i][y]]
            fresh.append(total)
            r += 1
        counts = fresh
        if not any(counts):
            break
    return sum(counts)


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
    _check_semilength(n, limits)
    return sum(len(valleys) for _, valleys in walk(n))


def valley_abscissae_sum(n: int, limits: Limits = Limits()) -> int:
    """Sum of valley x-coordinates over all paths of semilength n."""
    _check_semilength(n, limits)
    total = 0
    for _, valleys in walk(n):
        # a valley whose d is at position i has its bottom at abscissa i + 1
        for i, _y in valleys:
            total += i + 1
    return total


def _check_semilength(n: int, limits: Limits) -> None:
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    limits.check("max_lattice_n", n, "semilength")
