"""Hasse diagrams of Dyck lattices and exhaustive saturated-chain counting."""

from __future__ import annotations

from typing import Iterator

from .limits import Limits
from .paths import DyckPath, covers, iter_words, occurrences


class HasseDiagram:
    """Covering digraph of the Dyck lattice of a fixed semilength.

    words holds every path in canonical order; up[i] lists the indices of
    the words covering words[i] (one valley flipped to a peak), in valley
    order.
    """

    __slots__ = ("n", "words", "up")

    def __init__(self, n: int, words: list[str], up: list[list[int]]):
        self.n = n
        self.words = words
        self.up = up

    @classmethod
    def build(cls, n: int, limits: Limits = Limits()) -> HasseDiagram:
        if n < 0:
            raise ValueError("semilength must be nonnegative")
        limits.check("max_lattice_n", n, "semilength")
        words = list(iter_words(n))
        index = {w: i for i, w in enumerate(words)}
        return cls(n, words, [[index[c] for c in covers(w)] for w in words])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Cover pairs (covered, covering), grouped by the covered index."""
        for i, targets in enumerate(self.up):
            for j in targets:
                yield i, j

    def to_dot(self) -> str:
        lines = [f"digraph dyck_lattice_{self.n} {{", "  rankdir=BT;"]
        lines.extend(f'  {i} [label="{w}"];' for i, w in enumerate(self.words))
        lines.extend(f"  {i} -> {j};" for i, j in self.edges())
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_edge_list(self) -> str:
        lines = [f"# n={self.n} nodes={len(self.words)}"]
        lines.extend(f"{i} {j}" for i, j in self.edges())
        return "\n".join(lines)


def count_saturated_chains(n: int, h: int, limits: Limits = Limits()) -> int:
    """Number of saturated chains of length h in the Dyck lattice of semilength n.

    Chains are strictly increasing sequences of h covering steps; a chain of
    length 0 is a single path.  Counted by h rounds of propagation along the
    covering edges, so the work is h times the edge count.
    """
    if h < 0:
        raise ValueError("chain length must be nonnegative")
    up = HasseDiagram.build(n, limits).up
    counts = [1] * len(up)
    for _ in range(h):
        fresh = [0] * len(up)
        for i, value in enumerate(counts):
            if value:
                for j in up[i]:
                    fresh[j] += value
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
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    limits.check("max_lattice_n", n, "semilength")
    return sum(len(occurrences(w, "du")) for w in iter_words(n))


def valley_abscissae_sum(n: int, limits: Limits = Limits()) -> int:
    """Sum of valley x-coordinates over all paths of semilength n."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    limits.check("max_lattice_n", n, "semilength")
    total = 0
    for w in iter_words(n):
        # a valley at position i has its bottom at abscissa i + 1
        valleys = occurrences(w, "du")
        total += sum(valleys) + len(valleys)
    return total
