"""Hasse diagrams of Dyck lattices and exhaustive saturated-chain counting."""

from __future__ import annotations

from .limits import Limits
from .paths import DyckPath, iter_words, occurrences


def _cover_words(word: str) -> list[str]:
    return [word[:i] + "ud" + word[i + 2:] for i in occurrences(word, "du")]


class HasseDiagram:
    """Covering digraph of the Dyck lattice of a fixed semilength.

    Nodes are all paths in canonical order; edges point from the covered
    path to the covering one (one valley flipped to a peak).
    """

    __slots__ = ("n", "paths", "edges", "_index")

    def __init__(self, n: int, paths: list[DyckPath], edges: list[tuple[int, int]]):
        self.n = n
        self.paths = tuple(paths)
        self.edges = tuple(edges)
        self._index = {p.word: i for i, p in enumerate(self.paths)}

    @classmethod
    def build(cls, n: int, limits: Limits = Limits()) -> HasseDiagram:
        if n < 0:
            raise ValueError("semilength must be nonnegative")
        limits.check("max_lattice_n", n, "semilength")
        words = list(iter_words(n))
        index = {w: i for i, w in enumerate(words)}
        edges = [
            (i, index[c])
            for i, w in enumerate(words)
            for c in _cover_words(w)
        ]
        return cls(n, [DyckPath._from_valid(w) for w in words], edges)

    def index_of(self, path: DyckPath) -> int:
        return self._index[path.word]

    def upper_neighbors(self) -> list[list[int]]:
        up: list[list[int]] = [[] for _ in self.paths]
        for i, j in self.edges:
            up[i].append(j)
        return up

    def to_dot(self) -> str:
        lines = [f"digraph dyck_lattice_{self.n} {{", "  rankdir=BT;"]
        for i, path in enumerate(self.paths):
            lines.append(f'  {i} [label="{path.word}"];')
        for i, j in self.edges:
            lines.append(f"  {i} -> {j};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_edge_list(self) -> str:
        lines = [f"# n={self.n} nodes={len(self.paths)}"]
        lines.extend(f"{i} {j}" for i, j in self.edges)
        return "\n".join(lines)


def count_saturated_chains(n: int, h: int, limits: Limits = Limits()) -> int:
    """Number of saturated chains of length h in the Dyck lattice of semilength n.

    Chains are strictly increasing sequences of h covering steps; a chain of
    length 0 is a single path.  Counted by h rounds of propagation along the
    covering edges, so the work is h times the edge count.
    """
    if h < 0:
        raise ValueError("chain length must be nonnegative")
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    limits.check("max_lattice_n", n, "semilength")
    words = list(iter_words(n))
    index = {w: i for i, w in enumerate(words)}
    up = [[index[c] for c in _cover_words(w)] for w in words]
    counts = [1] * len(words)
    for _ in range(h):
        fresh = [0] * len(words)
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
            memo[word, k] = sum(chains_from(c, k - 1) for c in _cover_words(word))
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
