"""Dyck paths as step words, with the pointwise-height order and covering moves.

A Dyck path of semilength n is a word over {u, d} of length 2n whose height
profile (partial sums of +1 for u, -1 for d) stays nonnegative and ends at 0.
Paths of equal semilength are ordered by pointwise comparison of height
profiles; b covers a exactly when b is obtained from a by turning one valley
factor du into a peak ud.

runs(n) is the one enumeration of the words of semilength n: it visits
them in canonical order (u before d) one run at a time, a packed word with
its valleys and their cover drops and the number of words after it that
move only its last u.  walk(n) expands each run into its words, and
iter_words serves those as strings.  cover_drops(n) is the ballot-number
arithmetic (Knuth, TAOCP 4A, 7.2.1.6) behind a drop: how many ranks earlier
in canonical order the word that a valley's flip gives sits.  runs reads it
once per valley, so the exhaustive routes need no word -> index dict and no
table lookup per cover.  occurrences, covers and profile are the string
primitives that single words and the tests use.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import total_ordering

from .errors import InvalidWordError
from .limits import Limits

# Canonical word order puts u before d, so u^n d^n (the maximum path) sorts first.
_CANONICAL = str.maketrans("ud", "ab")
_U, _D = ord("u"), ord("d")


def canonical_key(word: str) -> str:
    return word.translate(_CANONICAL)


def occurrences(word: str, factor: str) -> list[int]:
    """All start positions of factor in word, overlaps included.

    The valleys of a path are occurrences(word, "du").
    """
    if not factor:
        raise ValueError("factor must be nonempty")
    positions = []
    start = word.find(factor)
    while start != -1:
        positions.append(start)
        start = word.find(factor, start + 1)
    return positions


def covers(word: str) -> list[str]:
    """The words covering word: each valley du flipped to a peak ud, in valley order."""
    return [word[:i] + "ud" + word[i + 2:] for i in occurrences(word, "du")]


def profile(word: str) -> tuple[int, ...]:
    """Heights after each step of a u/d word, starting from 0 (length len(word) + 1)."""
    heights = [0]
    h = 0
    for step in word:
        if step == "u":
            h += 1
        elif step == "d":
            h -= 1
        else:
            raise ValueError(f"invalid step {step!r}, expected 'u' or 'd'")
        heights.append(h)
    return tuple(heights)


def _check_word(word: str) -> None:
    height = 0
    for i, step in enumerate(word):
        if step == "u":
            height += 1
        elif step == "d":
            height -= 1
            if height < 0:
                raise InvalidWordError("path drops below the axis", i)
        else:
            raise InvalidWordError(f"invalid step {step!r}, expected 'u' or 'd'", i)
    if height != 0:
        raise InvalidWordError(f"unbalanced word, final height {height}", len(word))


@total_ordering
class DyckPath:
    """An immutable Dyck path, hashable and ordered by the canonical word order."""

    __slots__ = ("word",)

    def __init__(self, word: str):
        _check_word(word)
        self.word = word

    @classmethod
    def _from_valid(cls, word: str) -> DyckPath:
        # Fast path for words produced by operations that preserve validity.
        path = object.__new__(cls)
        path.word = word
        return path

    @property
    def semilength(self) -> int:
        return len(self.word) // 2

    @property
    def heights(self) -> tuple[int, ...]:
        """Height profile of length 2n + 1, starting and ending at 0."""
        return profile(self.word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DyckPath) and self.word == other.word

    def __lt__(self, other: DyckPath) -> bool:
        if not isinstance(other, DyckPath):
            return NotImplemented
        return canonical_key(self.word) < canonical_key(other.word)

    def __hash__(self) -> int:
        return hash(self.word)

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return self.word

    def __repr__(self) -> str:
        return f"DyckPath({self.word!r})"


def runs(n: int) -> Iterator[tuple[bytearray, list[tuple[int, int]], list[int], int]]:
    """Visit the Dyck words of semilength n in canonical order, one run at a time.

    A run is a packed word, whose u's after the last one that moved sit
    right behind it, and the words after it in canonical order that move
    only its last u, one step right each, up to position 2n - 2.  Yields one
    quadruple (steps, valleys, drops, run) per run: steps, valleys and drops
    are those of the packed word, as walk(n) gives them, and run is how many
    words follow it.  Each of those has the packed word's valleys and one
    more, of drop 1: the valley (p, 2n - 2 - p) of the last u at p + 1, for
    p = 2n - 2 - run, ..., 2n - 3.  A consumer may move the last u along its
    run in steps and append that valley; the next packed word overwrites both.
    There are Catalan(n - 1) runs for n >= 2, against Catalan(n) words.

    The (k+1)-th u of a word sits at a position ups[k] <= 2k, and it can
    move one step right while ups[k] < 2k.  After a run, the next word moves
    the last u that can, at level k < n - 1, and packs the u's after it right
    behind it: the valleys below level k stay, a valley at level k appears
    and those above it vanish.  A valley's drop is looked up once, when the
    valley appears, except that of the last u's valley, which is always 1:
    only d's follow that u, so no other word shares the prefix through it,
    and flipping the valley gives the word just before, the previous one of
    the run.
    """
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    steps = bytearray(b"u" * n + b"d" * n)
    valleys: list[tuple[int, int]] = []
    drops: list[int] = []
    if n < 2:
        yield steps, valleys, drops, 0
        return
    last, top = n - 1, 2 * n - 2
    table = cover_drops(n)
    # suffixes[k][p]: the steps from p on once the u at p moves right and
    # the u's of levels k to n - 1 are packed right behind it
    suffixes = [
        [b"d" + b"u" * (n - k) + b"d" * (n + k - p - 1) for p in range(2 * k)] for k in range(n)
    ]
    ups = list(range(n))
    held = [0] * n  # held[k]: how many valleys lie at levels up to k
    while True:
        yield steps, valleys, drops, top - ups[last]
        k = last - 1
        while k and ups[k] == 2 * k:
            k -= 1
        if not k:
            return
        p = ups[k]
        count = held[k - 1]
        del valleys[count:]
        del drops[count:]
        valleys.append((p, 2 * k - p))
        drops.append(table[p][2 * k - p])
        steps[p:] = suffixes[k][p]
        count += 1
        for j in range(k, n):
            p += 1
            ups[j] = p
            held[j] = count


def walk(n: int) -> Iterator[tuple[bytearray, list[tuple[int, int]], list[int]]]:
    """Visit the Dyck words of semilength n in canonical order, with their valleys.

    Yields one triple (steps, valleys, drops) per word: steps is the word as
    ASCII bytes, valleys lists each valley du as (i, y), the position i of
    its d and the height y before that d, in position order, and drops[j] is
    cover_drops(n)[i][y] for valleys[j], so the word of rank r is covered
    by the words of ranks r - d for d in drops.  All three are the same
    objects at every step, updated in place, so copy them to keep them.
    It expands each of runs(n) into its packed word and the words of its run.
    """
    top = 2 * n - 2
    tail = {p: (p, top - p) for p in range(n - 1, top)}  # the valley of the last u at p + 1
    for steps, valleys, drops, run in runs(n):
        state = steps, valleys, drops
        yield state
        if run:
            valleys.append((0, 0))
            drops.append(1)
            for p in range(top - run, top):
                steps[p] = _D
                steps[p + 1] = _U
                valleys[-1] = tail[p]
                yield state


def iter_words(n: int) -> Iterator[str]:
    """Yield all Dyck words of semilength n in canonical order (u before d)."""
    for steps, _, _ in walk(n):
        yield steps.decode()


def cover_drops(n: int) -> list[list[int]]:
    """Rank arithmetic of the cover flip at semilength n.

    Flipping the valley (i, y) of a word, as listed by walk(n), gives the
    word drops[i][y] places earlier in canonical order.  Write the word as
    P d u S, with S its last 2n - i - 2 steps, and its cover as P u d S.
    The words from the cover up to the one before the word are P u d S' for
    S' from S on and P d u S' for S' before S: every completion S' of a
    prefix that ends at height y once.  So the drop is also the valley's
    span, the number of words that share the prefix through its u: D(2n -
    i - 2, y), with D(m, s) the number of m-step walks from height s down
    to 0 that never go below 0.  The table costs O(n^2).  walk(n) builds it
    once, reads it once per valley and carries the drops beside the valleys.
    """
    length = 2 * n
    ballot = [[0] * (length + 3) for _ in range(length + 1)]
    ballot[0][0] = 1
    for m in range(1, length + 1):
        below, row = ballot[m - 1], ballot[m]
        row[0] = below[1]
        for s in range(1, m + 1):
            row[s] = below[s - 1] + below[s + 1]
    return [ballot[length - i - 2][: n + 1] for i in range(length - 1)]


def generate_paths(n: int, limits: Limits = Limits()) -> list[DyckPath]:
    """All Dyck paths of semilength n in canonical order.

    Raises ResourceLimitError when n exceeds limits.max_lattice_n; the cap
    keeps accidental huge enumerations out (the path count grows as 4^n).
    """
    limits.check("max_lattice_n", n, "semilength")
    return [DyckPath._from_valid(w) for w in iter_words(n)]
