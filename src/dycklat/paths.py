"""Dyck paths as step words, with the pointwise-height order and covering moves.

A Dyck path of semilength n is a word over {u, d} of length 2n whose height
profile (partial sums of +1 for u, -1 for d) stays nonnegative and ends at 0.
Paths of equal semilength are ordered by pointwise comparison of height
profiles; b covers a exactly when b is obtained from a by turning one valley
factor du into a peak ud.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterator

from .errors import InvalidWordError
from .limits import Limits

# Canonical word order puts u before d, so u^n d^n (the maximum path) sorts first.
_CANONICAL = str.maketrans("ud", "ab")


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


def iter_words(n: int) -> Iterator[str]:
    """Yield all Dyck words of semilength n in canonical order (u before d)."""
    if n == 0:
        yield ""
        return
    length = 2 * n
    buf = [""] * length

    def rec(pos: int, ups: int) -> Iterator[str]:
        if pos == length:
            yield "".join(buf)
            return
        height = 2 * ups - pos
        if ups < n:
            buf[pos] = "u"
            yield from rec(pos + 1, ups + 1)
        if height > 0:
            buf[pos] = "d"
            yield from rec(pos + 1, ups)

    yield from rec(0, 0)


def generate_paths(n: int, limits: Limits = Limits()) -> list[DyckPath]:
    """All Dyck paths of semilength n in canonical order.

    Raises ResourceLimitError when n exceeds limits.max_lattice_n; the cap
    keeps accidental huge enumerations out (the path count grows as 4^n).
    """
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    limits.check("max_lattice_n", n, "semilength")
    return [DyckPath._from_valid(w) for w in iter_words(n)]
