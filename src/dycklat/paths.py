"""Dyck paths as step words, with the pointwise-height order and covering moves.

A Dyck path of semilength n is a word over {u, d} of length 2n whose height
profile (partial sums of +1 for u, -1 for d) stays nonnegative and ends at 0.
Paths of equal semilength are ordered by pointwise comparison of height
profiles; b covers a exactly when b is obtained from a by turning one valley
factor du into a peak ud.

fans(n) is the one enumeration of the words of semilength n: it visits
them in canonical order (u before d) one fan at a time, as a triple (steps,
drops, q0): a packed word, the cover drop of each of its valleys, and where
its u of index n - D sits.  The words of a fan move only the packed word's
last D = fan_depth(n) u's, that is they share its first q0 steps, so the
valleys they add and those valleys' drops depend only on n and q0: one
table per q0 (fan_tables) lists the fan's suffixes and their drops.
iter_words(n) is the one word-by-word expansion of the fans.  cover_drops(n)
is the ballot-number arithmetic (Knuth, TAOCP 4A, 7.2.1.6) behind a drop:
how many ranks earlier in canonical order the word that a valley's flip
gives sits.  fans reads it once per valley of a packed word and fan_tables
once per valley of a suffix table, so the exhaustive routes need no word ->
index dict and no table lookup per cover.
occurrences, covers and profile are the string primitives that single words
and the tests use.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from functools import total_ordering
from math import comb

from .errors import InvalidWordError

# Canonical word order puts u before d, so u^n d^n (the maximum path) sorts first.
_CANONICAL = str.maketrans("ud", "ab")
# How many last u's a fan moves.  At 3 the walks measured slower; at 5 an
# h = 3 count at n = 10 took 205 KB, mostly tables, against 79 KB at 4.
_DEPTH = 4


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


def fan_depth(n: int) -> int:
    """How many last u's a fan of fans(n) moves: min(_DEPTH, n)."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    return min(_DEPTH, n)


def fans(n: int) -> Iterator[tuple[bytearray, list[int], int]]:
    """Visit the Dyck words of semilength n in canonical order, one fan at a time.

    A fan is a packed word, whose u's after the last one that moved sit
    right behind it, and the words after it in canonical order that move
    only its last D = fan_depth(n) u's: those that share its first q0
    steps, q0 being where its u of index n - D sits.  Yields one triple
    (steps, drops, q0) per fan: the packed word as ASCII bytes, the cover
    drop d of each of its valleys in valley order (the word of rank r is
    covered by those of ranks r - d), and q0.  Those valleys lie in the
    first q0 steps, which end in a u, so every word of the fan has them, and
    its other valleys and their covers, all in the fan, depend only on n and
    q0 (fan_tables).  A packed word's newest valley is its last du,
    steps.rfind(b"du"): only u's and then d's follow the u that moved.
    steps and drops are the same objects at every step, updated in place.
    There are Catalan(n - D) fans.  For n <= _DEPTH, D is n, and the one
    fan, q0 = 0, holds every word.

    The (k+1)-th u of a word sits at a position ups[k] <= 2k, and it can
    move one step right while ups[k] < 2k.  After a fan, the next word moves
    the last u that can, at level k < n - D, and packs the u's after it
    right behind it: the valleys below level k stay, a valley at level k
    appears and those above it vanish.  A valley's drop is looked up once,
    when the valley appears.
    """
    fan = n - fan_depth(n)
    steps = bytearray(b"u" * n + b"d" * n)
    drops: list[int] = []
    table = cover_drops(n)
    # suffixes[k][p]: the steps from p on once the u at p moves right and
    # the u's of levels k to n - 1 are packed right behind it
    suffixes = [
        [b"d" + b"u" * (n - k) + b"d" * (n + k - p - 1) for p in range(2 * k)] for k in range(fan)
    ]
    ups = list(range(fan + 1))
    held = [0] * (fan + 1)  # held[k]: how many valleys lie at levels up to k
    while True:
        yield steps, drops, ups[fan]
        k = fan - 1
        while k > 0 and ups[k] == 2 * k:
            k -= 1
        if k <= 0:
            return
        p = ups[k]
        count = held[k - 1]
        del drops[count:]
        drops.append(table[p][2 * k - p])
        steps[p:] = suffixes[k][p]
        count += 1
        for j in range(k, fan + 1):
            p += 1
            ups[j] = p
            held[j] = count


def fan_tables(n: int) -> dict[int, tuple[int, bytearray, array]]:
    """What the words of a fan of fans(n) add to its packed word, for each q0 a fan can have.

    The fan whose first q0 steps end at height y = 2(n - D) - q0, with D =
    fan_depth(n), holds one word per suffix: each way to end the word from
    there with D u's and D + y d's without going below 0, in canonical
    order.  Its table is a triple (size, suffixes, drops): how many words
    the fan holds, their suffixes as ASCII bytes, 2n - q0 steps each, one
    after another, and D drops per word: drops[t * D + k] is the drop of
    the valley right before the u of index k in word t's suffix, or 0
    where a u or nothing comes before it.  The nonzero ones, in that
    order, are the drops of the word's own valleys, in valley order.  Flipping such a
    valley keeps the first q0 steps, so the word it gives, t - d, is in
    the same fan.

    The suffixes with u u's to place from height y at position i = 2n - 2u
    - y are those that go up to the ones with u - 1 u's from y + 1, then,
    when y > 0, those that go down to the ones with u u's from y - 1.  The
    first cover_drops(n)[i][y] of the latter go down and then up, so they
    add a valley of that drop: as many as the words from y - 1 that start
    with a u (see cover_drops).  So the suffixes and their drops are built
    a column of steps or drops at a time, for u = 1 .. D in turn, from the
    ones for u - 1 and one cover_drops(n).  Every drop is at most the
    largest table's size, so the drops are stored in two bytes each while
    that fits.
    """
    depth = fan_depth(n)
    fan = n - depth
    table = cover_drops(n)
    code = "H" if comb(n + depth, depth) < 1 << 16 else "I"
    # ends[y]: the (size, suffixes, drops) from height y with ups u's to place
    ends = [(1, bytearray(b"d" * height), array(code)) for height in range(n + 1)]
    for ups in range(1, depth + 1):
        row: list[tuple[int, bytearray, array]] = []
        for height in range(n + 1 - ups):
            length = 2 * ups + height
            parts = [(b"u", *ends[height + 1])]
            ends[height + 1] = None  # read once: free it for the next row
            if height:
                parts.append((b"d", *row[-1]))
            size = sum(part[1] for part in parts)
            steps = bytearray(size * length)
            drops = array(code, [0]) * (size * ups)
            start = 0
            for step, count, tails, below in parts:
                lo, hi, wide = start * length, (start + count) * length, len(below) // count
                steps[lo:hi:length] = step * count
                for c in range(length - 1):
                    steps[lo + c + 1:hi:length] = tails[c::length - 1]
                for k in range(wide):
                    drops[start * ups + k + ups - wide:(start + count) * ups:ups] = below[k::wide]
                start += count
            if height:
                valley = table[2 * n - length][height]
                first = parts[0][1] * ups
                drops[first:first + valley * ups:ups] = array(code, [valley]) * valley
            row.append((size, steps, drops))
        ends = row
    return {q0: ends[2 * fan - q0] for q0 in range(fan, 2 * fan + 1)}


def iter_words(n: int) -> Iterator[str]:
    """Yield all Dyck words of semilength n in canonical order (u before d).

    The one word-by-word expansion of fans(n): each fan's first q0 steps,
    then each suffix its table (fan_tables) lists.
    """
    words = {}
    for q0, (size, suffixes, _) in fan_tables(n).items():
        text, length = suffixes.decode(), 2 * n - q0
        words[q0] = [text[t * length:(t + 1) * length] for t in range(size)]
    for steps, _, q0 in fans(n):
        prefix = steps[:q0].decode()
        for suffix in words[q0]:
            yield prefix + suffix


def cover_drops(n: int) -> list[list[int]]:
    """Rank arithmetic of the cover flip at semilength n.

    Flipping the valley (i, y) of a word, the du whose d sits at position i
    with height y before it, gives the word drops[i][y] places earlier in
    canonical order.  Write the word as P d u S, with S its last 2n - i - 2
    steps, and its cover as P u d S.  The words from the cover up to the one
    before the word are P u d S' for S' from S on and P d u S' for S' before
    S: every completion S' of a prefix that ends at height y once.  So the
    drop is also the valley's span, the number of words that share the
    prefix through its u: D(2n - i - 2, y), with D(m, s) the number of
    m-step walks from height s down to 0 that never go below 0.  The table
    costs O(n^2).  fans(n) builds it once, reads it once per valley, when
    the valley appears, and yields the drops in its triples (steps, drops,
    q0); fan_tables(n) builds it once for the valleys of every suffix.
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
