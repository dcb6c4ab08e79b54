"""Hasse diagrams of Dyck lattices and exhaustive saturated-chain counting.

Everything here runs on paths.runs, which visits the words of a semilength
in canonical order one run at a time: a packed word with its valleys and the
cover drop of each, and the number of words after it that move only its last
u, each with one more valley, of drop 1.  The word of rank r is covered by the
words of ranks r - d.  Nothing keeps the words or their covers.  HasseDiagram
writes its exports line by line from paths.walk, the word-by-word expansion of
the runs.  The counts read whole runs.  A valley of drop d appears at one
rank s and is the valley of the d ranks s .. s + d - 1, those that share the
prefix through its u, so the chain counts add each valley's covers as one
block of entries.  They keep at most two counts per word, each in a buffer as
narrow as the bound (n - 1)^k on round k's counts allows, fill several rounds
in one walk, and add a long block of a typed buffer as packed ints.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Callable, Iterator, MutableSequence, Sequence
from io import TextIOBase
from itertools import islice
from math import comb

from .limits import Limits
from .paths import DyckPath, covers, runs, walk


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
    drops d that paths.walk carries, of round k - 1's count.  A valley that
    appears at rank s with drop d is the valley of exactly the ranks s ..
    s + d - 1, its span, and flipping it sends them to ranks s - d .. s - 1
    (see paths.cover_drops).  So round k's counts through that valley are one
    block, round k - 1's entries s - d .. s - 1 added to entries s .. s + d - 1,
    and every word after the first brings one new valley: one block per word,
    read from paths.runs, whose runs bring blocks of drop 1 one after another.
    A cover ranks earlier than the word it covers, so one walk can fill round
    k + 1 from the round-k entries it completed before.  The first walk fills
    rounds 1 (the valley counts) and 2, each later walk fills one more round
    from the last one stored, and the final walk also sums the last round
    without storing it: one walk for h <= 3 and h - 2 for larger h.  Two such
    buffers are all it holds whatever h is, with no words, word index or
    adjacency.  A word has at most n - 1 valleys, so round k's counts are at
    most (n - 1)^k, and its buffer stores them in one, two, four or eight
    bytes each as that bound allows, or as a list past 64 bits.
    """
    if h < 0:
        raise ValueError("chain length must be nonnegative")
    limits.check("max_lattice_n", n, "semilength")
    words = comb(2 * n, n) // (n + 1)
    if h == 0:
        return words
    if h > n * (n - 1) // 2:  # the lattice's height: no chain is longer
        return 0
    if h == 1:
        return _valley_count(n)
    if h == 2:
        return _chains_of_length_two(n, words)
    counts, three = _rounds_one_and_two(n, words)
    if h == 3:
        return three
    for k in range(3, h - 1):
        counts = _next_round(n, counts, k)
    return _last_two_rounds(n, counts, h - 1)


# Each helper below is one walk over paths.runs.  Per run, the packed word at
# rank s brings one valley of drop d, read as the block of entries s - d .. s - 1
# added to s .. s + d - 1, and the run brings its drop-1 valleys, read as the
# entries s .. s + run - 1 added to s + 1 .. s + run.  A block of _SHORT entries
# or more is added as packed ints (see _block_adder), a shorter one entry by
# entry.  Where a helper sums the next round, that sum through the packed
# word's valley and the run's valleys is the sum of entries s - d .. s + run - 1,
# all of them complete by then.  A buffer lives only in the calls that fill or
# read it, so at most two are alive at once, each sized by the bound (n - 1)^k
# on its round's counts.  A store past a buffer's width raises instead of
# wrapping.  Buffers are made at their full length, one entry per word: growing
# one by append can copy it as it grows and leaves part of it unused.

_SHORT = 10  # one packed add costs about as much as ten entry adds
# entries per packed add: its temporaries stay small objects, whatever the block's length
_CHUNK = 256


def _round_buffer(n: int, k: int, words: int) -> MutableSequence[int]:
    """Round k's zeroed buffer, one entry per rank, in the narrowest storage for (n - 1)^k."""
    bound = (n - 1) ** k
    if bound < 1 << 8:
        return bytearray(words)
    for code in "HIQ":
        if bound < 1 << 8 * array(code).itemsize:
            return array(code, [0]) * words  # repeats the zero, with no bytes copy
    return [0] * words


def _block_adder(
    fresh: MutableSequence[int], lower: Sequence[int]
) -> Callable[[int, int, int], None]:
    """add(start, shift, count): fresh[start + j] += lower[start - shift + j] for j < count.

    Over typed buffers, each chunk of entries of either buffer is read as one
    int over its bytes, one lane per entry as wide as the buffer's item size,
    lower's lanes widened to fresh's first where they are narrower.  The sum
    is written back with to_bytes, which raises OverflowError when the top
    lane overflows; a carry from one lane into the next shows in the bits
    (a + b) ^ a ^ b at the lane boundaries, and raises OverflowError too.  A
    list buffer (past 64 bits) is added entry by entry.
    """
    if isinstance(fresh, list):

        def add(start: int, shift: int, count: int) -> None:
            for j in range(start - shift, start - shift + count):
                fresh[j + shift] += lower[j]

        return add
    out, src = memoryview(fresh), memoryview(lower)
    width, narrow, order = out.itemsize, src.itemsize, sys.byteorder
    out, src = out.cast("B"), src.cast("B")
    pad = width - narrow if order == "big" else 0  # where a narrow lane's bytes sit in a wide one
    boundaries = int.from_bytes((1).to_bytes(width, order) * _CHUNK, order)

    def add(start: int, shift: int, count: int) -> None:
        end = start + count
        while start < end:
            stop = min(start + _CHUNK, end)
            lo, hi = start * width, stop * width
            part = src[(start - shift) * narrow:(stop - shift) * narrow]
            if narrow < width:
                wide = bytearray(hi - lo)
                for byte in range(narrow):
                    wide[pad + byte::width] = part[byte::narrow]
                part = wide
            a, b = int.from_bytes(out[lo:hi], order), int.from_bytes(part, order)
            total = a + b
            if (total ^ a ^ b) & boundaries:
                raise OverflowError("a round count does not fit its buffer's width")
            out[lo:hi] = total.to_bytes(hi - lo, order)
            start = stop

    return add


def _summable(buffer: Sequence[int]) -> Sequence[int]:
    """A view of buffer whose slices sum without copying the entries, where it has one."""
    return buffer if isinstance(buffer, list) else memoryview(buffer)


def _valley_count(n: int) -> int:
    """Valleys over all words: m per packed word with m valleys, m + 1 per word of its run."""
    return sum(len(valleys) * (run + 1) + run for _, valleys, _, run in runs(n))


def _chains_of_length_two(n: int, words: int) -> int:
    """Chains of length 2: round 1 (the valley counts) by rank, summed through each cover."""
    ones = _round_buffer(n, 1, words)
    view = _summable(ones)
    total = s = 0
    for _, valleys, drops, run in runs(n):
        m = len(valleys)
        ones[s] = m
        if drops:
            total += sum(view[s - drops[-1]:s])
        m += 1
        for j in range(s, s + run):
            ones[j + 1] = m
            total += ones[j]
        s += run + 1
    return total


def _rounds_one_and_two(n: int, words: int) -> tuple[MutableSequence[int], int]:
    """Round 2 by rank, filled from round 1 in the same walk, and the sum of round 3."""
    ones = _round_buffer(n, 1, words)
    twos = _round_buffer(n, 2, words)
    add, view = _block_adder(twos, ones), _summable(twos)
    three = s = 0
    for _, valleys, drops, run in runs(n):
        m = len(valleys)
        ones[s] = m
        if drops:
            d = drops[-1]
            if d < _SHORT:
                for j in range(s - d, s):
                    twos[j + d] += ones[j]
                    three += twos[j]
            else:
                add(s, d, d)
                three += sum(view[s - d:s])
        m += 1
        for j in range(s, s + run):
            ones[j + 1] = m
            twos[j + 1] += ones[j]
            three += twos[j]
        s += run + 1
    return twos, three


def _next_round(n: int, counts: Sequence[int], k: int) -> MutableSequence[int]:
    """Round k by rank, from round k - 1 in counts."""
    fresh = _round_buffer(n, k, len(counts))
    add = _block_adder(fresh, counts)
    s = 0
    for _, _, drops, run in runs(n):
        if drops:
            d = drops[-1]
            if d < _SHORT:
                for j in range(s - d, s):
                    fresh[j + d] += counts[j]
            else:
                add(s, d, d)
        for j in range(s, s + run):
            fresh[j + 1] += counts[j]
        s += run + 1
    return fresh


def _last_two_rounds(n: int, counts: Sequence[int], k: int) -> int:
    """The sum of round k + 1, filling round k from round k - 1 in counts as it goes."""
    fresh = _round_buffer(n, k, len(counts))
    add, view = _block_adder(fresh, counts), _summable(fresh)
    total = s = 0
    for _, _, drops, run in runs(n):
        if drops:
            d = drops[-1]
            if d < _SHORT:
                for j in range(s - d, s):
                    fresh[j + d] += counts[j]
                    total += fresh[j]
            else:
                add(s, d, d)
                total += sum(view[s - d:s])
        for j in range(s, s + run):
            fresh[j + 1] += counts[j]
            total += fresh[j]
        s += run + 1
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
    return _valley_count(n)


def valley_abscissae_sum(n: int, limits: Limits = Limits()) -> int:
    """Sum of valley x-coordinates over all paths of semilength n.

    Every word after the first brings one new valley, valleys[-1], which the
    walk keeps for the words that share the prefix through its u.  Those are
    as many as its drop (see paths.cover_drops), so each valley is counted
    once, times its drop, where it appears.  A valley whose d is at position
    i has its bottom at abscissa i + 1.  The run after a packed word brings
    the valleys at i = 2n - 2 - run, ..., 2n - 3, of drop 1 each: one
    arithmetic series per run.
    """
    limits.check("max_lattice_n", n, "semilength")
    top = 2 * n - 2
    total = 0
    for _, valleys, drops, run in runs(n):
        if drops:  # the packed word's new valley; the first word has none
            total += (valleys[-1][0] + 1) * drops[-1]
        total += run * (2 * top + 1 - run) // 2
    return total
