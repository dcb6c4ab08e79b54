"""Hasse diagrams of Dyck lattices and exhaustive saturated-chain counting.

Everything here runs on paths.fans, which visits the words of a semilength
in canonical order one fan at a time, as a triple (steps, drops, q0): a
packed word, the cover drop d of each of its valleys, and where its u of
index n - D sits.  The word of rank r is covered by the words of ranks
r - d.  The words of a fan share the packed word's first q0 steps and move
only its last D u's: each has the packed word's valleys and the ones in its
own suffix, whose drops and covers, all in the same fan, depend only on n
and q0 (paths.fan_tables).  Nothing keeps the words or their covers.
HasseDiagram writes its edges straight from the fans, and its DOT node
labels from paths.iter_words, the one word-by-word expansion.  A valley of
drop d appears at one rank s and is the valley of the d ranks s .. s + d -
1, those that share the prefix through its u, so the chain counts add a
packed word's newest valley's covers as one block of entries, and a fan's
own covers as blocks of one drop each or as a pattern that depends only on
q0 and the packed word's valley count.  They keep at most two counts per
word, each in a buffer as narrow as the bound (n - 1)^k on round k's counts
allows, fill several rounds in one walk, and add a long block of a typed
buffer as packed ints.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Callable, Iterator, MutableSequence, Sequence
from io import TextIOBase
from itertools import chain, islice
from math import comb
from operator import mul

from .limits import Limits
from .paths import fan_depth, fan_tables, fans, iter_words


class HasseDiagram:
    """Exporter of the covering digraph of the Dyck lattice of a fixed semilength.

    It keeps only n.  Node r is the word of rank r in canonical order, and
    its edges r -> r - d, one per valley in valley order, go to the words
    covering it (that valley flipped to a peak): one edge per drop d of its
    fan's packed word (paths.fans), then one per drop its own valleys add
    (paths.fan_tables).  Each export walks the lattice anew, so its memory
    does not grow with the words or the edges.
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
        n = self.n
        labels = (f'  {r} [label="{word}"];\n' for r, word in enumerate(iter_words(n)))
        head = f"digraph dyck_lattice_{n} {{\n  rankdir=BT;\n"
        return _export(chain((head,), _joined(labels), _dot_edges(n), ("}\n",)), out)

    def to_edge_list(self, out: TextIOBase | None = None) -> str | None:
        """The edge-list text: a header, then one "i j" line per edge.

        The text has no final newline.  Given a text stream out, writes the
        same text there instead, as its lines are produced, and returns None.
        """
        n = self.n
        head = f"# n={n} nodes={comb(2 * n, n) // (n + 1)}"
        return _export(chain((head,), _listed_edges(n)), out)


def _own_drops(n: int) -> dict[int, list[tuple[int, ...]]]:
    """The drops of each word's own valleys (paths.fan_tables), by the fan's q0 and the word's offset."""
    depth = fan_depth(n)
    return {
        q0: [tuple(filter(None, drops[t * depth:(t + 1) * depth])) for t in range(size)]
        for q0, (size, _, drops) in fan_tables(n).items()
    }


def _dot_edges(n: int) -> Iterator[str]:
    """The DOT lines of each fan's edges, one string per fan, read from paths.fans."""
    owns = _own_drops(n)
    r = 0
    for _, drops, q0 in fans(n):
        lines: list[str] = []
        append = lines.append
        for own in owns[q0]:
            head = f"  {r} -> "
            for d in drops:
                append(f"{head}{r - d};\n")
            for d in own:
                append(f"{head}{r - d};\n")
            r += 1
        yield "".join(lines)


def _listed_edges(n: int) -> Iterator[str]:
    """The edge-list lines of each fan's edges, each after a newline, one string per fan."""
    owns = _own_drops(n)
    r = 0
    for _, drops, q0 in fans(n):
        lines: list[str] = []
        append = lines.append
        for own in owns[q0]:
            head = f"\n{r} "
            for d in drops:
                append(f"{head}{r - d}")
            for d in own:
                append(f"{head}{r - d}")
            r += 1
        yield "".join(lines)


def _joined(pieces: Iterator[str]) -> Iterator[str]:
    """The pieces joined a few thousand at a time."""
    while chunk := "".join(islice(pieces, 4096)):
        yield chunk


def _export(pieces: Iterator[str], out: TextIOBase | None) -> str | None:
    """Join the pieces, or write them to out one by one."""
    if out is None:
        return "".join(pieces)
    out.writelines(pieces)
    return None


def count_saturated_chains(n: int, h: int, limits: Limits = Limits()) -> int:
    """Number of saturated chains of length h in the Dyck lattice of semilength n.

    Chains are strictly increasing sequences of h covering steps; a chain of
    length 0 is a single path.  Round k lists, by rank, the chains of length
    k upward from each word: the sum over its covers, at ranks r - d for the
    drops d of its valleys, of round k - 1's count.  paths.fans yields one
    triple (steps, drops, q0) per fan: a packed word's drops and where its
    u of index n - D sits, which fixes the valleys the fan's words add and
    their covers, all in the fan (paths.fan_tables); it needs no
    word-by-word expansion.  A valley that appears at rank s with drop d is
    the valley of exactly the ranks s .. s + d - 1, its span, and flipping
    it sends them to ranks s - d .. s - 1 (see paths.cover_drops).  So
    round k's counts through a packed word's newest valley are one block,
    round k - 1's entries s - d .. s - 1 added to entries s .. s + d - 1,
    and its older valleys' blocks were added where they appeared.  A cover ranks earlier
    than the word it covers, so one walk can fill round k + 1 from the
    round-k entries it completed before.  The first walk fills rounds 1
    (the valley counts) and 2, each later walk fills one more round from the
    last one stored, and the final walk also sums the last round without
    storing it: one walk for h <= 3 and h - 2 for larger h.  Two such
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
    shapes = _fan_shapes(n)
    counts, total = _rounds_one_and_two(n, words, shapes, h == 3)
    for k in range(3, h):
        counts, total = _next_round(n, counts, k, shapes, k == h - 1)
    return total


# Each helper below is one walk over paths.fans.  Per fan, the packed word at
# rank s brings one valley of drop d, read as the block of entries
# s - d .. s - 1 added to s .. s + d - 1, always as packed ints (see
# _block_adder): the first fan's packed word has no valley (d = 0, an empty
# add), and every later one's newest valley is shared by its whole fan and
# more, so d is never short (42 or more with fans of depth 4).  The fan's own
# valleys cover words of the fan (paths.fan_tables) and are read as blocks of
# one drop each that depend only on q0 (see _fan_shapes): as packed ints from
# _SHORT entries on, entry by entry below.  In the first walk,
# whose round 1 is m plus the count of a word's own valleys for a packed word
# with m valleys, both rounds' in-fan parts are fixed patterns of (q0, m).
# Where a helper sums the next round, that sum through the packed word's newest
# valley is the sum of entries s - d .. s - 1, and through the fan's own valleys
# the fan's entries weighted by how many of them each covers, all of them
# complete by then.  A buffer lives only in the calls that fill or read it, so
# at most two are alive at once, each sized by the bound (n - 1)^k on its
# round's counts.  A store past a buffer's width raises instead of wrapping.
# Buffers are made at their full length, one entry per word: growing one by
# append can copy it as it grows and leaves part of it unused.

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


def _like(buffer: MutableSequence[int], values: list[int]) -> MutableSequence[int]:
    """values in buffer's storage, for a slice of buffer to take or to add as packed ints."""
    if isinstance(buffer, array):
        return array(buffer.typecode, values)
    return type(buffer)(values)


def _fan_shapes(n: int) -> dict[int, tuple[bytearray, bytearray, bytearray, array]]:
    """(extra, gains, weights, blocks) of each fan of paths.fans by its q0, by a word's offset t in the fan.

    extra[t] counts the valleys word t adds to its packed word's
    (paths.fan_tables), gains[t] sums extra over their covers, and
    weights[t] counts the words of the fan that cover word t through such a
    valley; a suffix has D u's, so each is at most D * D.  blocks lists the
    fan's own covers as triples (offset, drop, length), one after another:
    words offset .. offset + length - 1 each have a valley of that drop.
    Each word t >= 1 brings one new valley, its last du, shared by the drop
    words from t on, and the new valleys of equal drop at consecutive spans
    make one block.
    """
    depth, shapes = fan_depth(n), {}
    for q0, (size, _, drops) in fan_tables(n).items():
        extra, gains, weights = bytearray(size), bytearray(size), bytearray(size)
        blocks, last = [], {}  # last[d]: the latest block of drop d, [offset, drop, length]
        for t in range(size):
            newest = 0
            for d in drops[t * depth:(t + 1) * depth]:
                if d:
                    extra[t] += 1
                    gains[t] += extra[t - d]
                    weights[t - d] += 1
                    newest = d
            if not newest:  # the packed word
                continue
            block = last.get(newest)
            if block and block[0] + block[2] == t:
                block[2] += newest
            else:
                last[newest] = block = [t, newest, newest]
                blocks.append(block)
        shapes[q0] = extra, gains, weights, array("I", chain.from_iterable(blocks))
    return shapes


def _valley_count(n: int) -> int:
    """Valleys over all words: per fan, the packed word's m for each of its words, and their own."""
    own = {q0: (size, len(drops) - drops.count(0)) for q0, (size, _, drops) in fan_tables(n).items()}
    total = 0
    for _, drops, q0 in fans(n):
        size, extra = own[q0]
        total += len(drops) * size + extra
    return total


def _kinds(n: int, q0: int) -> range:
    """The valley counts m the packed word of a fan at q0 can have.

    Its valleys lie in its first q0 steps, which hold n - D u's and q0 - (n
    - D) d's: one valley before each of those u's but the first, after one
    of those d's.
    """
    fan = n - fan_depth(n)
    return range(max(min(fan - 1, q0 - fan), 0) + 1)


def _chains_of_length_two(n: int, words: int) -> int:
    """Chains of length 2: round 1 (the valley counts) by rank, summed through each cover.

    Below a packed word with m valleys, word t of the fan at q0 has m +
    extra[t] valleys, which one slice assignment writes, and the covers
    through the valleys it adds itself, all in the fan, have m * extra[t] +
    gains[t] together (see _fan_shapes).
    """
    shapes = _fan_shapes(n)
    ones = _round_buffer(n, 1, words)
    view = _summable(ones)
    kinds = {}
    for q0, (extra, gains, _, _) in shapes.items():
        for m in _kinds(n, q0):
            kinds[q0, m] = _like(ones, [m + e for e in extra]), m * sum(extra) + sum(gains)
    total = s = 0
    for _, drops, q0 in fans(n):
        first, own = kinds[q0, len(drops)]
        size = len(first)
        ones[s:s + size] = first
        if drops:
            total += sum(view[s - drops[-1]:s])
        total += own
        s += size
    return total


def _rounds_one_and_two(
    n: int, words: int, shapes: dict, with_three: bool
) -> tuple[MutableSequence[int], int]:
    """Round 2 by rank, filled from round 1 in one walk, and round 3's sum if with_three, else 0.

    A fan's rounds 1 and 2 through its own valleys depend only on its q0 and
    its packed word's valley count m, as in _chains_of_length_two: each kind
    of fan writes its round 1 with one slice assignment and adds its own
    covers' part of round 2, m * extra[t] + gains[t], with one packed add
    from a buffer that holds that part of every kind.
    """
    ones = _round_buffer(n, 1, words)
    twos = _round_buffer(n, 2, words)
    add, view = _block_adder(twos, ones), _summable(twos)
    kinds, own = {}, _like(twos, [])
    for q0, (extra, gains, _, _) in shapes.items():
        for m in _kinds(n, q0):
            kinds[q0, m] = _like(ones, [m + e for e in extra]), len(own)
            own.extend(m * e + g for e, g in zip(extra, gains))
    add_own = _block_adder(twos, own)
    three = s = 0
    for _, drops, q0 in fans(n):
        first, offset = kinds[q0, len(drops)]
        size = len(first)
        ones[s:s + size] = first
        d = drops[-1] if drops else 0
        add(s, d, d)
        add_own(s, s - offset, size)
        if with_three:
            three += sum(view[s - d:s]) + sum(map(mul, shapes[q0][2], view[s:s + size]))
        s += size
    return twos, three


def _next_round(
    n: int, counts: Sequence[int], k: int, shapes: dict, with_sum: bool
) -> tuple[MutableSequence[int], int]:
    """Round k by rank, from round k - 1 in counts, and round k + 1's sum if with_sum, else 0."""
    fresh = _round_buffer(n, k, len(counts))
    add, view = _block_adder(fresh, counts), _summable(fresh)
    total = s = 0
    for _, drops, q0 in fans(n):
        d = drops[-1] if drops else 0
        add(s, d, d)
        extra, _, weights, blocks = shapes[q0]
        triples = iter(blocks)
        for offset, drop, length in zip(triples, triples, triples):
            start = s + offset
            if length < _SHORT:
                for j in range(start - drop, start - drop + length):
                    fresh[j + drop] += counts[j]
            else:
                add(start, drop, length)
        size = len(extra)
        if with_sum:
            total += sum(view[s - d:s]) + sum(map(mul, weights, view[s:s + size]))
        s += size
    return fresh, total


def total_valleys(n: int, limits: Limits = Limits()) -> int:
    """Total number of valleys over all paths of semilength n (= Hasse edge count)."""
    limits.check("max_lattice_n", n, "semilength")
    return _valley_count(n)


def valley_abscissae_sum(n: int, limits: Limits = Limits()) -> int:
    """Sum of valley x-coordinates over all paths of semilength n.

    Every word after the first brings one new valley, which stays for the
    words that share the prefix through its u.  Those are as many as its
    drop (see paths.cover_drops), so each valley is counted once, times its
    drop, where it appears: a fan's packed word's last du, whose d at
    position i has its bottom at abscissa i + 1.  The fan's own valleys
    give one sum per q0, found the same way: each word of its table
    (paths.fan_tables) after the first brings its suffix's last du, whose
    drop is the last nonzero one of the word's drops.
    """
    limits.check("max_lattice_n", n, "semilength")
    depth, own = fan_depth(n), {}
    for q0, (size, suffixes, drops) in fan_tables(n).items():
        length = 2 * n - q0
        own[q0] = sum(
            (q0 + suffixes.rfind(b"du", t * length, (t + 1) * length) - t * length + 1)
            * next(filter(None, reversed(drops[t * depth:(t + 1) * depth])))
            for t in range(1, size)
        )
    total = 0
    for steps, drops, q0 in fans(n):
        if drops:  # the packed word's new valley; the first word has none
            total += (steps.rfind(b"du") + 1) * drops[-1]
        total += own[q0]
    return total
