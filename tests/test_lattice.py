import inspect
import io
import math
import random
import re
import tracemalloc
from array import array

import pytest

from conftest import (
    catalan_ref,
    chain_totals_by_rounds,
    count_occurrences,
    dyck_words,
    valley_positions,
    word_leq,
)
from dycklat.errors import ResourceLimitError
from dycklat import lattice
from dycklat.formula import chain_count_via_shapes
from dycklat.lattice import (
    HasseDiagram,
    count_chains_from,
    count_saturated_chains,
    total_valleys,
    valley_abscissae_sum,
)
from dycklat.limits import Limits
from dycklat.paths import DyckPath, covers, generate_paths


def test_known_chain_counts():
    assert count_saturated_chains(3, 2) == 4
    assert count_saturated_chains(4, 3) == 38
    assert count_saturated_chains(2, 1) == 1


def test_zero_length_chains_are_elements():
    for n in range(8):
        assert count_saturated_chains(n, 0) == catalan_ref(n)


def test_length_one_chains_are_edges():
    for n in range(11):
        edges = sum(count_occurrences(w, "du") for w in dyck_words(n))
        assert count_saturated_chains(n, 1) == edges
        assert total_valleys(n) == edges


def test_chains_vanish_above_total_rank():
    # the longest chain climbs one cover per step through n(n-1)/2 ranks
    for n in range(6):
        rank = n * (n - 1) // 2
        assert count_saturated_chains(n, rank) >= (1 if n else 1)
        assert count_saturated_chains(n, rank + 1) == 0


def test_rounds_equal_the_per_cover_reference():
    # every h up to one above the height: the one walk of h <= 3, the first,
    # middle and last walks of larger h, every buffer width, and the zero
    for n in range(10):
        height = n * (n - 1) // 2
        totals = chain_totals_by_rounds(n, height + 1)
        assert [count_saturated_chains(n, h) for h in range(height + 2)] == totals


def test_per_path_counts_sum_to_totals():
    # every h up to one above the height reaches each kind of walk: the one
    # walk of h <= 3, the middle and final walks, and the zero above it
    for n in range(7):
        for h in range(max(5, n * (n - 1) // 2 + 2)):
            total = sum(count_chains_from(p, h) for p in generate_paths(n))
            assert total == count_saturated_chains(n, h)


def test_round_counts_stay_within_the_width_bound():
    # A word has at most n - 1 valleys, so it starts at most (n - 1)^k chains
    # of length k, and round k's buffer is sized by that bound.  At n = 6,
    # 5^k passes 8, 16 and 32 bits at k = 4, 7 and 14, so the per-path test
    # above already checks bytearray, H, I and Q buffers; (9, 30) in the
    # memory test below takes the list path, as 8^k passes 64 bits at k = 22.
    for n in range(8):
        paths = generate_paths(n)
        for k in range(n * (n - 1) // 2 + 1):
            assert max(count_chains_from(p, k) for p in paths) <= (n - 1) ** k


def test_round_buffers_hold_their_bound_and_refuse_more():
    for n in range(2, 16):
        for k in range(1, 40):
            bound = (n - 1) ** k
            buffer = lattice._round_buffer(n, k, 3)
            assert list(buffer) == [0, 0, 0]
            buffer[1] = bound
            assert buffer[1] == bound
            if isinstance(buffer, list):
                assert bound >= 1 << 64
                continue
            # the next narrower width would not hold the bound, and a value
            # past this width raises instead of wrapping
            width = memoryview(buffer).itemsize
            assert width == 1 or bound >= 1 << 4 * width
            with pytest.raises((OverflowError, ValueError)):
                buffer[2] = 1 << 8 * width


def _lanes(code, values):
    if code == "B":
        return bytearray(values)
    return list(values) if code == "list" else array(code, values)


def _lane_bits(code):
    return 8 * (1 if code == "B" else array(code).itemsize)


# (fresh, lower): lower is never wider than fresh, and is widened to it
LANE_PAIRS = [
    ("B", "B"), ("H", "B"), ("H", "H"), ("I", "H"), ("I", "I"),
    ("Q", "I"), ("Q", "B"), ("Q", "Q"), ("list", "Q"),
]


@pytest.mark.parametrize("fresh_code, lower_code", LANE_PAIRS)
def test_packed_adds_equal_entrywise_adds(fresh_code, lower_code):
    # blocks longer than a chunk, at a shift unlike their length
    rng = random.Random(24)
    count = 2 * lattice._CHUNK + 7
    # each entry below half its lane, so no sum overflows
    fresh_half = 1 << (64 if fresh_code == "list" else _lane_bits(fresh_code)) - 1
    lower_half = 1 << _lane_bits(lower_code) - 1
    fresh = _lanes(fresh_code, [rng.randrange(fresh_half) for _ in range(2 * count + 10)])
    lower = _lanes(lower_code, [rng.randrange(lower_half) for _ in range(2 * count + 10)])
    start, shift = count + 5, count - 2
    expected = list(fresh)
    for j in range(start, start + count):
        expected[j] += lower[j - shift]
    lattice._block_adder(fresh, lower)(start, shift, count)
    assert list(fresh) == expected


@pytest.mark.parametrize("fresh_code, lower_code", LANE_PAIRS[:-1])
def test_packed_adds_raise_on_a_carry_out_of_any_lane(fresh_code, lower_code):
    # Whichever lane is the top one in the machine's byte order, the middle
    # lane is not: its carry would land in the next lane unless the
    # lane-boundary check catches it.  The top lane's overflow raises in
    # to_bytes.  Either way the buffer keeps its old entries.
    full = (1 << _lane_bits(fresh_code)) - 1
    for lane in range(3):
        entries = [7, 7, 7, 1, 2, 3]
        entries[3 + lane] = full
        fresh = _lanes(fresh_code, entries)
        lower = _lanes(lower_code, [1, 1, 1, 0, 0, 0])
        with pytest.raises(OverflowError):
            lattice._block_adder(fresh, lower)(3, 3, 3)
        assert list(fresh) == entries


@pytest.mark.parametrize("code", ["B", "H", "I", "Q"])
def test_fan_pattern_adds_raise_past_a_lane_width(monkeypatch, code):
    # The first fan's packed word u^n d^n has no valleys, so the first store
    # into round 2 is the packed add of that fan's own covers.  One entry at
    # its lane's largest value, where the pattern adds to it, cannot take
    # the add: it raises, whether the lane is the chunk's top one or not,
    # and round 2 keeps its old entries.
    n, made = 6, lattice._round_buffer
    gains = lattice._fan_shapes(n)[n - 2][1]
    lanes = [t for t, gain in enumerate(gains) if gain]
    for lane in (lanes[0], lanes[len(lanes) // 2], lanes[-1]):
        twos = []

        def round_buffer(n, k, words):
            if k != 2:
                return made(n, k, words)
            buffer = _lanes(code, [0] * words)
            buffer[lane] = (1 << _lane_bits(code)) - 1
            twos.append(buffer)
            return buffer

        monkeypatch.setattr(lattice, "_round_buffer", round_buffer)
        with pytest.raises(OverflowError):
            count_saturated_chains(n, 3)
        assert [t for t, entry in enumerate(twos[0]) if entry] == [lane]


def staircase_tableaux(n):
    """Standard Young tableaux of shape (n-1, ..., 1), by the hook-length formula."""
    # the staircase is its own conjugate: column j is as long as row j
    rows = list(range(n - 1, 0, -1))
    hooks = math.prod(
        (rows[i] - j - 1) + (rows[j] - i - 1) + 1 for i in range(len(rows)) for j in range(rows[i])
    )
    return math.factorial(sum(rows)) // hooks


def test_maximal_chains_are_staircase_tableaux():
    # a maximal chain adds the cells of the staircase between the bottom path
    # (ud)^n and the top u^n d^n one at a time, so it is a standard filling
    assert [staircase_tableaux(n) for n in range(9)] == [
        1, 1, 1, 2, 16, 768, 292864, 1100742656, 48608795688960,
    ]
    for n in range(9):
        height = n * (n - 1) // 2
        assert count_saturated_chains(n, height) == staircase_tableaux(n)
        assert count_saturated_chains(n, height + 1) == 0


def test_chains_from_single_path():
    assert count_chains_from(DyckPath("ududud"), 2) == 2
    assert count_chains_from(DyckPath("uuuddd"), 1) == 0
    # both maximal chains of the semilength-3 order start at the bottom
    assert count_chains_from(DyckPath("ududud"), 3) == 2


def test_valley_abscissae_relation():
    assert valley_abscissae_sum(2) == 2
    assert valley_abscissae_sum(3) == 15
    for n in range(2, 10):
        assert count_saturated_chains(n, 2) == 2 * valley_abscissae_sum(n - 1)


def test_valley_abscissae_sum_is_the_sum_over_every_valley():
    # each valley counts once, times the words that share it, and each run
    # of the last u adds one arithmetic series
    for n in range(11):
        expected = sum(i + 1 for w in dyck_words(n) for i in valley_positions(w))
        assert valley_abscissae_sum(n) == expected


DOT_NODE = re.compile(r'  (\d+) \[label="([ud]*)"\];')
DOT_EDGE = re.compile(r"  (\d+) -> (\d+);")


def parse_dot(text):
    """The labels by node number and the edges (i, j) in text order of a DOT export."""
    lines = text.split("\n")
    assert lines[0].startswith("digraph dyck_lattice_") and lines[1] == "  rankdir=BT;"
    assert lines[-2:] == ["}", ""]
    labels, edges = [], []
    for line in lines[2:-2]:
        if node := DOT_NODE.fullmatch(line):
            # every node comes before the first edge, numbered from 0
            assert not edges and int(node[1]) == len(labels)
            labels.append(node[2])
        else:
            edges.append(tuple(map(int, DOT_EDGE.fullmatch(line).groups())))
    return labels, edges


def parse_edge_list(text):
    """The header line and the edges (i, j) in text order of an edge-list export."""
    header, *lines = text.split("\n")
    return header, [tuple(map(int, line.split(" "))) for line in lines]


def test_diagram_structure():
    # the exporter keeps no table: both exports are written from the walk
    assert HasseDiagram.__slots__ == ("n",)
    labels, edges = parse_dot(HasseDiagram.build(3).to_dot())
    assert labels == ["uuuddd", "uududd", "uuddud", "uduudd", "ududud"]
    assert edges == [(1, 0), (2, 1), (3, 1), (4, 2), (4, 3)]
    for n in range(7):
        d = HasseDiagram.build(n)
        labels, edges = parse_dot(d.to_dot())
        # canonical order reads u before d
        assert labels == sorted(dyck_words(n), key=lambda w: w.replace("u", "a").replace("d", "b"))
        assert parse_edge_list(d.to_edge_list()) == (f"# n={n} nodes={catalan_ref(n)}", edges)
        assert len(edges) == total_valleys(n) == sum(count_occurrences(w, "du") for w in labels)
        # grouped by the covered node, each group its covers in valley order
        assert [i for i, _ in edges] == sorted(i for i, _ in edges)
        for i, word in enumerate(labels):
            assert [labels[j] for k, j in edges if k == i] == covers(word)
        assert all(word_leq(labels[i], labels[j]) for i, j in edges)


def test_diagram_and_counts_at_the_boundaries():
    for n, word in ((0, ""), (1, "ud")):
        d = HasseDiagram.build(n)
        assert d.n == n
        assert parse_dot(d.to_dot()) == ([word], [])
        assert parse_edge_list(d.to_edge_list()) == (f"# n={n} nodes=1", [])
        assert d.to_dot() == f'digraph dyck_lattice_{n} {{\n  rankdir=BT;\n  0 [label="{word}"];\n}}\n'
        assert d.to_edge_list() == f"# n={n} nodes=1"
        # one element, rank 0: only the trivial chain
        assert count_saturated_chains(n, 0) == 1
        assert count_saturated_chains(n, 1) == 0
        assert count_saturated_chains(n, 5) == 0
    # h above the rank n(n-1)/2 at a larger n
    assert count_saturated_chains(5, 11) == 0
    with pytest.raises(ValueError, match="^semilength must be nonnegative$"):
        HasseDiagram.build(-1)
    with pytest.raises(ValueError):
        count_saturated_chains(3, -1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: count_saturated_chains(-1, 2), "semilength must be nonnegative"),
        (lambda: total_valleys(-1), "semilength must be nonnegative"),
        (lambda: valley_abscissae_sum(-1), "semilength must be nonnegative"),
        (lambda: generate_paths(-1), "semilength must be nonnegative"),
        (lambda: chain_count_via_shapes("ud", -1), "chain length must be nonnegative"),
        # The sign is checked before the cap, so -1 is negative, not above 0.
        (
            lambda: Limits(max_lattice_n=0).check("max_lattice_n", -1, "semilength"),
            "semilength must be nonnegative",
        ),
    ],
    ids=["chains", "valleys", "abscissae", "paths", "formula", "check"],
)
def test_negative_size_raises_value_error(call, message):
    # Limits.check makes the sign check of every capped size.
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


def test_dot_export():
    text = HasseDiagram.build(2).to_dot()
    assert text.splitlines() == [
        "digraph dyck_lattice_2 {",
        "  rankdir=BT;",
        '  0 [label="uudd"];',
        '  1 [label="udud"];',
        "  1 -> 0;",
        "}",
    ]


def test_exports_stream_the_same_text():
    for n in (0, 1, 4, 8):  # at n = 8, 1430 words and 5005 edges span two chunks
        d = HasseDiagram.build(n)
        out = io.StringIO()
        assert d.to_dot(out) is None
        assert out.getvalue() == d.to_dot()
        out = io.StringIO()
        assert d.to_edge_list(out) is None
        assert out.getvalue() == d.to_edge_list()


def _peak_bytes(call):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_chain_count_memory_is_two_round_buffers():
    # Building the word list, a word -> index dict and adjacency lists took
    # 4.05 MB at n = 10 for every h.  Two rank-indexed round buffers, each as
    # narrow as its count bound, and the temporaries of one packed block add
    # take 46,497 bytes at h = 3 (h = 2 keeps one buffer) and 0.30 MB at
    # (n, h) = (9, 30), whose count of 65 bits is past 64 bits,
    # so its rounds are lists; keeping every round's list there takes 4.1 MB.
    # h = 3, 4, 5 and 8 take one, two, three and six walks.
    count_saturated_chains(10, 1)  # imports and first-call set-up do not count
    cases = [(10, h) for h in (2, 3, 4, 5, 8)] + [(9, 30)]
    peaks = {(n, h): _peak_bytes(lambda: count_saturated_chains(n, h)) for n, h in cases}
    assert max(peaks.values()) < 2_000_000, peaks
    assert count_saturated_chains(9, 30).bit_length() > 64


def test_chain_count_memory_at_h3_is_below_one_list():
    # At h = 3 every stored count is at most (n - 1)^2 = 81 < 2^8 at n = 10,
    # so both rounds are bytearrays: 0.05 MB, where two lists took 0.28 MB
    # and one list's pointers alone take 8 bytes per word.
    count_saturated_chains(10, 1)  # imports and first-call set-up do not count
    peak = _peak_bytes(lambda: count_saturated_chains(10, 3))
    assert peak < 8 * catalan_ref(10), peak


class _Discard(io.TextIOBase):
    """A text sink that keeps nothing."""

    def write(self, text):
        return len(text)


def test_export_memory_does_not_grow_with_the_lattice():
    # At n = 10 (16796 words, 75582 edges) a word list and one cover list per
    # word took 6.3 MB for the DOT export and 6.0 MB for the edge list.
    # Written from the walk, they take 0.73 and 0.39 MB, and about as much
    # at n = 12: the cover-rank table and one chunk of lines.
    HasseDiagram.build(2).to_dot(_Discard())  # first-call set-up does not count
    for export in ("to_dot", "to_edge_list"):
        peak = _peak_bytes(lambda: getattr(HasseDiagram.build(10), export)(_Discard()))
        assert peak < 1_500_000, (export, peak)


def test_edge_list_export():
    text = HasseDiagram.build(3).to_edge_list()
    lines = text.splitlines()
    assert lines[0] == "# n=3 nodes=5"
    assert len(lines) - 1 == total_valleys(3)
    assert all(len(line.split()) == 2 for line in lines[1:])


def test_resource_cap():
    with pytest.raises(ResourceLimitError):
        count_saturated_chains(15, 2)
    with pytest.raises(ResourceLimitError):
        HasseDiagram.build(15)
    lowered = Limits(max_lattice_n=2)
    for capped in (
        lambda: count_saturated_chains(3, 2, lowered),
        lambda: HasseDiagram.build(3, lowered),
        lambda: total_valleys(3, lowered),
        lambda: valley_abscissae_sum(3, lowered),
    ):
        with pytest.raises(ResourceLimitError, match="semilength 3 exceeds the cap max_lattice_n=2"):
            capped()
    assert count_saturated_chains(3, 2, Limits(max_lattice_n=3)) == 4


def test_lattice_caches_are_bounded():
    for name, value in inspect.getmembers(lattice):
        if callable(getattr(value, "cache_parameters", None)):
            assert value.cache_parameters()["maxsize"] is not None, name
