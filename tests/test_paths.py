import math
from bisect import bisect_left

import pytest
from hypothesis import given, strategies as st

from conftest import (
    catalan_ref,
    count_disjoint_placements,
    count_occurrences,
    dyck_words,
    profile as profile_ref,
    word_leq,
)
from dycklat.errors import InvalidWordError
from dycklat import paths
from dycklat.paths import (
    DyckPath,
    canonical_key,
    cover_drops,
    covers,
    fan_depth,
    fan_tables,
    fans,
    iter_words,
    occurrences,
    profile,
)


def semilengths(max_n=7):
    return st.integers(min_value=0, max_value=max_n)


@st.composite
def dyck_path_words(draw, max_n=7):
    n = draw(semilengths(max_n))
    return draw(st.sampled_from(dyck_words(n))) if n else ""


def test_order_of_semilength_three():
    assert list(iter_words(3)) == [
        "uuuddd",
        "uududd",
        "uuddud",
        "uduudd",
        "ududud",
    ]


def test_counts_are_catalan():
    for n in range(9):
        assert sum(1 for _ in iter_words(n)) == math.comb(2 * n, n) // (n + 1)


def test_generation_matches_reference_sets():
    for n in range(8):
        assert set(iter_words(n)) == set(dyck_words(n))


def test_iter_words_is_sorted_u_before_d():
    for n in range(7):
        words = list(iter_words(n))
        assert words == sorted(words, key=canonical_key)


def canonical_words(n):
    """The reference words of semilength n in canonical order (u before d)."""
    return sorted(dyck_words(n), key=lambda w: w.replace("u", "a").replace("d", "b"))


def own_drops(n, table, t):
    """The drops a fan's table in fan_tables(n) lists for the valleys its word t adds."""
    depth = fan_depth(n)
    return [d for d in table[2][t * depth:(t + 1) * depth] if d]


def expand_fans(n):
    """(word, drops) of each word, in rank order, expanded from fans(n): a
    fan's words are the reference words that share its packed word's first
    q0 steps, each with the packed word's drops and then its own ones."""
    reference = canonical_words(n)
    keys = [w.replace("u", "a").replace("d", "b") for w in reference]
    tables = fan_tables(n)
    words = []
    for steps, drops, q0 in fans(n):
        word = steps.decode()
        prefix = word[:q0].replace("u", "a").replace("d", "b")
        fan = reference[bisect_left(keys, prefix):bisect_left(keys, prefix + "c")]
        assert fan[0] == word
        size, suffixes, _ = tables[q0]
        assert size == len(fan) and suffixes.decode() == "".join(w[q0:] for w in fan)
        words += [(w, list(drops) + own_drops(n, tables[q0], t)) for t, w in enumerate(fan)]
    return words


def test_fans_expand_to_iter_words():
    # a fan moves the last D = min(4, n) u's, so Catalan(n - D) fans, one
    # for n <= 4, stand for the Catalan(n) words
    for n in range(11):
        assert fan_depth(n) == min(n, paths._DEPTH)
        expanded = [word for word, _ in expand_fans(n)]
        assert expanded == list(iter_words(n)) == canonical_words(n)
        assert sum(1 for _ in fans(n)) == catalan_ref(n - fan_depth(n))


def test_fan_covers_are_the_covers_of_its_words():
    # the valleys a fan's words add to its packed word's, last in valley
    # order, flip to words of the same fan, at the ranks fan_tables gives
    for n in range(10):
        r = 0
        words = list(iter_words(n))
        tables = fan_tables(n)
        for _, drops, q0 in fans(n):
            size = tables[q0][0]
            fan = words[r:r + size]
            for t, word in enumerate(fan):
                extra = own_drops(n, tables[q0], t)
                assert all(d <= t for d in extra)
                assert [fan[t - d] for d in extra] == covers(word)[len(drops):]
            r += size
        assert r == len(words)


def test_cover_ranks_by_arithmetic_are_positions_in_canonical_order():
    # each word's drops are the cover-drop arithmetic of its valleys, and in
    # valley order they send it to exactly its covers
    for n in range(10):
        table = cover_drops(n)
        expanded = expand_fans(n)
        words = [word for word, _ in expanded]
        for rank, (word, drops) in enumerate(expanded):
            heights = profile(word)
            assert drops == [table[i][heights[i]] for i in occurrences(word, "du")]
            assert [words[rank - d] for d in drops] == covers(word)


def test_cover_drops_are_valley_spans():
    # the drop of a valley is the number of words that share the prefix
    # through its u, which valley_abscissae_sum multiplies by
    for n in range(8):
        table = cover_drops(n)
        for word in dyck_words(n):
            heights = profile(word)
            for i in occurrences(word, "du"):
                span = sum(w.startswith(word[: i + 2]) for w in dyck_words(n))
                assert table[i][heights[i]] == span


def test_the_moving_valley_drops_by_one():
    # the valley right before the last u, at p, has only d's after that u,
    # so its flip gives the word just before in canonical order
    for n in range(15):
        table = cover_drops(n)
        assert all(table[p][2 * n - 2 - p] == 1 for p in range(n - 1, 2 * n - 2))


def test_fans_at_semilengths_zero_and_one():
    # below the depth the one fan, at q0 = 0, holds every word: the empty
    # word at n = 0 and ud at n = 1
    for n, word in ((0, b""), (1, b"ud")):
        assert [(bytes(s), list(d), q0) for s, d, q0 in fans(n)] == [(word, [], 0)]
        size, suffixes, drops = fan_tables(n)[0]
        assert (size, bytes(suffixes), list(drops)) == (1, word, [0] * n)
    assert list(iter_words(0)) == [""] and list(iter_words(1)) == ["ud"]
    for call in (fans, iter_words):
        with pytest.raises(ValueError):
            next(call(-1))
    for call in (fan_depth, fan_tables):
        with pytest.raises(ValueError):
            call(-1)


def test_one_fan_holds_every_word_up_to_the_depth():
    # with n <= 4 u's, a fan moves all of them from q0 = 0: one fan, the
    # table of every word; from n = 5 on the first fan keeps its first u
    for n in range(paths._DEPTH + 1):
        assert [(bytes(s), list(d), q0) for s, d, q0 in fans(n)] == [(b"u" * n + b"d" * n, [], 0)]
        size, suffixes, _ = fan_tables(n)[0]
        assert size == catalan_ref(n) and suffixes.decode() == "".join(canonical_words(n))
    n = paths._DEPTH + 1
    assert [q0 for _, _, q0 in fans(n)] == [1] and list(fan_tables(n)) == [1, 2]


@pytest.mark.parametrize(
    "word,position",
    [("ud" + "x" + "d", 2), ("du", 0), ("uudddu", 4), ("uudd" + "u" * 2, 6)],
)
def test_invalid_words_report_position(word, position):
    with pytest.raises(InvalidWordError) as err:
        DyckPath(word)
    assert err.value.position == position
    assert f"position {position}" in str(err.value)


def test_heights_and_valleys():
    p = DyckPath("uuddud")
    assert list(p.heights) == [0, 1, 2, 1, 0, 1, 0]
    assert p.heights == profile(p.word)
    assert occurrences(p.word, "du") == [3]


def test_upper_covers_of_smallest_path():
    assert sorted(covers("ududud")) == ["uduudd", "uuddud"]
    assert covers("uuuddd") == []
    assert covers("") == []


def test_profile_matches_reference():
    # profile also serves border words, which need not be Dyck words
    for n in range(6):
        for word in dyck_words(n):
            assert list(profile(word)) == profile_ref(word)
    for word in ("d", "dduu", "dudu", "uudu"):
        assert list(profile(word)) == profile_ref(word)


def test_profile_rejects_other_steps():
    for word in ("x", "udx", "uDd"):
        with pytest.raises(ValueError, match="invalid step"):
            profile(word)


def test_cover_relation_is_exact_on_small_lattices():
    # covers = lt & ~(lt∘lt): strictly-below pairs with nothing strictly
    # between, as bitset rows (bit j of lt[i] says words[i] < words[j])
    for n in range(2, 8):
        words = dyck_words(n)
        k = len(words)
        lt = [
            sum(1 << j for j, b in enumerate(words) if i != j and word_leq(a, b))
            for i, a in enumerate(words)
        ]
        for i, a in enumerate(words):
            lt_lt = 0
            for j in range(k):
                if lt[i] >> j & 1:
                    lt_lt |= lt[j]
            covers_ref = lt[i] & ~lt_lt
            ref = {words[j] for j in range(k) if covers_ref >> j & 1}
            assert set(covers(a)) == ref


def test_occurrences_allow_overlap():
    assert occurrences("udududud", "dud") == [1, 3, 5]
    assert len(occurrences("udududud", "du")) == 3


def test_count_disjoint_placements_examples():
    word = "udududud"
    # three du valleys, pairwise disjoint pairs of (du, du)
    assert count_disjoint_placements(word, ("du", "du")) == 3
    assert count_disjoint_placements(word, ("du",)) == 3
    assert count_disjoint_placements(word, ()) == 1
    # dud sits at 1, 3 and 5; only the outer pair is disjoint
    assert count_disjoint_placements(word, ("dud", "dud")) == 1


def test_count_disjoint_placements_is_unordered():
    word = "ududududud"
    assert count_disjoint_placements(word, ("du", "dud")) == count_disjoint_placements(
        word, ("dud", "du")
    )


@given(dyck_path_words())
def test_roundtrip_and_height_invariants(word):
    p = DyckPath(word)
    assert str(p) == word
    heights = list(p.heights)
    assert heights == profile_ref(word)
    assert heights[0] == 0 and heights[-1] == 0
    assert min(heights) >= 0
    assert len(p) == len(word)


@given(dyck_path_words(max_n=6))
def test_covers_are_covers(word):
    for cover in covers(word):
        assert word_leq(word, cover) and not word_leq(cover, word)
        # a flip changes exactly one position pair
        diffs = [i for i, (a, b) in enumerate(zip(word, cover)) if a != b]
        assert len(diffs) == 2 and diffs[1] == diffs[0] + 1


@given(dyck_path_words(max_n=6))
def test_number_of_covers_equals_number_of_valleys(word):
    assert len(covers(word)) == count_occurrences(word, "du")


@given(dyck_path_words(max_n=7), st.sampled_from(["du", "ud", "dud", "duu", "dduu"]))
def test_factor_counts_match_reference(word, factor):
    assert len(occurrences(word, factor)) == count_occurrences(word, factor)
    assert occurrences(word, factor) == [
        i for i in range(len(word)) if word.startswith(factor, i)
    ]
