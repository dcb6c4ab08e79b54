import math

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
from dycklat.errors import InvalidWordError, ResourceLimitError
from dycklat.limits import Limits
from dycklat.paths import (
    DyckPath,
    canonical_key,
    cover_drops,
    covers,
    fan_drops,
    fans,
    generate_paths,
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
    assert [str(p) for p in generate_paths(3)] == [
        "uuuddd",
        "uududd",
        "uuddud",
        "uduudd",
        "ududud",
    ]


def test_counts_are_catalan():
    for n in range(9):
        assert len(generate_paths(n)) == math.comb(2 * n, n) // (n + 1)


def test_generation_matches_reference_sets():
    for n in range(8):
        assert {str(p) for p in generate_paths(n)} == set(dyck_words(n))


def test_iter_words_is_sorted_u_before_d():
    for n in range(7):
        words = list(iter_words(n))
        assert words == sorted(words, key=canonical_key)


def expand_fans(n):
    """(word, drops) of each word, in rank order, expanded from fans(n): run
    by run, the level n - 2 u at q and the last u j steps behind it, with
    the packed word's drops and then the ones fan_drops lists."""
    words = []
    for steps, drops, q0 in fans(n):
        word = steps.decode()
        prefix, rest = word[:q0], word[q0:]
        assert rest == "uu" + "d" * (len(rest) - 2)
        moved = [
            prefix + "d" * (q - q0) + "u" + "d" * j + "u" + "d" * (2 * n - q - j - 2)
            for q in range(q0, 2 * n - 3)
            for j in range(2 * n - 2 - q)
        ]
        assert moved[0] == word
        extras = fan_drops(n, q0)
        assert len(extras) == len(moved)
        words += [(w, list(drops) + list(extra)) for w, extra in zip(moved, extras)]
    return words


def test_fans_expand_to_iter_words():
    for n in range(2, 11):
        assert [word for word, _ in expand_fans(n)] == list(iter_words(n))
        assert sum(1 for _ in fans(n)) == catalan_ref(n - 2)


def test_fan_covers_are_the_covers_of_its_words():
    # the valleys a fan's words add to its packed word's, last in valley
    # order, flip to words of the same fan, at the ranks fan_drops gives
    for n in range(2, 10):
        r = 0
        words = list(iter_words(n))
        for _, drops, q0 in fans(n):
            extras = fan_drops(n, q0)
            fan = words[r:r + len(extras)]
            for t, (word, extra) in enumerate(zip(fan, extras)):
                assert all(d <= t for d in extra)
                assert [fan[t - d] for d in extra] == covers(word)[len(drops):]
            r += len(extras)
        assert r == len(words)


def test_cover_ranks_by_arithmetic_are_positions_in_canonical_order():
    # each word's drops are the cover-drop arithmetic of its valleys, and in
    # valley order they send it to exactly its covers
    for n in range(10):
        table = cover_drops(n)
        expanded = expand_fans(n) if n >= 2 else [(word, []) for word in iter_words(n)]
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
    # the valley of the last u at p has only d's after its u, so each word
    # of a run has drop 1 for it after the packed word's drops
    for n in range(15):
        table = cover_drops(n)
        assert all(table[p][2 * n - 2 - p] == 1 for p in range(n - 1, 2 * n - 2))


def test_fans_at_semilengths_zero_and_one():
    # the one word has no two u's to move, so there is no fan
    assert list(fans(0)) == [] and list(fans(1)) == []
    assert list(iter_words(0)) == [""] and list(iter_words(1)) == ["ud"]
    assert [(bytes(s), list(d), q0) for s, d, q0 in fans(2)] == [(b"uudd", [], 0)]
    assert fan_drops(2, 0) == [(), (1,)]
    with pytest.raises(ValueError):
        next(fans(-1))
    with pytest.raises(ValueError):
        next(iter_words(-1))


def test_semilength_cap():
    with pytest.raises(ResourceLimitError):
        generate_paths(15)
    # the passed cap is the one consulted, in both directions
    with pytest.raises(ResourceLimitError):
        generate_paths(3, Limits(max_lattice_n=2))
    assert len(generate_paths(3, Limits(max_lattice_n=3))) == 5


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
