from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    catalan_ref,
    count_chains_from,
    count_disjoint_placements,
    count_occurrences,
    dyck_words,
    profile,
    random_dyck_words,
    rotate_to_dyck,
)
from dycklat.errors import InvalidWordError, ResourceLimitError
from dycklat.formula import (
    chain_column_via_shapes,
    chain_count_via_shapes,
    total_chains_via_shapes,
)
from dycklat.indices import sc2_closed, sc3_closed
from dycklat.lattice import count_saturated_chains, total_valleys
from dycklat.limits import Limits


def chains_by_factor_counts(word, h):
    """Chains of length 2 or 3 from word, by the paper's factor identities.

    The terms group the placements by their area multiset: one shape of
    area h, then disjoint smaller shapes times their interleavings.
    """
    if h == 2:
        single = count_occurrences(word, "ddu") + count_occurrences(word, "duu")
        return single + 2 * count_disjoint_placements(word, ("du", "du"))
    single = (
        count_occurrences(word, "dddu")
        + count_occurrences(word, "duuu")
        + 2 * count_occurrences(word, "dduu")
        + 2 * count_occurrences(word, "dudu")
    )
    mixed = count_disjoint_placements(word, ("du", "ddu")) + count_disjoint_placements(
        word, ("du", "duu")
    )
    return single + 3 * mixed + 6 * count_disjoint_placements(word, ("du", "du", "du"))


def test_single_path_examples():
    assert chain_count_via_shapes("ududud", 2) == 2
    assert chain_count_via_shapes("uuddud", 2) == 1
    assert chain_count_via_shapes("uuuddd", 1) == 0
    assert chain_count_via_shapes("ududud", 0) == 1


def test_length2_contributions_regroup_into_factor_counts():
    # #ddu + #duu for one shape of area 2, 2 * disjoint (du, du) for two flips
    for n in range(8):
        for word in dyck_words(n):
            assert chain_count_via_shapes(word, 2) == chains_by_factor_counts(word, 2), word


def test_length3_contributions_regroup_into_factor_counts():
    for n in range(7):
        for word in dyck_words(n):
            assert chain_count_via_shapes(word, 3) == chains_by_factor_counts(word, 3), word


def test_per_path_agreement_with_bruteforce():
    for n in range(1, 7):
        for word in dyck_words(n):
            for h in range(5):
                assert chain_count_via_shapes(word, h) == count_chains_from(word, h)


def test_totals_agree_with_bruteforce():
    for n in range(7):
        for h in range(5):
            assert total_chains_via_shapes(n, h) == count_saturated_chains(n, h)


def test_length5_totals_small():
    for n in (5, 6):
        assert total_chains_via_shapes(n, 5) == count_saturated_chains(n, 5)


def test_chain_length_cap():
    # the shape cap bounds the chain length: a chain of length h needs areas up to h
    with pytest.raises(ResourceLimitError, match="area 7 exceeds the cap max_shape_area=6"):
        chain_count_via_shapes("uudd", 7)
    assert chain_count_via_shapes("uudd", 7, Limits(max_shape_area=7)) == 0
    assert chain_count_via_shapes("uudd", 6) == 0
    with pytest.raises(ResourceLimitError):
        total_chains_via_shapes(201, 2)
    # a lowered cap passed as Limits raises in the library
    with pytest.raises(ResourceLimitError):
        total_chains_via_shapes(3, 2, Limits(max_closed_n=2))
    # the placements consult the passed shape cap, not a default, both ways
    with pytest.raises(ResourceLimitError):
        chain_count_via_shapes("uudd", 2, Limits(max_shape_area=1))
    word = "ududududud"
    with pytest.raises(ResourceLimitError):
        chain_count_via_shapes(word, 7)
    raised = Limits(max_shape_area=7)
    assert chain_count_via_shapes(word, 7, raised) == count_chains_from(word, 7)


def test_single_path_boundaries():
    assert [chain_count_via_shapes("", h) for h in range(6)] == [1, 0, 0, 0, 0, 0]
    # the top path u^n d^n has no valley, so no chain leaves it
    for n in range(9):
        top = "u" * n + "d" * n
        assert [chain_count_via_shapes(top, h) for h in range(1, 6)] == [0] * 5, n
    # from a word, the longest chains reach the top path, one cell per step
    raised = Limits(max_shape_area=7)
    for n in range(5):
        top = sum(profile("u" * n + "d" * n))
        for word in dyck_words(n):
            h = (top - sum(profile(word))) // 2
            count = chain_count_via_shapes(word, h, raised)
            assert count > 0, word
            assert count == count_chains_from(word, h), word
            assert chain_count_via_shapes(word, h + 1, raised) == 0, word


def test_negative_caps_are_rejected():
    with pytest.raises(ValueError, match="max_shape_area must be nonnegative"):
        Limits(max_shape_area=-1)
    assert chain_count_via_shapes("ud", 0, Limits(max_shape_area=0)) == 1


def test_cycle_lemma_rotation_is_uniform():
    for n in range(5):
        length = 2 * n + 1
        found = Counter(
            rotate_to_dyck("".join("u" if i in ups else "d" for i in range(length)))
            for ups in map(set, combinations(range(length), n))
        )
        assert found == {word: length for word in dyck_words(n)}


def test_non_dyck_words_are_rejected():
    for word, h in (("dudu", 1), ("dduu", 2), ("uud", 1), ("uxdd", 0)):
        with pytest.raises(InvalidWordError):
            chain_count_via_shapes(word, h)
    assert chain_count_via_shapes("udud", 1) == 1


@settings(deadline=None)
@given(random_dyck_words(max_n=30), st.integers(min_value=0, max_value=5))
def test_formula_equals_bruteforce_on_samples(word, h):
    assert chain_count_via_shapes(word, h) == count_chains_from(word, h)
    assert chain_count_via_shapes(word, 2) == chains_by_factor_counts(word, 2)
    assert chain_count_via_shapes(word, 3) == chains_by_factor_counts(word, 3)


def test_lattice_dp_equals_sum_over_paths():
    for n in range(9):
        words = dyck_words(n)
        for h in range(6):
            assert total_chains_via_shapes(n, h) == sum(
                chain_count_via_shapes(w, h) for w in words
            ), (n, h)


def test_lattice_dp_equals_bruteforce():
    for n in range(11):
        for h in range(6):
            assert total_chains_via_shapes(n, h) == count_saturated_chains(n, h), (n, h)


def test_lattice_dp_equals_closed_forms_beyond_the_lattice_cap():
    # the formula lists no paths, so max_closed_n, not max_lattice_n, bounds it
    for n in range(61):
        assert total_chains_via_shapes(n, 2) == sc2_closed(n), n
        assert total_chains_via_shapes(n, 3) == sc3_closed(n), n


def test_lattice_dp_boundaries():
    for n in range(15):
        assert total_chains_via_shapes(n, 0) == catalan_ref(n)
    assert [total_chains_via_shapes(0, h) for h in range(6)] == [1, 0, 0, 0, 0, 0]
    assert [total_chains_via_shapes(1, h) for h in range(6)] == [1, 0, 0, 0, 0, 0]
    # the lattice of semilength n has height n(n-1)/2
    raised = Limits(max_shape_area=7)
    for n in range(2, 5):
        top = n * (n - 1) // 2
        assert total_chains_via_shapes(n, top, raised) > 0
        for h in range(top + 1, 8):
            assert total_chains_via_shapes(n, h, raised) == 0, (n, h)


def test_lattice_dp_above_the_default_caps():
    raised = Limits(max_shape_area=7)
    for n in range(6):
        for h in (6, 7):
            assert total_chains_via_shapes(n, h, raised) == count_saturated_chains(n, h), (n, h)


def test_lattice_dp_caps():
    for n in (0, 3):
        with pytest.raises(ResourceLimitError, match="area 6 exceeds the cap max_shape_area=5"):
            total_chains_via_shapes(n, 6, Limits(max_shape_area=5))
        with pytest.raises(ResourceLimitError, match="area 7 exceeds the cap max_shape_area=6"):
            total_chains_via_shapes(n, 7)
        with pytest.raises(ResourceLimitError, match="max_shape_area=1"):
            total_chains_via_shapes(n, 2, Limits(max_shape_area=1))
    with pytest.raises(ResourceLimitError, match="semilength 201 exceeds the cap max_closed_n=200"):
        total_chains_via_shapes(201, 0)
    with pytest.raises(ResourceLimitError, match="semilength 61 exceeds the cap max_closed_n=60"):
        total_chains_via_shapes(61, 2, Limits(max_closed_n=60))


def test_column_equals_bruteforce():
    for h in range(6):
        assert chain_column_via_shapes(9, h) == [count_saturated_chains(n, h) for n in range(10)], h


def test_column_at_the_default_caps():
    # h = 6 and n = 200 are the default max_shape_area and max_closed_n
    column = chain_column_via_shapes(200, 6)
    assert len(column) == 201
    assert column[:10] == [count_saturated_chains(n, 6) for n in range(10)]


def test_column_keeps_every_shorter_count():
    # one DP of length 60 prunes less than the DP of length 2m, so entry m
    # must still equal the count the length-2m DP gives on its own
    for h in (4, 5):
        column = chain_column_via_shapes(30, h)
        assert len(column) == 31
        assert column == [total_chains_via_shapes(m, h) for m in range(31)], h


def test_column_boundaries():
    assert [chain_column_via_shapes(0, h) for h in range(6)] == [[1]] + [[0]] * 5
    assert [chain_column_via_shapes(1, h) for h in range(6)] == [[1, 1]] + [[0, 0]] * 5
    assert chain_column_via_shapes(14, 0) == [catalan_ref(n) for n in range(15)]
    assert chain_column_via_shapes(9, 1) == [total_valleys(n) for n in range(10)]
    # the lattice of semilength n has height n(n-1)/2: 6 at n = 4
    raised = Limits(max_shape_area=7)
    assert chain_column_via_shapes(4, 7, raised) == [0] * 5
    column = chain_column_via_shapes(4, 6, raised)
    assert column[:4] == [0] * 4 and column[4] == count_saturated_chains(4, 6)


@pytest.mark.parametrize(
    "n, h, limits, error, message",
    [
        (15, 2, Limits(max_closed_n=14), ResourceLimitError, "semilength 15 exceeds the cap max_closed_n=14"),
        (201, 2, Limits(), ResourceLimitError, "semilength 201 exceeds the cap max_closed_n=200"),
        (3, 7, Limits(), ResourceLimitError, "area 7 exceeds the cap max_shape_area=6"),
        (3, 6, Limits(max_shape_area=5), ResourceLimitError, "area 6 exceeds"),
        (3, 2, Limits(max_shape_area=1), ResourceLimitError, "max_shape_area=1"),
        (-1, 2, Limits(), ValueError, "semilength must be nonnegative"),
        (3, -1, Limits(), ValueError, "chain length must be nonnegative"),
    ],
)
def test_column_raises_as_the_total_does(n, h, limits, error, message):
    for count in (chain_column_via_shapes, total_chains_via_shapes):
        with pytest.raises(error, match=message):
            count(n, h, limits)
