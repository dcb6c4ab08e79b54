import inspect

import pytest
from hypothesis import given, strategies as st

from conftest import (
    dyck_words,
    mirror,
    shape_cells,
    tableau_count_by_linear_extensions,
    word_leq,
)
from dycklat import shapes as shapes_module
from dycklat.errors import ResourceLimitError
from dycklat.limits import Limits
from dycklat.shapes import SkewShape, enumerate_shapes, shapes_with_border


def test_shape_counts_by_area():
    assert [len(enumerate_shapes(a)) for a in range(1, 6)] == [1, 2, 4, 9, 20]


def test_area_one_and_two():
    (only,) = enumerate_shapes(1)
    assert (only.lower, only.upper) == ("du", "ud")
    assert only.tableau_count() == 1
    assert {(s.lower, s.upper) for s in enumerate_shapes(2)} == {
        ("ddu", "udd"),
        ("duu", "uud"),
    }
    assert [s.tableau_count() for s in enumerate_shapes(2)] == [1, 1]


def test_area_three_borders_and_tableaux():
    shapes = enumerate_shapes(3)
    by_border = {s.lower: s.tableau_count() for s in shapes}
    assert by_border == {"dddu": 1, "duuu": 1, "dduu": 2, "dudu": 2}


def test_border_lookup():
    (s,) = shapes_with_border(2, "ddu")
    assert s.upper == "udd"
    (s,) = shapes_with_border(3, "dudu")
    assert s.upper == "uudd"
    assert shapes_with_border(1, "ud") == ()
    assert shapes_with_border(3, "ddu") == ()


def test_square_shape_has_two_fillings():
    (s,) = [s for s in enumerate_shapes(4) if (s.lower, s.upper) == ("dduu", "uudd")]
    assert s.tableau_count() == 2


def test_interior_contact_is_rejected():
    # uppermore word touching the lower one mid-shape is not a shape
    with pytest.raises(ValueError):
        SkewShape("dudu", "udud")
    with pytest.raises(ValueError):
        SkewShape("du", "du")
    with pytest.raises(ValueError):
        SkewShape("dud", "udd")  # the borders touch at interior point 2
    with pytest.raises(ValueError):
        SkewShape("udu", "uud")  # lower must start with d
    with pytest.raises(ValueError):
        SkewShape("ddu", "ud")  # length mismatch


def test_tableau_counts_match_linear_extension_oracle():
    for area in range(1, 6):
        for s in enumerate_shapes(area):
            assert s.tableau_count() == tableau_count_by_linear_extensions(
                s.lower, s.upper
            ), (s.lower, s.upper)


def test_single_filling_iff_cell_poset_is_a_chain():
    for area in range(1, 6):
        for s in enumerate_shapes(area):
            cells = shape_cells(s.lower, s.upper)
            assert len(cells) == s.area
            order = {
                c: {p for p in ((c[0] - 1, c[1] - 1), (c[0] + 1, c[1] - 1)) if p in cells}
                for c in cells
            }
            for c in cells:  # transitive closure
                stack = list(order[c])
                while stack:
                    p = stack.pop()
                    for q in order[p] - order[c]:
                        order[c].add(q)
                        stack.append(q)
            chain = all(
                a in order[b] or b in order[a] for a in cells for b in cells if a != b
            )
            assert (s.tableau_count() == 1) == chain


def test_mirror_is_an_area_preserving_involution():
    for area in range(1, 6):
        shapes = set(enumerate_shapes(area))
        for s in shapes:
            m = SkewShape(mirror(s.lower), mirror(s.upper))
            assert m in shapes
            assert m.area == s.area
            assert (mirror(m.lower), mirror(m.upper)) == (s.lower, s.upper)
            assert m.tableau_count() == s.tableau_count()


def test_borders_start_down_end_up():
    for area in range(1, 6):
        for s in enumerate_shapes(area):
            assert s.lower.startswith("d") and s.lower.endswith("u")
            assert s.upper.startswith("u") and s.upper.endswith("d")


def test_area_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_shapes(7)
    with pytest.raises(ResourceLimitError):
        shapes_with_border(7, "du")
    lowered = Limits(max_shape_area=2)
    with pytest.raises(ResourceLimitError):
        enumerate_shapes(3, lowered)
    with pytest.raises(ResourceLimitError):
        shapes_with_border(3, "ddu", lowered)
    with pytest.raises(ResourceLimitError):
        enumerate_shapes(3)[0].tableau_count(lowered)
    assert len(enumerate_shapes(3, Limits(max_shape_area=3))) == 4


@given(st.integers(min_value=2, max_value=5), st.data())
def test_placing_a_shape_on_its_border_climbs_the_order(n, data):
    # substituting the upper word for a border occurrence yields a
    # dominating path; this is what grounds the placement formula
    word = data.draw(st.sampled_from(dyck_words(n)))
    area = data.draw(st.integers(min_value=1, max_value=4))
    for s in enumerate_shapes(area):
        start = word.find(s.lower)
        if start == -1:
            continue
        lifted = word[:start] + s.upper + word[start + len(s.lower):]
        assert lifted in dyck_words(n)
        assert word_leq(word, lifted) and word != lifted


def test_shapes_caches_are_bounded():
    cached = [
        (name, value)
        for name, value in inspect.getmembers(shapes_module)
        if callable(getattr(value, "cache_parameters", None))
    ]
    assert cached
    for name, value in cached:
        assert value.cache_parameters()["maxsize"] is not None, name
