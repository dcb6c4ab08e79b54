import math
from fractions import Fraction

import pytest

from conftest import boolean_chain_count, catalan_ref, chain3_main_term, polynomial_value
from dycklat import genseries
from dycklat import indices as ix
from dycklat.lattice import count_saturated_chains


def dyck_index(n, h):
    """The Hasse index of order h in {2, 3} of semilength-n paths, from the closed forms."""
    return ix.hasse_index(ix.dyck_chain_count_closed(n, h), ix.catalan(n))


def boolean_ratio(n, h):
    """The Hasse index of order h over its Boolean target n^h / 2^h."""
    return dyck_index(n, h) / Fraction(n**h, 2**h)


def test_combinatorial_helpers():
    assert ix.catalan(3) == 5
    assert [ix.catalan(n) for n in range(9)] == [catalan_ref(n) for n in range(9)]


def test_closed_forms_reproduce_sequences():
    assert [ix.sc2_closed(n) for n in range(10)] == [0, 0, 0, 4, 30, 168, 840, 3960, 18018, 80080]
    assert [ix.sc3_closed(n) for n in range(10)] == [0, 0, 0, 2, 38, 322, 2112, 12210, 65494, 334334]
    assert ix.sc3_closed(9) == 48620 * 668 * 7 // 680


def test_closed_forms_reject_negative_semilength():
    for closed in (ix.sc2_closed, ix.sc3_closed):
        assert closed(0) == closed(1) == 0
        with pytest.raises(ValueError, match="semilength must be nonnegative"):
            closed(-1)


def test_closed_forms_match_bruteforce():
    for n in range(9):
        assert ix.sc2_closed(n) == count_saturated_chains(n, 2)
        assert ix.sc3_closed(n) == count_saturated_chains(n, 3)


def test_divisions_stay_integral_up_to_200():
    for n in range(201):
        ix.sc2_closed(n)
        ix.sc3_closed(n)


def test_boolean_chain_counts():
    # the Boolean lattice of subsets of {1..n} has (n)_h 2^(n-h) chains of length h
    assert boolean_chain_count(3, 2) == 12
    assert boolean_chain_count(4, 0) == 16
    assert boolean_chain_count(2, 4) == 0
    for n in range(7):
        for h in range(5):
            assert boolean_chain_count(n, h) == (math.perm(n, h) << n - h if h <= n else 0)


def test_indices_exact_values():
    assert ix.hasse_index(4, 5) == Fraction(4, 5)
    assert dyck_index(3, 2) == Fraction(4, 5)
    assert dyck_index(3, 3) == Fraction(2, 5)
    with pytest.raises(ValueError):
        ix.hasse_index(1, 0)
    with pytest.raises(ValueError, match="no closed form for chain length 4"):
        ix.dyck_chain_count_closed(3, 4)


def test_boolean_index_formula():
    # the Boolean index of order h is (n)_h / 2^h, and 0 past h = n
    for n in range(8):
        for h in range(5):
            index = ix.hasse_index(boolean_chain_count(n, h), 2**n)
            assert index == Fraction(math.perm(n, h), 2**h)


def test_order2_index_quotient_form():
    for n in range(1, 13):
        assert dyck_index(n, 2) == Fraction((n - 1) * (n - 2) * (n + 1), 2 * (2 * n - 1))


def test_order2_ratio_formula_and_limit():
    assert boolean_ratio(5, 2) == Fraction(144, 225)
    for n in (2, 10, 100):
        assert boolean_ratio(n, 2) == Fraction(
            2 * (n - 1) * (n - 2) * (n + 1), (2 * n - 1) * n**2
        )
    assert abs(boolean_ratio(2000, 2) - 1) < Fraction(1, 500)


def test_order3_ratio_increases_toward_one():
    values = [boolean_ratio(n, 3) for n in range(10, 101)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v < 1 for v in values)
    assert values[-1] > Fraction(49, 50)


def test_polynomial_evaluation_is_exact():
    assert polynomial_value([1, -11, 39, -40, -22], Fraction(1, 4)) == Fraction(-3, 128)
    assert polynomial_value([], Fraction(1, 2)) == 0
    assert polynomial_value([3], 7) == 3


def test_sc3_darboux_data():
    # The main term's amplitude is -Q(1/4), Q the numerator the series route
    # derives, and its exponent 5/2.
    assert -polynomial_value(genseries.CHAINS3_Q_COEFFS, Fraction(1, 4)) == Fraction(3, 128)
    assert math.isclose(math.gamma(2.5), 3 * math.sqrt(math.pi) / 4)


def test_sc3_darboux_numerator_matches_the_series_route():
    # The main term reads Q from the series route; with that Q the closed-form
    # route must reproduce the derivative route and the exact counts.
    assert genseries.CHAINS3_Q_COEFFS == (1, -11, 39, -40, -22)
    order = 16
    closed = genseries.sc3_series_closed_form(order)
    assert closed == genseries.sc3_series_from_derivatives(order)
    assert genseries.integer_coefficients(closed)[:order] == [ix.sc3_closed(n) for n in range(order)]


def test_chain3_estimate_reduces_to_displayed_term():
    for n in range(1, 500):
        display = 2.0 ** (2 * n - 3) * n**1.5 / math.sqrt(math.pi)
        assert math.isclose(chain3_main_term(genseries.CHAINS3_Q_COEFFS, n), display), n


def test_chain3_estimate_is_the_general_estimate_one_index_on():
    # the length-3 main term is the general Darboux term at n, divided by the
    # singularity once more; this must equal the direct expression bit for bit
    amplitude = -polynomial_value(genseries.CHAINS3_Q_COEFFS, Fraction(1, 4))
    singularity = Fraction(1, 4)
    alpha = 2.5
    for n in range(1, 500):
        direct = (
            float(amplitude)
            * float(singularity) ** (-(n + 1))
            * n ** (alpha - 1.0)
            / math.gamma(alpha)
        )
        assert chain3_main_term(genseries.CHAINS3_Q_COEFFS, n) == direct, n
    with pytest.raises(ValueError):
        chain3_main_term(genseries.CHAINS3_Q_COEFFS, 0)


def test_chain3_estimate_converges():
    ratios = [chain3_main_term(genseries.CHAINS3_Q_COEFFS, n) / ix.sc3_closed(n) for n in range(9, 61)]
    assert 0.5 < ratios[0] < 2.0
    errors = [abs(r - 1) for r in ratios]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.05
