import math
from fractions import Fraction

import pytest

from conftest import boolean_chain_count, catalan_ref
from dycklat import genseries
from dycklat import indices as ix
from dycklat.lattice import count_saturated_chains


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
    assert ix.sc_h_boolean(3, 2) == 12
    assert ix.sc_h_boolean(4, 0) == 16
    assert ix.sc_h_boolean(2, 4) == 0
    for n in range(7):
        for h in range(5):
            assert ix.sc_h_boolean(n, h) == boolean_chain_count(n, h)


def test_indices_exact_values():
    assert ix.hasse_index(4, 5) == Fraction(4, 5)
    assert ix.dyck_index(3, 2) == Fraction(4, 5)
    assert ix.dyck_index(3, 3) == Fraction(2, 5)
    assert ix.boolean_index(4, 2) == 3
    with pytest.raises(ValueError):
        ix.hasse_index(1, 0)
    with pytest.raises(ValueError):
        ix.dyck_index(3, 4)


def test_boolean_index_formula():
    for n in range(8):
        for h in range(5):
            expected = Fraction(ix.sc_h_boolean(n, h), 2**n) if h <= n else 0
            assert ix.boolean_index(n, h) == expected


def test_order2_index_quotient_form():
    for n in range(1, 13):
        assert ix.dyck_index(n, 2) == Fraction((n - 1) * (n - 2) * (n + 1), 2 * (2 * n - 1))


def test_order2_ratio_formula_and_limit():
    assert ix.boolean_ratio(5, 2) == Fraction(144, 225)
    for n in (2, 10, 100):
        assert ix.boolean_ratio(n, 2) == Fraction(
            2 * (n - 1) * (n - 2) * (n + 1), (2 * n - 1) * n**2
        )
    assert abs(ix.boolean_ratio(2000, 2) - 1) < Fraction(1, 500)


def test_order3_ratio_increases_toward_one():
    values = [ix.boolean_ratio(n, 3) for n in range(10, 101)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v < 1 for v in values)
    assert values[-1] > Fraction(49, 50)


def test_polynomial_evaluation_is_exact():
    assert ix.polynomial_value([1, -11, 39, -40, -22], Fraction(1, 4)) == Fraction(-3, 128)
    assert ix.polynomial_value([], Fraction(1, 2)) == 0
    assert ix.polynomial_value([3], 7) == 3


def test_darboux_input_validation():
    with pytest.raises(ValueError):
        ix.DarbouxInput((1,), 0, Fraction(5, 2))
    with pytest.raises(ValueError):
        ix.DarbouxInput((1,), Fraction(1, 4), -1)
    with pytest.raises(ValueError):
        ix.DarbouxInput((1,), Fraction(1, 4), Fraction(5, 2), sign=2)


def test_sc3_darboux_data():
    d = ix.CHAIN3_DARBOUX
    assert d.amplitude() == Fraction(3, 128)
    assert math.isclose(math.gamma(float(d.exponent)), 3 * math.sqrt(math.pi) / 4)


def test_sc3_darboux_numerator_matches_the_series_route():
    # indices keeps its own copy of Q so that it never imports the series route.
    assert ix.CHAIN3_DARBOUX.psi_coefficients == genseries.CHAINS3_Q_COEFFS


def test_darboux_estimate_general_form():
    d = ix.DarbouxInput((1,), Fraction(1, 4), Fraction(1, 2), sign=1)
    # (1-4x)^(-1/2) has coefficients C(2n, n)
    for n in (10, 40):
        approx = ix.darboux_estimate(d, n)
        exact = math.comb(2 * n, n)
        assert abs(approx / exact - 1) < 0.1


def test_chain3_estimate_reduces_to_displayed_term():
    for n in (9, 30):
        display = 2.0 ** (2 * n - 3) * n**1.5 / math.sqrt(math.pi)
        assert math.isclose(ix.chain3_darboux_estimate(n), display)


def test_chain3_estimate_is_the_general_estimate_one_index_on():
    # the length-3 estimate is darboux_estimate at n, divided by the
    # singularity once more; this must equal the direct expression bit for bit
    d = ix.CHAIN3_DARBOUX
    alpha = float(d.exponent)
    for n in range(1, 500):
        direct = (
            float(d.amplitude())
            * float(d.singularity) ** (-(n + 1))
            * n ** (alpha - 1.0)
            / math.gamma(alpha)
        )
        assert ix.chain3_darboux_estimate(n) == direct, n
    with pytest.raises(ValueError):
        ix.chain3_darboux_estimate(0)


def test_chain3_estimate_converges():
    ratios = [ix.chain3_darboux_estimate(n) / ix.sc3_closed(n) for n in range(9, 61)]
    assert 0.5 < ratios[0] < 2.0
    errors = [abs(r - 1) for r in ratios]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.05
