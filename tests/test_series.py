from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dycklat.errors import SeriesError, SolveError
from dycklat.series import Poly, TruncatedSeries, check_degree_bound, solve_polynomial

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def series_from(coeffs, order=None):
    return TruncatedSeries.polynomial(coeffs, order=order if order is not None else len(coeffs) - 1)


class TestPoly:
    def test_construction_and_str(self):
        q = Poly.variable("q", ("q",))
        p = q * q - 2 * q + 1
        assert str(p) == "q^2 - 2*q + 1"
        assert p.degree("q") == 2
        assert (q - q).degree("q") == -1

    def test_arithmetic(self):
        q = Poly.variable("q", ("q",))
        assert (1 - q) * (1 + q) == 1 - q * q
        assert (q + 1) ** 3 == q**3 + 3 * q**2 + 3 * q + 1
        assert (q * 4) / 2 == 2 * q

    def test_substitution(self):
        q = Poly.variable("q", ("q",))
        y = Poly.variable("y", ("q", "y"))
        qy = Poly.variable("q", ("q", "y"))
        assert (q**2 + 1).subs({"q": Fraction(1, 2)}) == Fraction(5, 4)
        mixed = qy * y + qy
        assert mixed.subs({"y": 1}) == 2 * q
        assert mixed.subs({"q": 1, "y": 1}) == 2

    def test_derivative(self):
        q = Poly.variable("q", ("q",))
        assert (q**3).derivative("q") == 3 * q**2
        assert Poly.constant(5, ("q",)).derivative("q") == 0

    def test_integral_coefficients_are_stored_as_int(self):
        p = Poly(("q",), {(1,): Fraction(4, 2), (0,): Fraction(1, 2)})
        assert type(p.terms[(1,)]) is int
        assert p.terms[(1,)] == 2
        assert type(p.terms[(0,)]) is Fraction
        q = Poly.variable("q", ("q",))
        assert all(type(c) is int for c in ((q + 1) ** 4).terms.values())
        assert all(type(c) is int for c in ((q * 3) / 3).terms.values())

    def test_int_coefficients_print_and_compare_as_before(self):
        q = Poly.variable("q", ("q",))
        assert str(Fraction(6, 2) * q + Fraction(1, 2)) == "3*q + 1/2"
        assert str(Poly.constant(Fraction(-4, 2), ("q",))) == "-2"
        assert Poly.constant(Fraction(4, 2), ("q",)) == 2
        assert Poly.constant(2, ("q",)) == Fraction(2)
        assert Poly.constant(Fraction(1, 2), ("q",)) == Fraction(1, 2)
        assert Poly.constant(Fraction(1, 2), ("q",)) != 0
        assert q * Fraction(2) == 2 * q
        assert type(Poly.constant(3, ("q",)).constant_value()) is Fraction
        assert type((q + 1).subs({"q": 1})) is Fraction

    def test_exact_monomial_division(self):
        q = Poly.variable("q", ("q",))
        assert (q**2 + q).shifted_down("q", 1) == q + 1
        with pytest.raises(SeriesError):
            (q + 1).shifted_down("q", 1)


class TestSeriesRing:
    def test_basic_ops(self):
        a = series_from([1, 2, 3])
        b = series_from([0, 1, 1])
        assert (a + b).coefficients() == [1, 3, 4]
        assert (a - b).coefficients() == [1, 1, 2]
        assert (a * b).coefficients() == [0, 1, 3]
        assert (2 * a).coefficients() == [2, 4, 6]
        assert (a - 1).coefficients() == [0, 2, 3]

    def test_product_order_tracks_valuations(self):
        a = series_from([0, 0, 1], order=4)  # valuation 2, order 4
        b = series_from([0, 1], order=3)  # valuation 1, order 3
        assert (a * b).order == 5
        assert (a * b).coefficients() == [0, 0, 0, 1, 0, 0]

    def test_coeff_beyond_order_raises(self):
        a = series_from([1, 1])
        assert a.coeff(1) == 1
        with pytest.raises(SeriesError):
            a.coeff(2)

    def test_division_needs_invertible_constant(self):
        a = series_from([1, 1, 1])
        assert (a / a).coefficients() == [1, 0, 0]
        with pytest.raises(SeriesError):
            a / series_from([0, 1, 1])
        q = Poly.variable("q", ("q",))
        numer = TruncatedSeries.polynomial([1, 1, 1], order=2, variables=("q",))
        nonscalar = TruncatedSeries.polynomial([q + 1, 1], order=2, variables=("q",))
        with pytest.raises(SeriesError):
            numer / nonscalar

    def test_shift_mul_and_div(self):
        a = series_from([1, 2])
        assert a.shift_mul_x().coefficients() == [0, 1, 2]
        assert a.shift_mul_x(2).order == 3
        back = a.shift_mul_x(2).shift_div_x(2)
        assert back.coefficients() == [1, 2]
        with pytest.raises(SeriesError):
            series_from([1, 1]).shift_div_x()

    def test_monomial_division_in_aux_variable(self):
        q = Poly.variable("q", ("q",))
        s = TruncatedSeries.polynomial([2 * q, 4 * q**2], order=1, variables=("q",))
        assert s.div_monomial(2, "q").coefficients() == [1, 2 * q]
        with pytest.raises(SeriesError):
            TruncatedSeries.polynomial([q + 1], order=0, variables=("q",)).div_monomial(1, "q")

    def test_sqrt_roundtrip(self):
        s = series_from([1, -4], order=12).sqrt()
        assert (s * s).coefficients() == [1, -4] + [0] * 11
        with pytest.raises(SeriesError):
            series_from([2, 1]).sqrt()

    def test_sqrt_of_catalan_radicand(self):
        # 1 - sqrt(1-4x) = 2x * (Catalan series)
        s = series_from([1, -4], order=8).sqrt()
        cat = (series_from([1], order=8) - s).shift_div_x() / 2
        assert cat.coefficients() == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_derivative_and_subs(self):
        q = Poly.variable("q", ("q",))
        s = TruncatedSeries.polynomial([1, q, q**2], order=2, variables=("q",))
        ds = s.derivative("q")
        assert ds.coefficients() == [0, 1, 2 * q]
        plain = s.subs(q=2)
        assert plain.coefficients() == [1, 2, 4]
        assert plain.vars == ()

    def test_equality_compares_shared_prefix(self):
        assert series_from([1, 2]) == series_from([1, 2, 0, 0])
        assert series_from([1, 2]) != series_from([1, 3])
        assert TruncatedSeries.polynomial([5], order=3) == 5

    @given(st.lists(rationals, min_size=1, max_size=6), st.lists(rationals, min_size=1, max_size=6))
    def test_mul_commutes_and_distributes(self, xs, ys):
        a, b = series_from(xs), series_from(ys)
        assert a * b == b * a
        assert a * (b + b) == a * b + a * b

    @given(st.lists(rationals, min_size=2, max_size=6))
    def test_division_roundtrip(self, xs):
        xs[0] = Fraction(1)
        a = series_from(xs)
        b = series_from([1, 3, 1], order=len(xs) - 1)
        assert (a * b) / b == a


class TestNewtonSolver:
    def test_catalan_from_quadratic(self):
        # x*C^2 - C + 1 = 0
        c0 = series_from([1], order=10)
        c1 = series_from([-1], order=10)
        c2 = series_from([0, 1], order=10)
        sol = solve_polynomial([c0, c1, c2], 1)
        assert sol.coefficients() == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]

    def test_motzkin_from_quadratic(self):
        # x^2*M^2 + (x-1)*M + 1 = 0
        c0 = series_from([1], order=8)
        c1 = series_from([-1, 1], order=8)
        c2 = series_from([0, 0, 1], order=8)
        sol = solve_polynomial([c0, c1, c2], 1)
        assert sol.coefficients() == [1, 1, 2, 4, 9, 21, 51, 127, 323]

    def test_seed_must_be_a_root(self):
        c0 = series_from([1], order=5)
        c1 = series_from([-1], order=5)
        c2 = series_from([0, 1], order=5)
        with pytest.raises(SolveError):
            solve_polynomial([c0, c1, c2], 2)

    def test_root_must_be_simple(self):
        # P(T) = (T-1)^2 has a double root at the seed
        c0 = series_from([1], order=5)
        c1 = series_from([-2], order=5)
        c2 = series_from([1], order=5)
        with pytest.raises(SolveError):
            solve_polynomial([c0, c1, c2], 1)

    def test_degree_bound_check(self):
        q = Poly.variable("q", ("q",))
        fine = TruncatedSeries.polynomial([1, q], order=1, variables=("q",))
        check_degree_bound(fine)
        bad = TruncatedSeries.polynomial([1, q**2], order=1, variables=("q",))
        with pytest.raises(SeriesError):
            check_degree_bound(bad)
