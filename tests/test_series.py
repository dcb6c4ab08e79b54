from fractions import Fraction
from math import comb

import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import series_div_terms, series_mul_terms, terms_mul
from dycklat import series as series_module
from dycklat.errors import SeriesError, SolveError
from dycklat.series import (
    JET_ORDER,
    Jet,
    Poly,
    TruncatedSeries,
    check_degree_bound,
    solve_polynomial,
)

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

    def test_adding_zero_and_multiplying_by_one_return_the_operand(self):
        # a Poly is never changed after __init__, so these identities hand back
        # the operand instead of copying and re-cleaning its terms
        q = Poly.variable("q", QY)
        p = q * q - 2 * q + 1
        zero = Poly(QY, {})
        assert p + 0 is p and 0 + p is p
        assert p + zero is p and zero + p is p
        assert p * 1 is p and 1 * p is p and p * Fraction(1) is p
        assert (p + 1) == q * q - 2 * q + 2 and p * 2 == 2 * q * q - 4 * q + 2
        assert p.terms == {(2, 0): 1, (1, 0): -2, (0, 0): 1}


QY = ("q", "y")


def taylor_terms(poly, order=JET_ORDER):
    """Coefficients of (q-1)^a (y-1)^b in poly for a + b <= order, by binomials."""
    out = {}
    for exps, coeff in poly.terms.items():
        for a in range(exps[0] + 1):
            for b in range(exps[1] + 1 if len(exps) > 1 else 1):
                if a + b > order:
                    continue
                key = (a, b)[: len(exps)]
                out[key] = out.get(key, 0) + coeff * comb(exps[0], a) * (
                    comb(exps[1], b) if len(exps) > 1 else 1
                )
    return {key: value for key, value in out.items() if value}


def jet_of(poly, order=JET_ORDER):
    return Jet(poly.vars, taylor_terms(poly, order), order)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-6, 6), max_size=5
).map(lambda terms: Poly(QY, terms))


class TestJet:
    @given(small_polys, small_polys)
    def test_ring_operations_commute_with_taking_jets(self, p1, p2):
        j1, j2 = jet_of(p1), jet_of(p2)
        assert (j1 * j2).terms == taylor_terms(p1 * p2)
        assert (j1 + j2).terms == taylor_terms(p1 + p2)
        assert (j1 - j2).terms == taylor_terms(p1 - p2)
        assert (j1 * 3 - 2).terms == taylor_terms(p1 * 3 - 2)
        assert (j1**2).terms == taylor_terms(p1**2)
        assert (j1 / 2).terms == taylor_terms(p1 / 2)
        assert (j1 == j2) == (taylor_terms(p1) == taylor_terms(p2))

    @given(small_polys)
    def test_derivative_subs_and_division_by_a_variable(self, p):
        j = jet_of(p)
        dq = j.derivative("q")
        assert dq.order == JET_ORDER - 1
        assert dq.terms == taylor_terms(p.derivative("q"), JET_ORDER - 1)
        at_one = {"q": 1, "y": 1}
        mixed = j.derivative("y").derivative("q")
        assert mixed.subs(at_one) == p.derivative("y").derivative("q").subs(at_one)
        assert j.subs({"y": 1}) == jet_of(p.subs({"y": 1}))
        assert type(j.subs(at_one)) is Fraction
        for name in QY:
            assert j.degree(name) <= p.degree(name)

    def test_constants_variables_and_orders(self):
        q, y = Jet.variable("q", QY), Jet.variable("y", QY)
        assert q.terms == {(0, 0): 1, (1, 0): 1}
        assert (q * y - 1).terms == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
        assert Jet.constant(Fraction(4, 2), QY).coeffs[0] == 2
        assert type(Jet.constant(Fraction(4, 2), QY).coeffs[0]) is int
        assert (q * Fraction(1, 2)).terms == {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)}
        assert all(type(c) is int for c in ((q * Fraction(2, 1)) * y).coeffs)
        # a product of orders 3 and 1 is known through order 1
        low = (q * y).derivative("q").derivative("y")
        assert low.order == 1 and ((q * y) ** 3 * low.derivative("q")).order == 0
        assert (q**3 * q.derivative("q")).terms == {(0, 0): 1, (1, 0): 3, (2, 0): 3}
        assert q.derivative("q").derivative("q").derivative("q").order == 0
        with pytest.raises(SeriesError):
            q.derivative("q").derivative("q").derivative("q").derivative("q")
        with pytest.raises(SeriesError):
            q.constant_value()
        assert Jet.constant(5, QY).constant_value() == 5

    def test_rejected_inputs(self):
        with pytest.raises(ValueError):
            Jet(("q", "y", "z"), {})
        with pytest.raises(ValueError):
            Jet(("q",), {}, order=JET_ORDER + 1)
        with pytest.raises(ValueError, match="negative exponent"):
            Jet(("q",), {(-1,): 1})
        with pytest.raises(ValueError):
            Jet.variable("q", QY).subs({"q": 2})
        # The checks below live in the base both rings share.
        for ring in (Poly, Jet):
            with pytest.raises(ValueError, match=r"unknown variables \['z'\]"):
                ring.variable("q", QY).subs({"z": 1})
            for combine in (ring.__add__, ring.__sub__, ring.__mul__):
                with pytest.raises(ValueError, match="variable mismatch"):
                    combine(ring.variable("q", ("q",)), ring.variable("q", QY))
            for zero in (0, Fraction(0)):
                with pytest.raises(ZeroDivisionError, match=f"division of a {ring.__name__} by zero"):
                    ring.variable("q", QY) / zero

    def test_series_keep_one_ring(self):
        q = Jet.variable("q", ("q",))
        jets = TruncatedSeries.polynomial([1, q], order=2, variables=("q",), ring=Jet)
        polys = TruncatedSeries.polynomial([1, 1], order=2, variables=("q",))
        assert jets.ring is Jet and polys.ring is Poly
        assert jets.subs(q=1).ring is None and jets.subs(q=1).coefficients() == [1, 1, 0]
        assert jets != polys
        for combine in (jets.__add__, jets.__mul__, jets.__truediv__):
            with pytest.raises(ValueError):
                combine(polys)
        with pytest.raises(ValueError):
            TruncatedSeries([1, q], ("q",))
        with pytest.raises(ValueError):
            TruncatedSeries([1, Poly.variable("q", ("q",))], ("q",), Jet)
        with pytest.raises(ValueError):
            TruncatedSeries([1], ("q",), int)

    def test_series_operations_over_jets(self):
        # (1 - (q+1)x)^(1/2) squared back, and a quadratic solved, over jets and Poly
        for ring in (Poly, Jet):
            q = ring.variable("q", ("q",))
            radicand = TruncatedSeries.polynomial([1, -2 * (1 + q), (1 - q) ** 2], 8, ("q",), ring)
            root = radicand.sqrt()
            assert root * root == radicand
            c0 = TruncatedSeries.polynomial([1], 8, ("q",), ring)
            c1 = TruncatedSeries.polynomial([-1], 8, ("q",), ring)
            c2 = TruncatedSeries.polynomial([0, q], 8, ("q",), ring)
            sol = solve_polynomial([c0, c1, c2], 1)
            assert sol.ring is ring
            # x*q*C^2 - C + 1 = 0: coefficient n is Catalan(n) q^n
            assert [c.subs({"q": 1}) for c in sol.coeffs] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
            assert sol.derivative("q").subs(q=1).coefficients()[:5] == [0, 1, 4, 15, 56]

    def test_degree_bound_check_over_jets(self):
        q = Jet.variable("q", ("q",))
        check_degree_bound(TruncatedSeries.polynomial([1, q, q**2], order=2, variables=("q",), ring=Jet))
        bad = TruncatedSeries.polynomial([1, q**2], order=1, variables=("q",), ring=Jet)
        with pytest.raises(SeriesError):
            check_degree_bound(bad)
        # q^5 at x^4: its jet carries (q-1)^1..3 only, all allowed at n = 4
        check_degree_bound(TruncatedSeries.polynomial([0, 0, 0, 0, q**5], 4, ("q",), Jet))


def test_poly_and_jet_expose_the_same_public_callables():
    # Series code is written once for either ring, so neither ring may offer
    # a method the other lacks.
    def public(ring):
        return {name for name in dir(ring) if not name.startswith("_") and callable(getattr(ring, name))}

    assert public(Poly) == public(Jet)
    assert {"constant", "variable", "derivative", "subs", "degree"} <= public(Poly)


@pytest.mark.parametrize("ring", (Poly, Jet))
class TestRingBase:
    def test_shared_arithmetic(self, ring):
        q = ring.variable("q", QY)
        assert q**0 == 1 and type(q**0) is ring
        assert q**3 == q * q * q
        with pytest.raises(ValueError, match="negative power -1"):
            q**-1
        for number in (3, Fraction(1, 2)):
            difference = number - q
            assert type(difference) is ring
            assert difference + q == number and difference == -(q - number)
        third = (q * 3 + 6) / 3
        assert third == q + 2
        assert all(type(c) is int for c in third.terms.values())
        assert (q / 3).terms == (q * Fraction(1, 3)).terms

    def test_values_have_no_dict_and_no_hash(self, ring):
        # Without empty __slots__ on the base, every coefficient would carry a dict.
        q = ring.variable("q", QY)
        series = TruncatedSeries([q, q], QY, ring)
        for value in (q, q * q, q + 1, series, series * series):
            assert not hasattr(value, "__dict__")
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)


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

    def test_division_by_a_zero_scalar(self):
        with pytest.raises(ZeroDivisionError, match="division of a series by zero"):
            series_from([1, 1]) / 0
        for ring in (Poly, Jet):
            s = TruncatedSeries.polynomial([1, 1], order=2, variables=("q",), ring=ring)
            for zero in (0, ring.constant(0, ("q",))):
                with pytest.raises(ZeroDivisionError, match="division of a series by zero"):
                    s / zero

    def test_shift_mul_and_div(self):
        a = series_from([1, 2])
        assert a.shift_mul_x().coefficients() == [0, 1, 2]
        assert a.shift_mul_x(2).order == 3
        back = a.shift_mul_x(2).shift_div_x(2)
        assert back.coefficients() == [1, 2]
        with pytest.raises(SeriesError):
            series_from([1, 1]).shift_div_x()

    def test_derivative_in_an_unknown_variable(self):
        q = Poly.variable("q", ("q",))
        s = TruncatedSeries.polynomial([2 * q, 4 * q**2], order=1, variables=("q",))
        for plain_or_q, name in ((series_from([1, 2]), "q"), (s, "y")):
            with pytest.raises(ValueError, match=f"series has no variable '{name}'"):
                plain_or_q.derivative(name)

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


# Coefficients for the packed products: small values and zeros, Fractions,
# and +-2^k, +-(2^k - 1) around byte boundaries, so that result slots carry
# and borrow into their neighbours.
edge_magnitudes = st.builds(
    lambda k, less, sign: sign * ((1 << k) - less),
    st.sampled_from([1, 7, 8, 9, 15, 16, 17, 31, 32, 63, 64, 65, 127, 128, 200]),
    st.sampled_from([0, 1]),
    st.sampled_from([1, -1]),
)
kernel_values = st.one_of(
    st.integers(-3, 3),
    edge_magnitudes,
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)
kernel_variables = st.sampled_from([("q",), ("q", "y")])


def terms_dicts(variables, max_size=5):
    exps = st.tuples(*[st.integers(0, 5)] * len(variables))
    return st.dictionaries(exps, kernel_values, max_size=max_size).map(
        lambda terms: {e: c for e, c in terms.items() if c}
    )


def terms_series(variables, max_order=6):
    return st.lists(terms_dicts(variables), min_size=1, max_size=max_order + 1)


def poly_series(variables, coeffs):
    return TruncatedSeries([Poly(variables, t) for t in coeffs], variables)


def valuation(coeffs):
    return next((i for i, t in enumerate(coeffs) if t), len(coeffs))


def assert_terms(poly, expected):
    """Equal terms, and every integral coefficient stored as an int."""
    assert poly.terms == expected
    for c in poly.terms.values():
        assert c and (type(c) is int) == (Fraction(c).denominator == 1)


class TestKronecker:
    """Poly products by packed ints against the schoolbook reference in conftest."""

    @given(st.data())
    def test_poly_products(self, data):
        variables = data.draw(kernel_variables)
        a = data.draw(terms_dicts(variables, 8))
        b = data.draw(terms_dicts(variables, 8))
        pa, pb = Poly(variables, a), Poly(variables, b)
        assert_terms(pa * pb, terms_mul(a, b))
        assert_terms(pa * pa, terms_mul(a, a))

    @given(st.data())
    def test_series_products(self, data):
        variables = data.draw(kernel_variables)
        a = data.draw(terms_series(variables))
        b = data.draw(terms_series(variables))
        sa, sb = poly_series(variables, a), poly_series(variables, b)
        for x, y, left, right in ((a, b, sa, sb), (a, a, sa, sa)):
            product = left * right
            order = min(len(x) - 1 + valuation(y), len(y) - 1 + valuation(x))
            assert product.order == order
            for got, expected in zip(product.coeffs, series_mul_terms(x, y, order)):
                assert_terms(got, expected)

    @settings(deadline=None)
    @given(st.data())
    def test_series_division(self, data):
        # The quotient's terms grow with the order, so the divisor stays short.
        variables = data.draw(kernel_variables)
        a = data.draw(terms_series(variables, 6))
        b = data.draw(st.lists(terms_dicts(variables, 3), min_size=1, max_size=5))
        lead = data.draw(kernel_values.filter(bool))
        b[0] = {(0,) * len(variables): lead}
        quotient = poly_series(variables, a) / poly_series(variables, b)
        order = min(len(a), len(b)) - 1
        assert quotient.order == order
        for got, expected in zip(quotient.coeffs, series_div_terms(a, b, order)):
            assert_terms(got, expected)

    def test_division_widens_its_slots(self):
        # The quotient grows like (2^64)^n, so its sums outgrow the slots
        # fitted to the first ones many times over.
        a = [{(0,): 1}, {(1,): -7}]
        b = [{(0,): Fraction(1, 3)}, {(1,): -3, (0,): -(2**64 - 1)}, {(2,): 5}]
        order = 30
        padded = [a + [{}] * (order + 1 - len(a)), b + [{}] * (order + 1 - len(b))]
        quotient = poly_series(("q",), padded[0]) / poly_series(("q",), padded[1])
        for got, expected in zip(quotient.coeffs, series_div_terms(*padded, order)):
            assert_terms(got, expected)

    def test_square_root_widens_its_slots(self):
        # sqrt(1 - 4t) = 1 - 2 * sum(C(n-1) t^n) with t = a*q*x: the root's
        # own sums grow like (4a)^n and outgrow the slots fitted to the first.
        a, order = 2**64 - 1, 30
        radicand = poly_series(("q",), [{(0,): 1}, {(1,): -4 * a}] + [{}] * (order - 1))
        root = radicand.sqrt()
        assert root.order == order
        assert_terms(root.coeffs[0], {(0,): 1})
        for n in range(1, order + 1):
            catalan = comb(2 * n - 2, n - 1) // n
            assert_terms(root.coeffs[n], {(n,): -2 * catalan * a**n})

    @settings(deadline=None)
    @given(st.data())
    def test_series_square_roots(self, data):
        # The root is squared while its own list grows, one entry per sum.
        variables = data.draw(kernel_variables)
        f = data.draw(terms_series(variables))
        f[0] = {(0,) * len(variables): 1}
        s = poly_series(variables, f)
        root = (s * s).sqrt()
        assert root.order == len(f) - 1
        for got, expected in zip(root.coeffs, f):
            assert_terms(got, expected)

    def test_integral_results_are_int(self):
        q = Poly.variable("q", ("q",))
        half, two = q * Fraction(1, 2), q * 2 + Fraction(2, 3)
        assert_terms(half * two, {(2,): 1, (1,): Fraction(1, 3)})
        s = TruncatedSeries([half, half * 3], ("q",))
        square = s * TruncatedSeries([two * 3, q * 4], ("q",))
        assert all(type(c) is int for p in square.coeffs for c in p.terms.values())
        assert square.coeffs[1] == q**2 * 11 + q * 3

    def test_zero_series_and_zero_polys(self):
        q = Poly.variable("q", ("q",))
        zero = TruncatedSeries([0, 0, 0], ("q",))
        s = TruncatedSeries([1, q, q**2], ("q",))
        assert (zero * s).order == 2 and not any((zero * s).coeffs)
        assert (zero / s).coeffs == zero.coeffs
        assert (q * Poly(("q",), {})).terms == {}

    def test_polys_need_variables_and_nonnegative_exponents(self):
        with pytest.raises(ValueError):
            Poly((), {(): 1})
        with pytest.raises(ValueError):
            Poly(("q",), {(-1,): 1})

    def test_order_60_product_stays_small(self):
        # Per-coefficient packing holds one packed int per x-coefficient;
        # packing the whole series into one int peaks at about 2.7 MB here.
        q = Poly.variable("q", ("q",))
        radicand = TruncatedSeries.polynomial(
            [1, -2 * (1 + q), (1 - q) ** 2], order=60, variables=("q",)
        )
        root = radicand.sqrt()
        tracemalloc.start()
        try:
            square = root * root
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert square == radicand
        assert peak < 1 << 20


solver_rings = st.sampled_from([(None, ()), (Poly, ("q",)), (Jet, ("q",))])
solver_terms = st.dictionaries(st.tuples(st.integers(0, 3)), rationals, max_size=3)
solver_seeds = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
).filter(lambda seed: seed != 1)


class TestSolvePolynomial:
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
        # -q + q*U = 0 has the root U = 1, but its slope at x = 0 is q
        q = Poly.variable("q", ("q",))
        c0 = TruncatedSeries.polynomial([-q], 3, ("q",))
        c1 = TruncatedSeries.polynomial([q], 3, ("q",))
        with pytest.raises(SolveError, match="not numerically simple"):
            solve_polynomial([c0, c1], 1)

    @settings(deadline=None)
    @given(st.data())
    def test_finds_a_drawn_root(self, data):
        # With c_0 = -sum(c_i * U**i), U is a root; a simple root is the
        # only one with its constant term, so the solver must give back U.
        ring, variables = data.draw(solver_rings)
        values = rationals if ring is None else solver_terms.map(lambda t: ring(variables, t))
        order, degree = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 3))
        seed = data.draw(solver_seeds)
        heads = data.draw(st.lists(rationals, min_size=degree, max_size=degree))
        assume(sum(i * seed ** (i - 1) * h for i, h in enumerate(heads, 1)))

        def series(head):
            rest = data.draw(st.lists(values, min_size=order, max_size=order))
            return TruncatedSeries([head] + rest, variables, ring)

        root = series(seed)
        coeffs = [series(h) for h in heads]
        c0 = 0
        for i, c in enumerate(coeffs, 1):
            c0 = c0 - c * root**i
        sol = solve_polynomial([c0] + coeffs, seed)
        assert sol.ring is root.ring and sol.order == order
        assert sol.coeffs == root.coeffs

    @pytest.mark.parametrize("ring", (Poly, Jet))
    def test_takes_a_seed_in_the_series_ring(self, ring):
        q = ring.variable("q", ("q",))

        def series(*coeffs):
            return TruncatedSeries.polynomial(coeffs, 4, ("q",), ring)

        # U**2 + (1 - 2q)*U + c0 = 0 with U(0) = q: the slope 2q + (1 - 2q) is
        # a number though the seed is not.
        root, c1, c2 = series(q, 1, q * q), series(1 - 2 * q, q), series(1)
        c0 = -(c1 * root + c2 * root * root)
        assert solve_polynomial([c0, c1, c2], q).coeffs == root.coeffs
        # A quotient whose numerator starts with q is seeded with q.
        a, b = series(q, 1, q * q), series(1, q)
        quotient = solve_polynomial([-a, b], q)
        assert quotient.coeffs == (a / b).coeffs and quotient * b == a
        # A seed outside the series' ring still goes through _exact.
        with pytest.raises(TypeError, match="expected an exact rational"):
            solve_polynomial([series_from([1], 4), series_from([-1], 4)], q)

    def test_rejects_malformed_equations(self):
        over_q = TruncatedSeries.polynomial([1], 3, ("q",))
        with pytest.raises(ValueError, match="degree at least 1"):
            solve_polynomial([over_q], 1)
        for other in (
            series_from([1], order=3),
            TruncatedSeries.polynomial([1], 3, ("q",), Jet),
            TruncatedSeries.polynomial([1], 3, ("q", "y")),
        ):
            with pytest.raises(ValueError, match="one variable tuple and ring"):
                solve_polynomial([over_q, other], 1)

    def test_degree_bound_check(self):
        q = Poly.variable("q", ("q",))
        fine = TruncatedSeries.polynomial([1, q], order=1, variables=("q",))
        check_degree_bound(fine)
        bad = TruncatedSeries.polynomial([1, q**2], order=1, variables=("q",))
        with pytest.raises(SeriesError):
            check_degree_bound(bad)


def plain_or_ring_series(ring, *coeffs):
    """A series through x^3 over q in ring, or a plain one for ring None."""
    return TruncatedSeries.polynomial(coeffs, 3, ("q",) if ring else (), ring or Poly)


def assert_raises_exactly(kind, message, call):
    with pytest.raises(kind) as caught:
        call()
    assert caught.type is kind and str(caught.value) == message


@pytest.mark.parametrize("ring", (None, Poly, Jet))
def test_square_root_and_division_keep_their_errors(ring):
    # sqrt and series division check their operands before they hand an
    # equation to solve_polynomial, with these types and messages.
    def series(*coeffs):
        return plain_or_ring_series(ring, *coeffs)

    assert_raises_exactly(
        SeriesError, "square root requires constant term 1", lambda: series(2, 1).sqrt()
    )
    assert_raises_exactly(
        SeriesError,
        "division needs an invertible constant term; shift the valuation away first",
        lambda: series(1, 1) / series(0, 1),
    )
    assert_raises_exactly(
        ZeroDivisionError, "division of a series by zero", lambda: series(1, 1) / 0
    )
    if ring:
        lead = ring.variable("q", ("q",)) + 1
        assert_raises_exactly(
            SeriesError, f"{lead!r} is not constant", lambda: series(1, 1) / series(lead, 1)
        )


@pytest.mark.parametrize("ring", (None, Poly, Jet))
def test_a_corrupted_quotient_is_caught(ring, monkeypatch):
    # The solving loop stores each coefficient it finds through _normal; the
    # check multiplies the quotient by the divisor as whole series, which does
    # not.  So a loop that goes wrong is caught instead of returned.
    a, b = plain_or_ring_series(ring, 1, 2, 3), plain_or_ring_series(ring, 1, 1, 1, 1)
    assert (a / b) * b == a
    normal = series_module._normal
    monkeypatch.setattr(series_module, "_normal", lambda value: normal(value) + 1)
    with pytest.raises(SolveError, match="does not satisfy the equation"):
        a / b
