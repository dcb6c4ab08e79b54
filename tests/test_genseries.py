import inspect
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from conftest import (
    Q_RADICALS,
    catalan_ref,
    count_disjoint_placements,
    count_occurrences,
    dyck_words,
    path_system_by_substitution,
    radical_over_2qx,
)
from dycklat import genseries as gs
from dycklat import indices
from dycklat.errors import RouteMismatchError, SeriesError, SolveError
from dycklat.series import JET_ORDER, Jet, Poly, TruncatedSeries, check_degree_bound

SC2_EXPECTED = [0, 0, 0, 4, 30, 168, 840, 3960, 18018, 80080]
SC3_EXPECTED = [0, 0, 0, 2, 38, 322, 2112, 12210, 65494, 334334]

ORDER = 12


def ints(series):
    return gs.integer_coefficients(series)


def test_catalan_series():
    assert ints(gs.catalan_series(10)) == [catalan_ref(n) for n in range(11)]


def test_path_system_specializes_to_catalan():
    F, G, H = gs.duu_marked_system(ORDER)
    assert ints(F.subs(q=1)) == [catalan_ref(n) for n in range(ORDER + 1)]
    # G + H covers every nonempty path exactly once
    gh = (G + H).subs(q=1)
    assert ints(gh) == [0] + [catalan_ref(n) for n in range(1, ORDER + 1)]
    assert ints(H.subs(q=1))[:3] == [0, 0, 1]


def test_path_system_marks_duu_factors():
    F, _, _ = gs.duu_marked_system(8)
    duu_totals = F.derivative("q").subs(q=1)
    for n in range(9):
        brute = sum(count_occurrences(w, "duu") for w in dyck_words(n))
        assert duu_totals.coefficients()[n] == brute
    assert duu_totals.coefficients()[3] == 1


def test_trivariate_system_reduces_to_bivariate():
    F3, _, _ = gs.duu_valley_marked_system(8)
    F2, _, _ = gs.duu_marked_system(8)
    assert F3.subs(y=1) == F2
    # y tracks valleys: dF3/dy at q=y=1 totals the valley counts
    valley_totals = F3.derivative("y").subs(q=1, y=1)
    for n in range(9):
        brute = sum(count_occurrences(w, "du") for w in dyck_words(n))
        assert valley_totals.coefficients()[n] == brute


@pytest.mark.parametrize("variables", [("q",), ("q", "y")])
def test_path_system_matches_substitution(variables):
    for order in range(11):
        solved = gs._path_system(order, variables)
        reference = path_system_by_substitution(order, variables)
        for series, expected in zip(solved, reference):
            assert series.vars == variables
            assert [c.terms for c in series.coeffs] == expected


def test_path_system_rejects_negative_order():
    with pytest.raises(ValueError):
        gs._path_system(-1, ("q",))


@pytest.mark.parametrize("variables", [("q",), ("q", "y")])
def test_path_system_check_catches_a_perturbed_coefficient(variables):
    F, G, H = gs._path_system(8, variables)
    gs._check_path_system(F, G, H, variables)
    coeffs = list(H.coeffs)
    coeffs[5] = coeffs[5] + 1
    with pytest.raises(SolveError):
        gs._check_path_system(F, G, TruncatedSeries(coeffs, variables), variables)


@pytest.mark.parametrize("variables", [("q",), ("q", "y")])
def test_jet_path_system_check_catches_a_perturbed_coefficient(variables):
    F, G, H = gs._path_system(8, variables, Jet)
    gs._check_path_system(F, G, H, variables)
    epsilon = Jet.variable("q", variables) - 1
    for bump in (1, epsilon, epsilon**3):
        coeffs = list(H.coeffs)
        coeffs[5] = coeffs[5] + bump
        with pytest.raises(SolveError):
            gs._check_path_system(F, G, TruncatedSeries(coeffs, variables, Jet), variables)


def test_jet_path_system_check_runs_the_degree_bound():
    # Coefficient 1 of H may not carry (q-1)^2: H has q-degree at most 1 there.
    F, G, H = gs._path_system(4, ("q",), Jet)
    epsilon = Jet.variable("q", ("q",)) - 1
    bad = list(H.coeffs)
    bad[1] = bad[1] + epsilon**2
    with pytest.raises(SeriesError):
        check_degree_bound(TruncatedSeries(bad, ("q",), Jet))


def test_require_match_needs_equal_orders():
    short = TruncatedSeries([1, 2, 5])
    gs._require_match(short, TruncatedSeries([1, 2, 5]), "equal")
    with pytest.raises(RouteMismatchError, match="orders 2 and 3"):
        gs._require_match(short, TruncatedSeries([1, 2, 5, 14]), "unequal")
    with pytest.raises(RouteMismatchError, match="orders 3 and 2"):
        gs._require_match(TruncatedSeries([1, 2, 5, 14]), short, "unequal")
    with pytest.raises(RouteMismatchError, match="x\\^2"):
        gs._require_match(short, TruncatedSeries([1, 2, 6]), "different")


def taylor_at_one(poly):
    """Coefficients of (q-1)^a (y-1)^b in poly, for a + b <= JET_ORDER."""
    at_one = {name: 1 for name in poly.vars}
    out = {}

    def expand(derived, exps):
        # derived is poly differentiated exps[i] times in its first i variables
        if len(exps) == len(poly.vars):
            value = derived.subs(at_one)
            for e in exps:
                value /= factorial(e)
            if value:
                out[exps] = value
            return
        name = poly.vars[len(exps)]
        for e in range(JET_ORDER + 1 - sum(exps)):
            expand(derived, exps + (e,))
            derived = derived.derivative(name)

    expand(poly, ())
    return out


JET_ORACLE_ORDER = 20
JET_ROUTES = {
    "F2/G2/H2": lambda order, ring: gs.duu_marked_system(order, ring),
    "F3/G3/H3": lambda order, ring: gs.duu_valley_marked_system(order, ring),
    "V": lambda order, ring: (gs.valley_marked_series(order, ring),),
    "A": lambda order, ring: (gs.dduu_marked_series(order, ring),),
    "B": lambda order, ring: (gs.dudu_marked_series(order, ring),),
    "C": lambda order, ring: (gs.duuu_marked_series(order, ring),),
    "duu closed form": lambda order, ring: (gs.duu_marked_closed_form(order, ring),),
}


@pytest.mark.parametrize("name", JET_ROUTES)
def test_jets_are_the_taylor_coefficients_of_the_poly_series(name):
    build = JET_ROUTES[name]
    full = [
        [taylor_at_one(c) for c in series.coeffs]
        for series in build(JET_ORACLE_ORDER, Poly)
    ]
    for order in range(JET_ORACLE_ORDER + 1):
        jets = build(order, Jet)
        assert len(jets) == len(full)
        for series, expected in zip(jets, full):
            assert series.ring is Jet and series.order == order
            assert all(c.order == JET_ORDER for c in series.coeffs)
            assert [c.terms for c in series.coeffs] == expected[: order + 1], (name, order)


def test_chain_series_equal_the_closed_forms_at_order_100():
    order = 100
    assert gs.integer_coefficients(gs.sc2_series(order)) == [
        indices.sc2_closed(n) for n in range(order + 1)
    ]
    assert gs.integer_coefficients(gs.sc3_series(order)) == [
        indices.sc3_closed(n) for n in range(order + 1)
    ]


def test_series_caches_are_bounded():
    cached = [
        (name, value)
        for name, value in inspect.getmembers(gs)
        if callable(getattr(value, "cache_parameters", None))
    ]
    assert cached
    for name, value in cached:
        assert value.cache_parameters()["maxsize"] is not None, name


def test_valley_series_matches_brute_force():
    V = gs.valley_marked_series(8)
    assert ints(V.subs(q=1)) == [catalan_ref(n) for n in range(9)]
    dV = V.derivative("q").subs(q=1)
    for n in range(9):
        brute = sum(count_occurrences(w, "du") for w in dyck_words(n))
        assert dV.coefficients()[n] == brute


@pytest.mark.parametrize(
    "builder,factor",
    [
        (gs.dduu_marked_series, "dduu"),
        (gs.dudu_marked_series, "dudu"),
        (gs.duuu_marked_series, "duuu"),
    ],
)
def test_marked_series_ground_to_factor_counts(builder, factor):
    series = builder(7)
    assert ints(series.subs(q=1)) == [catalan_ref(n) for n in range(8)]
    totals = series.derivative("q").subs(q=1)
    for n in range(8):
        brute = sum(count_occurrences(w, factor) for w in dyck_words(n))
        assert totals.coefficients()[n] == brute


@pytest.mark.parametrize(
    "build,factor", [(gs.valley_marked_series, "du"), (gs.duu_marked_closed_form, "duu")]
)
def test_marked_roots_equal_their_radicals(build, factor):
    expected = radical_over_2qx(*Q_RADICALS[factor], 20)
    for order in range(21):
        series = build(order)
        assert series.order == order
        assert [c.terms for c in series.coeffs] == expected[: order + 1], (factor, order)


def brute_force_polys(n, factors):
    """Coefficient n of the series marking factors, by counting in every word."""
    return Counter(tuple(count_occurrences(w, f) for f in factors) for w in dyck_words(n))


# Each printed Poly series and the factors its variables mark, in variable order.
DUMPS = {
    "V": (gs.valley_marked_series, ("du",)),
    "F2": (lambda order: gs.duu_marked_system(order)[0], ("duu",)),
    "F3": (lambda order: gs.duu_valley_marked_system(order)[0], ("duu", "du")),
    "A": (gs.dduu_marked_series, ("dduu",)),
    "B": (gs.dudu_marked_series, ("dudu",)),
    "C": (gs.duuu_marked_series, ("duuu",)),
}


@pytest.mark.parametrize("name", DUMPS)
def test_poly_dumps_count_factors_in_every_word(name):
    build, factors = DUMPS[name]
    series = build(8)
    for n in range(9):
        assert series.coefficients()[n].terms == brute_force_polys(n, factors), (name, n)


def test_order_60_marked_roots_stay_small():
    # Peaks measured on CPython 3.11: V 0.83-0.94 MB, B 0.80 MB.  V's solve
    # keeps the U**2 power list and its packed ints, because its top
    # coefficient qx varies in x.
    for build in (gs.valley_marked_series, gs.dudu_marked_series):
        tracemalloc.start()
        try:
            build.__wrapped__(60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (build.__name__, peak)


def test_factor_count_series_cross_checked_routes():
    dduu, dudu, duuu = gs.factor_count_series(10)
    assert ints(dduu)[:6] == [0, 0, 0, 0, 1, 7]
    assert ints(dudu)[:6] == [0, 0, 0, 1, 5, 21]
    assert ints(duuu) == ints(dduu)


def test_mirror_symmetric_factors_agree():
    # dddu is the reversal-complement of duuu, so totals coincide
    for n in range(8):
        a = sum(count_occurrences(w, "dddu") for w in dyck_words(n))
        b = sum(count_occurrences(w, "duuu") for w in dyck_words(n))
        assert a == b


def test_valley_moment_series():
    pairs = gs.ordered_valley_pairs_series(8)
    triples = gs.ordered_valley_triples_series(8)
    for n in range(9):
        vs = [count_occurrences(w, "du") for w in dyck_words(n)]
        assert pairs.coefficients()[n] == sum(v * (v - 1) for v in vs)
        assert triples.coefficients()[n] == sum(v * (v - 1) * (v - 2) for v in vs)


def test_disjoint_valley_duu_pairs():
    series = gs.disjoint_valley_duu_series(7)
    for n in range(8):
        brute = sum(
            count_disjoint_placements(w, ("du", "duu")) for w in dyck_words(n)
        )
        assert series.coefficients()[n] == brute


def test_sc2_sequence_and_routes():
    series = gs.sc2_series(ORDER)
    assert ints(series)[:10] == SC2_EXPECTED
    assert gs.sc2_series_from_derivatives(ORDER) == gs.sc2_series_closed_form(ORDER)


def test_sc3_sequence_and_routes():
    series = gs.sc3_series(ORDER)
    assert ints(series)[:10] == SC3_EXPECTED
    assert gs.sc3_series_from_derivatives(ORDER) == gs.sc3_series_closed_form(ORDER)


def test_chain_series_coefficients_are_nonnegative_integers():
    for series in (gs.sc2_series(16), gs.sc3_series(16)):
        values = ints(series)
        assert all(v >= 0 for v in values)
        assert values[:3] == [0, 0, 0]


def test_numerator_polynomial_factorization():
    # P = (1 - 4x)^3 (1 - x - x^2)
    cubic = [1, -12, 48, -64]
    other = [1, -1, -1]
    product = [0] * 6
    for i, a in enumerate(cubic):
        for j, b in enumerate(other):
            product[i + j] += a * b
    assert tuple(product) == gs.CHAINS3_P_COEFFS


def test_numerators_at_the_singularity():
    p_at_quarter = sum(Fraction(c, 4**k) for k, c in enumerate(gs.CHAINS3_P_COEFFS))
    assert p_at_quarter == 0  # the (1-4x)^3 factor vanishes
    q_at_quarter = sum(Fraction(c, 4**k) for k, c in enumerate(gs.CHAINS3_Q_COEFFS))
    assert q_at_quarter == Fraction(-3, 128)


def test_integer_coefficients_rejects_fractions():
    half = gs.catalan_series(3) / 2
    with pytest.raises(SeriesError):
        gs.integer_coefficients(half)
