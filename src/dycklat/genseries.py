"""Named generating series for Dyck path statistics and chain counts.

Everything here expands exactly.  Each single series marked by q (V, A, B,
C and the closed form for F2) is the root U(0) = 1 of its own polynomial
equation in U, solved by solve_polynomial; the path systems are solved
together in _path_system.  Series that the rest of the package consumes
are computed by two independent routes (two different equations, or a
q-derivative and a plain radical expression) and the routes are compared
coefficient by coefficient; a mismatch raises instead of picking a side.

The statistic markers: q marks the statistic of the series at hand (valleys
for the valley series, a four-letter factor for the factor series, the duu
factor for the path system), and y marks valleys in the trivariate system.

Coefficient rings.  Each series marked by q (and y) is written once and
takes the ring of its coefficients as ``ring``: Poly (the default) gives the
full polynomials that `series --name F2/F3/V/A/B/C` prints; Jet gives their
Taylor expansions at q = y = 1 through total order 3 (see series).  The
chain routes read only derivatives at q = y = 1: SC2 the first q-derivative
of F2 and the second of V, SC3 the third of V, the first of A, B and C, and
the first q- and the mixed yq-derivative of F3.  So factor_count_series, the valley moment
series, disjoint_valley_duu_series and the SC2/SC3 assemblies ask for
jets, and their results, plain series of integers, are the same as over
Poly.  The plain closed forms (catalan_series, the chain and factor count
radicals) have no variables and no ring.

Every cross-check runs over the ring of the series it checks: the three
path-system equations (_check_path_system), the degree bound on the path
systems and on every root of _solve_marked, the closed form for F2 and the
y = 1 reduction of F3 (_require_match), and the roots of solve_polynomial,
square roots and quotients included (verified in series).  The closed form
for F2 is the quadratic left when G and H are eliminated from the path
system, so the two routes solve different equations by different loops.
The derivative routes are then matched against their plain radical
expressions.  _require_match also demands that both routes reach the same
order, so a route that lost order cannot shrink its own check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import RouteMismatchError, SeriesError, SolveError
from .series import (
    Jet,
    Poly,
    TruncatedSeries,
    check_degree_bound,
    convolver,
    solve_polynomial,
)

# Numerator polynomials of the closed form for the length-3 chain series.
CHAINS3_P_COEFFS = (1, -13, 59, -100, 16, 64)
CHAINS3_Q_COEFFS = (1, -11, 39, -40, -22)

# Entries per cached series function.  One CLI run asks each function for at
# most three orders (order, order + 1, order + 2), so a run never evicts.
_CACHE_SIZE = 16


def _poly_x(coeffs, order: int, variables=(), ring: type = Poly) -> TruncatedSeries:
    return TruncatedSeries.polynomial(coeffs, order=order, variables=variables, ring=ring)


@lru_cache(maxsize=_CACHE_SIZE)
def _sqrt_1m4x(order: int) -> TruncatedSeries:
    return _poly_x([1, -4], order).sqrt()


def _require_match(a: TruncatedSeries, b: TruncatedSeries, what: str) -> None:
    """Raise RouteMismatchError unless the two routes agree at every order.

    Both must reach the same x-order: a route that lost order would
    otherwise shrink its own check.
    """
    if a.order != b.order:
        raise RouteMismatchError(f"{what}: routes reach different orders {a.order} and {b.order}")
    for i in range(a.order + 1):
        if a.coeffs[i] != b.coeffs[i]:
            raise RouteMismatchError(
                f"{what}: routes disagree at x^{i}: {a.coeffs[i]} vs {b.coeffs[i]}"
            )


@lru_cache(maxsize=_CACHE_SIZE)
def catalan_series(order: int) -> TruncatedSeries:
    """Dyck path counts by semilength, (1 - sqrt(1-4x)) / (2x)."""
    return (_poly_x([1], order + 1) - _sqrt_1m4x(order + 1)).shift_div_x() / 2


def _solve_marked(coeff_lists, order: int, ring: type) -> TruncatedSeries:
    """The root U(0) = 1 of sum(c_i * U**i) = 0, c_i polynomials in x over q, checked."""
    coeffs = [_poly_x(c, order, ("q",), ring) for c in coeff_lists]
    solution = solve_polynomial(coeffs, 1)
    check_degree_bound(solution)
    return solution


@lru_cache(maxsize=_CACHE_SIZE)
def duu_marked_closed_form(order: int, ring: type = Poly) -> TruncatedSeries:
    """Paths weighted q^(number of duu factors), from one quadratic equation.

    Eliminating G and H from the path system leaves
    (1 - (1-q)x) - (1 - 2(1-q)x) F + qx F^2 = 0, whose root is the radical
    (1 - 2(1-q)x - sqrt(1 - 4x + 4(1-q)x^2)) / (2qx).
    """
    q = ring.variable("q", ("q",))
    return _solve_marked(([1, q - 1], [-1, 2 - 2 * q], [0, q]), order, ring)


def _markers(variables: tuple[str, ...], ring: type) -> tuple:
    """q marking duu factors, and y marking valleys (1 when y is not a variable)."""
    y = ring.variable("y", variables) if "y" in variables else 1
    return ring.variable("q", variables), y


def _check_path_system(F, G, H, variables: tuple[str, ...]) -> None:
    """Raise SolveError unless F, G, H satisfy all three equations at full order."""
    q, y = _markers(variables, F.ring)
    S = 1 + (G + H * q) * y
    for name, lhs, rhs in (
        ("F", F, 1 + F.shift_mul_x() * S),
        ("G", G, S.shift_mul_x()),
        ("H", H, F.shift_mul_x(2) * (S * S)),
    ):
        if not (lhs == rhs):
            raise SolveError(f"path system over {variables} violates the {name} equation")
    for s in (F, G, H):
        check_degree_bound(s)


def _path_system(
    order: int, variables: tuple[str, ...], ring: type = Poly
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """Solve F = 1 + x*F*S, G = x*S, H = x^2*F*S^2 with S = 1 + (G + H*q)*y.

    F counts all paths, G those starting with a peak, H those starting with
    a double rise.  Coefficient n of G, H and F involves only coefficients
    below n of F, S and S^2, so one pass in n computes each coefficient once,
    from lower ones only (the naive form of online multiplication); over
    Poly each sum is formed from packed ints (series.convolver).  The
    result, with coefficients in ring, is then checked against the three
    equations at full order.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    q, y = _markers(variables, ring)
    zero = ring(variables, {})
    convolve = convolver(ring, variables)
    F, G, H, S, S2 = [], [], [], [], []
    for n in range(order + 1):
        G.append(S[n - 1] if n else zero)
        H.append(convolve(F, S2, n - 2))
        F.append(convolve(F, S, n - 1) + int(n == 0))
        S.append((G[n] + H[n] * q) * y + int(n == 0))
        S2.append(convolve(S, S, n))
    F, G, H = (TruncatedSeries(c, variables, ring) for c in (F, G, H))
    _check_path_system(F, G, H, variables)
    return F, G, H


@lru_cache(maxsize=_CACHE_SIZE)
def duu_marked_system(
    order: int, ring: type = Poly
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """The path system with q marking duu factors, checked against the closed form for F."""
    F, G, H = _path_system(order, ("q",), ring)
    _require_match(F, duu_marked_closed_form(order, ring), "duu-marked path series")
    return F, G, H


@lru_cache(maxsize=_CACHE_SIZE)
def duu_valley_marked_system(
    order: int, ring: type = Poly
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """The path system refined by y marking valleys alongside q marking duu.

    At y = 1 each series must match its counterpart from duu_marked_system.
    """
    F, G, H = _path_system(order, ("q", "y"), ring)
    F2, G2, H2 = duu_marked_system(order, ring)
    _require_match(F.subs(y=1), F2, "refined system F at y=1")
    _require_match(G.subs(y=1), G2, "refined system G at y=1")
    _require_match(H.subs(y=1), H2, "refined system H at y=1")
    return F, G, H


@lru_cache(maxsize=_CACHE_SIZE)
def valley_marked_series(order: int, ring: type = Poly) -> TruncatedSeries:
    """Paths weighted q^(number of valleys).

    The root of 1 - (1 - (1-q)x) V + qx V^2 = 0, which is the radical
    (1 - (1-q)x - sqrt(1 - 2(1+q)x + (1-q)^2 x^2)) / (2qx).
    """
    q = ring.variable("q", ("q",))
    return _solve_marked(([1], [-1, 1 - q], [0, q]), order, ring)


@lru_cache(maxsize=_CACHE_SIZE)
def dduu_marked_series(order: int, ring: type = Poly) -> TruncatedSeries:
    """Paths weighted q^(number of dduu factors)."""
    q = ring.variable("q", ("q",))
    return _solve_marked(
        (
            [1, -(1 - q)],
            [-1, 2 * (1 - q), -(1 - q)],
            [0, q, 1 - q],
        ),
        order,
        ring,
    )


@lru_cache(maxsize=_CACHE_SIZE)
def dudu_marked_series(order: int, ring: type = Poly) -> TruncatedSeries:
    """Paths weighted q^(number of dudu factors)."""
    q = ring.variable("q", ("q",))
    return _solve_marked(
        (
            [1, 1 - q],
            [-1, -(1 - q), 1 - q],
            [0, 1],
        ),
        order,
        ring,
    )


@lru_cache(maxsize=_CACHE_SIZE)
def duuu_marked_series(order: int, ring: type = Poly) -> TruncatedSeries:
    """Paths weighted q^(number of duuu factors)."""
    q = ring.variable("q", ("q",))
    return _solve_marked(
        (
            [0, 1 - q],
            [1, -3 * (1 - q)],
            [-1, 3 * (1 - q)],
            [0, q],
        ),
        order,
        ring,
    )


@lru_cache(maxsize=_CACHE_SIZE)
def factor_count_series(
    order: int,
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """Total counts of dduu, dudu and duuu factors over all paths, by semilength.

    Each series is the q-derivative at q = 1 of the matching marked series,
    checked against its radical expression.
    """
    dduu = dduu_marked_series(order, Jet).derivative("q").subs(q=1)
    dudu = dudu_marked_series(order, Jet).derivative("q").subs(q=1)
    duuu = duuu_marked_series(order, Jet).derivative("q").subs(q=1)

    s = _sqrt_1m4x(order + 1)
    dduu_closed = (
        _poly_x([1, -5, 5], order + 1) - _poly_x([1, -3, 1], order + 1) * s
    ).shift_div_x() / (2 * s)
    dudu_closed = (_poly_x([1, -3], order) - _poly_x([1, -1], order) * _sqrt_1m4x(order)) / (
        2 * _sqrt_1m4x(order)
    )
    s2 = _sqrt_1m4x(order + 2)
    duuu_num = _poly_x([-1, 6, -9, 2], order + 2) + _poly_x([1, -4, 3], order + 2) * s2
    duuu_den = _poly_x([1, -4], order + 2) - s2
    duuu_closed = duuu_num.shift_div_x(2) / duuu_den.shift_div_x(1)

    _require_match(dduu, dduu_closed, "dduu factor counts")
    _require_match(dudu, dudu_closed, "dudu factor counts")
    _require_match(duuu, duuu_closed, "duuu factor counts")
    return dduu, dudu, duuu


@lru_cache(maxsize=_CACHE_SIZE)
def ordered_valley_pairs_series(order: int) -> TruncatedSeries:
    """Sum of v(v-1) over paths, v the valley count (ordered distinct pairs)."""
    v = valley_marked_series(order, Jet)
    return v.derivative("q").derivative("q").subs(q=1)


@lru_cache(maxsize=_CACHE_SIZE)
def ordered_valley_triples_series(order: int) -> TruncatedSeries:
    """Sum of v(v-1)(v-2) over paths, checked against its radical expression."""
    v = valley_marked_series(order, Jet)
    direct = v.derivative("q").derivative("q").derivative("q").subs(q=1)
    s = _sqrt_1m4x(order + 1)
    closed = (
        3
        * (
            _poly_x([1, -11, 40, -50, 10], order + 1)
            - _poly_x([1, -9, 24, -16], order + 1) * s
        ).shift_div_x()
        / (_poly_x([1, -8, 16], order + 1) * s)
    )
    _require_match(direct, closed, "ordered valley triples")
    return direct


@lru_cache(maxsize=_CACHE_SIZE)
def disjoint_valley_duu_series(order: int) -> TruncatedSeries:
    """Counts of disjoint (valley, duu factor) pairs over all paths.

    Every duu factor starts with its own valley; subtracting the duu count
    from the mixed yq-derivative removes exactly those incestuous pairs.
    """
    F, _, _ = duu_valley_marked_system(order, Jet)
    mixed = F.derivative("y").derivative("q").subs(q=1, y=1)
    plain = F.derivative("q").subs(q=1, y=1)
    direct = mixed - plain

    s = _sqrt_1m4x(order + 1)
    closed = (
        _poly_x([-2, 15, -30, 10], order + 1) + _poly_x([2, -11, 12], order + 1) * s
    ).shift_div_x() / (2 * (_poly_x([1, -4], order + 1) * s))
    _require_match(direct, closed, "disjoint valley/duu pairs")
    return direct


@lru_cache(maxsize=_CACHE_SIZE)
def sc2_series_from_derivatives(order: int) -> TruncatedSeries:
    """Length-2 chain counts assembled from statistic derivatives."""
    F, _, _ = duu_marked_system(order, Jet)
    duu_count = F.derivative("q").subs(q=1)
    return 2 * duu_count + ordered_valley_pairs_series(order)


@lru_cache(maxsize=_CACHE_SIZE)
def sc2_series_closed_form(order: int) -> TruncatedSeries:
    s = _sqrt_1m4x(order)
    radical = _poly_x([1, -4], order) * s
    return (_poly_x([1, -6, 6], order) - radical) / (-radical)


def sc2_series(order: int) -> TruncatedSeries:
    """Length-2 saturated chain counts by semilength; both routes must agree."""
    direct = sc2_series_from_derivatives(order)
    _require_match(direct, sc2_series_closed_form(order), "length-2 chain series")
    return direct


@lru_cache(maxsize=_CACHE_SIZE)
def sc3_series_from_derivatives(order: int) -> TruncatedSeries:
    """Length-3 chain counts assembled from statistic derivatives."""
    dduu, dudu, duuu = factor_count_series(order)
    return (
        2 * (dduu + dudu + duuu)
        + ordered_valley_triples_series(order)
        + 6 * disjoint_valley_duu_series(order)
    )


@lru_cache(maxsize=_CACHE_SIZE)
def sc3_series_closed_form(order: int) -> TruncatedSeries:
    work = order + 1
    numerator = (
        _poly_x(CHAINS3_P_COEFFS, work)
        - _poly_x(CHAINS3_Q_COEFFS, work) * _sqrt_1m4x(work)
    )
    return numerator.shift_div_x() / (_poly_x([1, -4], work) ** 3)


def sc3_series(order: int) -> TruncatedSeries:
    """Length-3 saturated chain counts by semilength; both routes must agree."""
    direct = sc3_series_from_derivatives(order)
    _require_match(direct, sc3_series_closed_form(order), "length-3 chain series")
    return direct


def integer_coefficients(series: TruncatedSeries) -> list[int]:
    """Coefficients of a plain series as ints; raises if any is not integral."""
    out = []
    for c in series.coeffs:
        frac = Fraction(c)
        if frac.denominator != 1:
            raise SeriesError(f"coefficient {frac} is not an integer")
        out.append(frac.numerator)
    return out
