"""Closed-form chain counts, Boolean-lattice values, Hasse indices, asymptotics.

Everything except the Darboux estimates is exact integer or Fraction
arithmetic; the estimates are floats by nature.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction


def catalan(n: int) -> int:
    """Number of Dyck paths of semilength n."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    q, r = divmod(math.comb(2 * n, n), n + 1)
    if r:
        raise ArithmeticError("Catalan division left a remainder")
    return q


def sc2_closed(n: int) -> int:
    """Saturated chains of length 2 in the order on semilength-n paths.

    The quotient form is valid for n >= 1; n = 0 is the empty count.
    """
    if n < 1:
        return 0
    q, r = divmod(math.comb(2 * n, n) * (n - 1) * (n - 2), 2 * (2 * n - 1))
    if r:
        raise ArithmeticError(f"length-2 closed form not integral at n={n}")
    return q


def sc3_closed(n: int) -> int:
    """Saturated chains of length 3; quotient form valid for n >= 2."""
    if n < 2:
        return 0
    numerator = math.comb(2 * n, n) * (n**3 - 7 * n + 2) * (n - 2)
    q, r = divmod(numerator, 4 * (n + 1) * (2 * n - 1))
    if r:
        raise ArithmeticError(f"length-3 closed form not integral at n={n}")
    return q


def dyck_chain_count_closed(n: int, h: int) -> int:
    """Closed-form chain count for the lengths that have one."""
    if h == 2:
        return sc2_closed(n)
    if h == 3:
        return sc3_closed(n)
    raise ValueError(f"no closed form for chain length {h}")


def sc_h_boolean(n: int, h: int) -> int:
    """Saturated chains of length h in the Boolean lattice of subsets of {1..n}."""
    if h < 0 or n < 0:
        raise ValueError("arguments must be nonnegative")
    if h > n:
        return 0
    return math.perm(n, h) * 2 ** (n - h)


def hasse_index(count: int, size: int) -> Fraction:
    """Chain count divided by element count, as a reduced fraction."""
    if size < 1:
        raise ValueError("poset size must be at least 1")
    return Fraction(count, size)


def boolean_index(n: int, h: int) -> Fraction:
    """Hasse index of order h of the Boolean lattice: (n)_h / 2^h."""
    return Fraction(math.perm(n, h), 2**h)


def dyck_index(n: int, h: int) -> Fraction:
    """Hasse index of order h in {2, 3} for semilength-n paths, exactly."""
    return hasse_index(dyck_chain_count_closed(n, h), catalan(n))


def boolean_ratio(n: int, h: int) -> Fraction:
    """dyck_index(n, h) divided by the Boolean target n^h / 2^h."""
    if n < 1:
        raise ValueError("ratio needs n >= 1")
    return dyck_index(n, h) / Fraction(n**h, 2**h)


def polynomial_value(coefficients, x) -> Fraction:
    """Exact Horner evaluation; coefficients in ascending powers."""
    acc = Fraction(0)
    for c in reversed(tuple(coefficients)):
        acc = acc * Fraction(x) + Fraction(c)
    return acc


class DarbouxInput(namedtuple("DarbouxInput", ("psi_coefficients", "singularity", "exponent", "sign"))):
    """Data of a series psi(x) * (1 - x/singularity)^(-exponent).

    The sign flips psi wholesale; it absorbs the choice of which square
    root branch the radical part carries.
    """

    __slots__ = ()

    def __new__(cls, psi_coefficients, singularity, exponent, sign=1):
        psi_coefficients = tuple(Fraction(c) for c in psi_coefficients)
        singularity, exponent = Fraction(singularity), Fraction(exponent)
        if singularity == 0:
            raise ValueError("singularity must be nonzero")
        if exponent.denominator == 1 and exponent <= 0:
            raise ValueError("exponent must not be a nonpositive integer")
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        return super().__new__(cls, psi_coefficients, singularity, exponent, sign)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; route it through the checks too.
        return cls(*iterable)

    def amplitude(self) -> Fraction:
        """sign * psi evaluated at the singularity, exactly."""
        return self.sign * polynomial_value(self.psi_coefficients, self.singularity)


def darboux_estimate(data: DarbouxInput, n: int) -> float:
    """Main asymptotic term of the n-th coefficient: amplitude * s^(-n) * n^(a-1) / Gamma(a)."""
    alpha = float(data.exponent)
    return (
        float(data.amplitude())
        * float(data.singularity) ** (-n)
        * n ** (alpha - 1.0)
        / math.gamma(alpha)
    )


# The length-3 chain series minus its analytic part is
# -Q(x) * (1 - 4x)^(-5/2) / x with Q the fixed numerator polynomial. The
# series route derives the same Q (genseries.CHAINS3_Q_COEFFS); it is
# written out here so that the closed forms never import that route.
CHAIN3_DARBOUX = DarbouxInput(
    psi_coefficients=(1, -11, 39, -40, -22),
    singularity=Fraction(1, 4),
    exponent=Fraction(5, 2),
    sign=-1,
)


def chain3_darboux_estimate(n: int) -> float:
    """Asymptotic main term 2^(2n-3) n^(3/2) / sqrt(pi) for length-3 chain counts.

    The series carries a leading 1/x, so the exponential factor acts at
    index n+1 while the polynomial factor keeps n, matching the displayed
    main term.
    """
    if n < 1:
        raise ValueError("estimate needs n >= 1")
    return darboux_estimate(CHAIN3_DARBOUX, n) / float(CHAIN3_DARBOUX.singularity)
