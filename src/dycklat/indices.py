"""Closed-form chain counts and Hasse indices, in exact integer or Fraction arithmetic."""

from __future__ import annotations

import math
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
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    if n < 1:
        return 0
    q, r = divmod(math.comb(2 * n, n) * (n - 1) * (n - 2), 2 * (2 * n - 1))
    if r:
        raise ArithmeticError(f"length-2 closed form not integral at n={n}")
    return q


def sc3_closed(n: int) -> int:
    """Saturated chains of length 3; quotient form valid for n >= 2."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
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


def hasse_index(count: int, size: int) -> Fraction:
    """Chain count divided by element count, as a reduced fraction."""
    if size < 1:
        raise ValueError("poset size must be at least 1")
    return Fraction(count, size)
