"""Exact truncated power series in x, with polynomial coefficients.

A TruncatedSeries stores the coefficients of x^0 .. x^order.  Plain series
keep Fraction coefficients; series over auxiliary variables (such as a
statistic marker q) keep Poly coefficients in a fixed variable tuple.  A
Poly stores each integral coefficient as an int and the others as a
Fraction, so the counting series, whose coefficients are all integers, are
multiplied in int arithmetic without building a Fraction.  Printing and
equality do not depend on which of the two types holds a value.

Order bookkeeping: every operation returns a series whose coefficients are
all determined by its operands.  Addition keeps the smaller order.  For a
product, coefficient n only involves unknown coefficients of one factor
when the other factor has a nonzero stored coefficient below the matching
index, so the product is valid through

    min(a.order + val(b), b.order + val(a))

where val is the index of the first nonzero stored coefficient (order + 1
for an all-zero series).

Fixed-point systems whose coefficient n depends only on lower coefficients
(the path systems in genseries) are solved one coefficient at a time: each
coefficient is computed exactly once, from the lower ones, and the finished
series are then checked against the equations with the full-order products
here.  Algebraic equations with a simple root are solved by Newton
iteration (solve_polynomial), which doubles the correct order per step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import SeriesError, SolveError

_HALF = Fraction(1, 2)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _exact(value) -> int | Fraction:
    """An exact rational, as an int when its denominator is 1."""
    if type(value) is int:
        return value
    value = _as_fraction(value)
    return value.numerator if value.denominator == 1 else value


class Poly:
    """Sparse polynomial over the rationals in a fixed tuple of named variables.

    Integral coefficients are stored as int and the others as Fraction, so
    products of counting series never build a Fraction.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: dict):
        self.vars = tuple(variables)
        width = len(self.vars)
        clean: dict[tuple[int, ...], int | Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError("exponent tuple does not match the variable tuple")
            coeff = _exact(coeff)
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    @classmethod
    def constant(cls, value, variables: Iterable[str]) -> Poly:
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str]) -> Poly:
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): 1})

    def _coerce(self, other) -> Poly | None:
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(other, self.vars)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        merged = dict(self.terms)
        for exps, coeff in o.terms.items():
            merged[exps] = merged.get(exps, 0) + coeff
        return Poly(self.vars, merged)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                out[exps] = out.get(exps, 0) + c1 * c2
        return Poly(self.vars, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _as_fraction(scalar)
        if not scalar:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Poly(self.vars, {e: c / scalar for e, c in self.terms.items()})

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly.constant(1, self.vars)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Poly.constant(other, self.vars).terms
        return NotImplemented

    __hash__ = None  # mutable-by-structure; never used as a key

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise SeriesError(f"polynomial {self} is not constant")
        return Fraction(next(iter(self.terms.values()), 0))

    def degree(self, name: str) -> int:
        """Largest exponent of the variable; -1 for the zero polynomial."""
        idx = self.vars.index(name)
        return max((exps[idx] for exps in self.terms), default=-1)

    def derivative(self, name: str) -> Poly:
        idx = self.vars.index(name)
        out: dict[tuple[int, ...], int | Fraction] = {}
        for exps, coeff in self.terms.items():
            if exps[idx]:
                lowered = list(exps)
                lowered[idx] -= 1
                out[tuple(lowered)] = coeff * exps[idx]
        return Poly(self.vars, out)

    def subs(self, assignment: dict) -> Poly | Fraction:
        """Bind some variables to exact values; a full binding gives a Fraction."""
        unknown = set(assignment) - set(self.vars)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        keep = [i for i, v in enumerate(self.vars) if v not in assignment]
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            for i, name in enumerate(self.vars):
                if name in assignment:
                    coeff = coeff * _as_fraction(assignment[name]) ** exps[i]
            reduced = tuple(exps[i] for i in keep)
            out[reduced] = out.get(reduced, Fraction(0)) + coeff
        if keep:
            return Poly(tuple(self.vars[i] for i in keep), out)
        return out.get((), Fraction(0))

    def shifted_down(self, name: str, k: int = 1) -> Poly:
        """Exact division by name**k; fails if any term lacks the factor."""
        idx = self.vars.index(name)
        out = {}
        for exps, coeff in self.terms.items():
            if exps[idx] < k:
                raise SeriesError(f"{self} is not divisible by {name}**{k}")
            lowered = list(exps)
            lowered[idx] -= k
            out[tuple(lowered)] = coeff
        return Poly(self.vars, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


class TruncatedSeries:
    """Power series in x known through x**order, with exact coefficients."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, coeffs: Sequence, variables: Iterable[str] = ()):
        self.vars = tuple(variables)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        self.coeffs = tuple(self._box(c) for c in coeffs)

    def _box(self, value):
        if self.vars:
            if isinstance(value, Poly):
                if value.vars != self.vars:
                    raise ValueError("coefficient variables do not match the series")
                return value
            return Poly.constant(value, self.vars)
        if isinstance(value, Poly):
            raise ValueError("plain series cannot hold polynomial coefficients")
        return _as_fraction(value)

    def _zero_coeff(self):
        return Poly(self.vars, {}) if self.vars else Fraction(0)

    @classmethod
    def polynomial(cls, coeffs: Sequence, order: int | None = None,
                   variables: Iterable[str] = ()) -> TruncatedSeries:
        """Series from an exact polynomial in x, zero padded to the order."""
        coeffs = list(coeffs)
        if order is not None:
            if order + 1 < len(coeffs):
                coeffs = coeffs[: order + 1]
            else:
                coeffs = coeffs + [0] * (order + 1 - len(coeffs))
        return cls(coeffs, variables)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int):
        if n < 0 or n > self.order:
            raise SeriesError(f"coefficient {n} is beyond the truncation order {self.order}")
        return self.coeffs[n]

    def coefficients(self) -> list:
        return list(self.coeffs)

    def valuation(self) -> int:
        """Index of the first nonzero stored coefficient; order + 1 if none."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.order + 1

    def truncate(self, order: int) -> TruncatedSeries:
        if order < 0:
            raise ValueError("order must be nonnegative")
        if order >= self.order:
            return self
        clone = object.__new__(TruncatedSeries)
        clone.vars = self.vars
        clone.coeffs = self.coeffs[: order + 1]
        return clone

    def _pad(self, order: int) -> TruncatedSeries:
        # Extends with zero coefficients *by fiat*.  Only meaningful inside
        # Newton-style iterations, where any extension converges to the root.
        if order <= self.order:
            return self.truncate(order)
        clone = object.__new__(TruncatedSeries)
        clone.vars = self.vars
        clone.coeffs = self.coeffs + (self._zero_coeff(),) * (order - self.order)
        return clone

    def _wrap(self, coeffs: list) -> TruncatedSeries:
        clone = object.__new__(TruncatedSeries)
        clone.vars = self.vars
        clone.coeffs = tuple(coeffs)
        return clone

    def _coerce_scalar(self, value):
        try:
            return self._box(value)
        except (TypeError, ValueError):
            return None

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            if other.vars != self.vars:
                raise ValueError("cannot combine series over different variables")
            n = min(self.order, other.order)
            return self._wrap([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + scalar
        return self._wrap(coeffs)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.__add__(-other)
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] - scalar
        return self._wrap(coeffs)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            if other.vars != self.vars:
                raise ValueError("cannot combine series over different variables")
            va, vb = self.valuation(), other.valuation()
            n_out = min(self.order + vb, other.order + va)
            out = []
            for n in range(n_out + 1):
                acc = self._zero_coeff()
                lo = max(0, n - other.order)
                hi = min(n, self.order)
                for i in range(lo, hi + 1):
                    a = self.coeffs[i]
                    if a:
                        b = other.coeffs[n - i]
                        if b:
                            acc = acc + a * b
                out.append(acc)
            return self._wrap(out)
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self._wrap([c * scalar for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            if other.vars != self.vars:
                raise ValueError("cannot combine series over different variables")
            lead = other.coeffs[0]
            if isinstance(lead, Poly):
                lead = lead.constant_value()
            if not lead:
                raise SeriesError(
                    "division needs an invertible constant term; shift the valuation away first"
                )
            inv = Fraction(1) / lead
            n_out = min(self.order, other.order)
            out: list = []
            for n in range(n_out + 1):
                acc = self.coeffs[n]
                for k in range(1, n + 1):
                    b = other.coeffs[k]
                    if b:
                        acc = acc - b * out[n - k]
                out.append(acc * inv)
            return self._wrap(out)
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        if isinstance(scalar, Poly):
            inv = Fraction(1) / scalar.constant_value()
        else:
            if not scalar:
                raise ZeroDivisionError("division of a series by zero")
            inv = Fraction(1) / scalar
        return self._wrap([c * inv for c in self.coeffs])

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("use division for negative powers")
        result = self._wrap([self._box(1)] + [self._zero_coeff()] * self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def shift_mul_x(self, k: int = 1) -> TruncatedSeries:
        """Multiply by x**k; the order grows by k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return self._wrap([self._zero_coeff()] * k + list(self.coeffs))

    def shift_div_x(self, k: int = 1) -> TruncatedSeries:
        """Divide by x**k; the leading k coefficients must vanish."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if k == 0:
            return self
        if k > self.order:
            raise SeriesError("cannot shift past the truncation order")
        for i in range(k):
            if self.coeffs[i]:
                raise SeriesError(
                    f"nonzero coefficient at x^{i} blocks division by x^{k}"
                )
        return self._wrap(list(self.coeffs[k:]))

    def div_monomial(self, scalar, name: str, power: int = 1) -> TruncatedSeries:
        """Exact division of every coefficient by scalar * name**power."""
        scalar = _as_fraction(scalar)
        return self._wrap([c.shifted_down(name, power) / scalar for c in self.coeffs])

    def sqrt(self) -> TruncatedSeries:
        """Square root with constant term 1, by quadratically convergent iteration."""
        if self.coeffs[0] != 1:
            raise SeriesError("square root requires constant term 1")
        target = self.order
        root = self._wrap([self._box(1)])
        reached = 0
        while reached < target:
            reached = min(2 * reached + 1, target)
            padded = root._pad(reached)
            root = (padded + self.truncate(reached) / padded) * _HALF
        if not (root * root == self):
            raise SeriesError("square root verification failed")
        return root

    def derivative(self, name: str) -> TruncatedSeries:
        """Derivative in an auxiliary variable (not in x)."""
        if name not in self.vars:
            raise ValueError(f"series has no variable {name!r}")
        return self._wrap([c.derivative(name) for c in self.coeffs])

    def subs(self, **assignment) -> TruncatedSeries:
        """Bind auxiliary variables to exact values."""
        if not self.vars:
            raise ValueError("plain series have no variables to bind")
        remaining = tuple(v for v in self.vars if v not in assignment)
        values = [c.subs(assignment) for c in self.coeffs]
        clone = object.__new__(TruncatedSeries)
        clone.vars = remaining
        clone.coeffs = tuple(values)
        return clone

    def __eq__(self, other) -> bool:
        """Coefficientwise agreement through the shorter truncation order."""
        if isinstance(other, TruncatedSeries):
            if other.vars != self.vars:
                return False
            n = min(self.order, other.order)
            return all(self.coeffs[i] == other.coeffs[i] for i in range(n + 1))
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self.coeffs[0] == scalar and not any(self.coeffs[1:])

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order}, vars={self.vars})"


def _horner(coeff_series: Sequence[TruncatedSeries], u: TruncatedSeries,
            order: int) -> TruncatedSeries:
    acc = coeff_series[-1].truncate(order)
    for c in reversed(coeff_series[:-1]):
        acc = acc * u + c.truncate(order)
    return acc


def solve_polynomial(coeff_series: Sequence[TruncatedSeries], seed) -> TruncatedSeries:
    """Solve sum(coeff_series[i] * U**i) = 0 for the root with U(0) = seed.

    Newton iteration doubling the correct order each step.  The seed must be
    a simple root of the equation at x = 0, and the finished solution is
    verified to satisfy the equation exactly through the coefficient order.
    """
    coeff_series = list(coeff_series)
    if len(coeff_series) < 2:
        raise ValueError("the equation needs degree at least 1")
    variables = coeff_series[0].vars
    if any(c.vars != variables for c in coeff_series):
        raise ValueError("all coefficient series must share one variable tuple")
    target = min(c.order for c in coeff_series)
    seed = _as_fraction(seed)

    deriv_series = [i * c for i, c in enumerate(coeff_series)][1:]

    u = TruncatedSeries([seed], variables)
    residual0 = _horner(coeff_series, u, 0)
    if residual0.coeffs[0] != 0:
        raise SolveError(f"seed {seed} does not satisfy the equation at x = 0")
    slope0 = _horner(deriv_series, u, 0).coeffs[0]
    if isinstance(slope0, Poly):
        if not slope0.is_constant():
            raise SolveError("the root is not numerically simple at x = 0")
        slope0 = slope0.constant_value()
    if not slope0:
        raise SolveError(f"seed {seed} is not a simple root at x = 0")

    reached = 0
    while reached < target:
        reached = min(2 * reached + 1, target)
        padded = u._pad(reached)
        u = padded - _horner(coeff_series, padded, reached) / _horner(
            deriv_series, padded, reached
        )
    if not (_horner(coeff_series, u, target) == 0):
        raise SolveError("Newton iteration did not converge to a verified root")
    return u


def check_degree_bound(series: TruncatedSeries) -> None:
    """Assert that coefficient n has auxiliary degree at most n."""
    for n, c in enumerate(series.coeffs):
        if isinstance(c, Poly):
            for name in series.vars:
                if c.degree(name) > n:
                    raise SeriesError(
                        f"coefficient of x^{n} has degree {c.degree(name)} in {name}"
                    )
