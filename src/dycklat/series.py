"""Exact truncated power series in x, with polynomial or jet coefficients.

A TruncatedSeries stores the coefficients of x^0 .. x^order.  Plain series
keep exact rationals, as int when integral and as Fraction otherwise.
Series over auxiliary variables (such as a statistic marker q) keep their
coefficients in one of two rings, fixed per series:

- Poly, a sparse polynomial in the variables.  Coefficient n of a path
  series holds O(n^2) terms.  The named series that `series --name` prints
  (F2, F3, V, A, B, C) run over Poly.
- Jet, the Taylor expansion of such a polynomial at every variable = 1,
  truncated at total order JET_ORDER = 3: at most 10 numbers per
  coefficient.  The chain routes (SC2, SC3) read only derivatives at
  q = y = 1, so they run over jets; an order-n convolution then costs O(n)
  small products instead of O(n) products of O(n^2)-term polynomials.

Poly products are formed by Kronecker substitution (see kronecker): each
polynomial is packed into one int, one signed slot per monomial.  The slot
width bounds the result: the largest sum, over the products forming one
result coefficient, of the products of the factors' L1 norms.  The strides
come from the factors' degrees; Fractions are cleared to one denominator
per polynomial.  Every sum of coefficient products here, in a series
product, solve_polynomial or the path systems, goes through one function,
convolver, which packs per x-coefficient, each into its own int, so
coefficient n of a product is one sum of big-int products.  One int per
series would need the widest slot for every x-coefficient and several
times the memory.  Poly.__mul__ is the one-pair case.  Jets and plain
series add up their products term by term.

Both rings offer the same public methods: the same arithmetic and the
same derivative, subs, degree and constant_value, so every operation here
is written once for either ring, and a result over jets is the jet of the
result over Poly.  Each ring defines what reads its storage: __init__,
variable, __add__, __neg__, __mul__, __eq__, __bool__, is_constant,
degree, derivative, subs and printing.  Their base, _Ring, builds the rest
once for both: constant, coercion, subtraction, division by a number,
powers, constant_value and the argument checks of subs.  Both store
integral values as int, so the counting series are multiplied in int
arithmetic; printing and equality do not depend on whether an int or a
Fraction holds a value.

The checks take the same form in both rings.  solve_polynomial substitutes
its root, square roots and quotients included.  check_degree_bound asks that
coefficient n has degree at most n in each variable; over jets that says
its (q-1)^a (y-1)^b terms vanish for a > n or b > n.  No operation here
divides by a variable: a series with a variable in its denominator is built
as the root of an equation instead.

Order bookkeeping: every operation returns a series whose coefficients are
all determined by its operands.  Addition keeps the smaller order.  For a
product, coefficient n only involves unknown coefficients of one factor
when the other factor has a nonzero stored coefficient below the matching
index, so the product is valid through

    min(a.order + val(b), b.order + val(a))

where val is the index of the first nonzero stored coefficient (order + 1
for an all-zero series).

Square roots (U**2 - f = 0) and quotients a / b (b*U - a = 0) are roots
of solve_polynomial, and it and the path systems in genseries are solved
one coefficient at a time (the naive form of online multiplication; van der
Hoeven, JSC 34 (2002)): coefficient n of each equation is a fixed number
times the unknown coefficient n plus a sum over lower coefficients only.
Each coefficient is computed exactly once, and the finished series are
then checked against their equations with the full-order products here.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate, product
from operator import add

from .errors import SeriesError, SolveError
from .kronecker import Kronecker


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


def _normal(value):
    """An integral Fraction as an int; any other value, Poly and Jet included, as it is."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _power(one, base, exponent: int):
    """base**exponent as exponent repeated products, starting from one."""
    if exponent < 0:
        raise ValueError(f"negative power {exponent}; powers here are repeated products")
    result = one
    for _ in range(exponent):
        result = result * base
    return result


class _Ring:
    """The operations of Poly and Jet that do not read how a ring stores coefficients."""

    __slots__ = ()  # so that no Poly or Jet instance gains a __dict__

    @classmethod
    def constant(cls, value, variables: Iterable[str]):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    def _coerce(self, other):
        if type(other) is type(self):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.constant(other, self.vars)
        return None

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

    def __truediv__(self, scalar):
        scalar = _as_fraction(scalar)
        if not scalar:
            raise ZeroDivisionError(f"division of a {type(self).__name__} by zero")
        return self * (1 / scalar)

    def __pow__(self, exponent: int):
        return _power(self.constant(1, self.vars), self, exponent)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise SeriesError(f"{self!r} is not constant")
        return self.subs(dict.fromkeys(self.vars, 1))

    def _kept(self, assignment: dict) -> list[int]:
        """Positions of the variables that subs(assignment) leaves free."""
        unknown = set(assignment) - set(self.vars)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        return [i for i, v in enumerate(self.vars) if v not in assignment]


class Poly(_Ring):
    """Sparse polynomial over the rationals in a fixed tuple of named variables.

    Integral coefficients are stored as int and the others as Fraction, so
    products of counting series never build a Fraction.  The methods here
    read the term dict; subtraction, division by a number, powers and
    constant_value come from _Ring.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: dict):
        self.vars = tuple(variables)
        width = len(self.vars)
        if not width:
            raise ValueError("a polynomial needs at least one variable; use a number")
        clean: dict[tuple[int, ...], int | Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError("exponent tuple does not match the variable tuple")
            if min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
            coeff = _exact(coeff)
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    @classmethod
    def variable(cls, name: str, variables: Iterable[str]) -> Poly:
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): 1})

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # a Poly is never changed after __init__, so a sum with zero can be the other operand
        if not o.terms:
            return self
        if not self.terms:
            return o
        merged = dict(self.terms)
        for exps, coeff in o.terms.items():
            merged[exps] = merged.get(exps, 0) + coeff
        return Poly(self.vars, merged)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            return Poly(self.vars, {e: c * other for e, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a = (self,)
        return _poly(self.vars, Kronecker(len(self.vars)).convolve(a, a if o is self else (o,), 0))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Poly.constant(other, self.vars).terms
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.terms)

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
        keep = self._kept(assignment)
        # Integral values are bound as int, so integer polynomials stay in int arithmetic.
        bound = [(i, _exact(assignment[v])) for i, v in enumerate(self.vars) if v in assignment]
        out: dict[tuple[int, ...], int | Fraction] = {}
        for exps, coeff in self.terms.items():
            for i, value in bound:
                coeff = coeff * value ** exps[i]
            reduced = tuple(exps[i] for i in keep)
            out[reduced] = out.get(reduced, 0) + coeff
        if keep:
            return Poly(tuple(self.vars[i] for i in keep), out)
        return Fraction(out.get((), 0))

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


def _poly(variables: tuple[str, ...], terms: dict) -> Poly:
    """A Poly over terms that are already clean: nonzero, int where integral."""
    poly = object.__new__(Poly)
    poly.vars = variables
    poly.terms = terms
    return poly


# Total order of a Jet.  The chain routes read at most third derivatives at
# q = y = 1 (SC3 needs the third q-derivative of the valley series), so no
# coefficient of higher order is ever needed.
JET_ORDER = 3


# The jet products are written out term by term: they are the inner loop of
# every jet convolution, and a loop over a table of slot pairs took about
# 1.4x as long.
def _product1(a, b):
    """Jet product in one variable; slots 1, e, e^2, e^3 with e = q - 1."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0,
        a0 * b1 + a1 * b0,
        a0 * b2 + a1 * b1 + a2 * b0,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
    )


def _product2(a, b):
    """Jet product in two variables; slots 1, e, d, e^2, ed, d^2, e^3, e^2d, ed^2, d^3."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = b
    return (
        a0 * b0,
        a0 * b1 + a1 * b0,
        a0 * b2 + a2 * b0,
        a0 * b3 + a1 * b1 + a3 * b0,
        a0 * b4 + a1 * b2 + a2 * b1 + a4 * b0,
        a0 * b5 + a2 * b2 + a5 * b0,
        a0 * b6 + a1 * b3 + a3 * b1 + a6 * b0,
        a0 * b7 + a1 * b4 + a2 * b3 + a3 * b2 + a4 * b1 + a7 * b0,
        a0 * b8 + a1 * b5 + a2 * b4 + a4 * b2 + a5 * b1 + a8 * b0,
        a0 * b9 + a2 * b5 + a5 * b2 + a9 * b0,
    )


class _JetLayout:
    """The coefficient slots of a jet in one or two variables.

    Slots hold the monomials of total degree <= JET_ORDER, listed by degree,
    so a jet of order k keeps exactly the first sizes[k] of them.
    """

    __slots__ = ("monomials", "index", "sizes", "multiply")

    def __init__(self, width: int, multiply):
        self.monomials = sorted(
            (e for e in product(range(JET_ORDER + 1), repeat=width) if sum(e) <= JET_ORDER),
            key=lambda e: (sum(e), [-x for x in e]),
        )
        self.index = {e: i for i, e in enumerate(self.monomials)}
        self.sizes = tuple(
            sum(1 for e in self.monomials if sum(e) <= k) for k in range(JET_ORDER + 1)
        )
        self.multiply = multiply


_LAYOUTS = {1: _JetLayout(1, _product1), 2: _JetLayout(2, _product2)}


def _jet(variables: tuple[str, ...], order: int, coeffs: tuple, layout: _JetLayout) -> Jet:
    jet = object.__new__(Jet)
    jet.vars = variables
    jet.order = order
    jet.coeffs = coeffs
    jet._layout = layout
    return jet


class Jet(_Ring):
    """Truncated Taylor expansion at 1 of a polynomial in one or two variables.

    A Jet over (q, y) holds the coefficients of (q-1)^a (y-1)^b for
    a + b <= order, where order is at most JET_ORDER: the derivatives at
    q = y = 1 that the chain routes read, and nothing more.  Coefficients
    are exact rationals; construction and scalar multiplication or
    division store integral ones as int, and int products stay int.  A Jet
    defines the methods of Poly that read its coefficient tuple and takes
    the rest from _Ring, so the same series code runs over either ring,
    and the jet of a Poly result is the result of the same computation
    over jets.  Only binding a variable to 1, its expansion point, is
    defined.  A derivative lowers the order by one; a sum or product has
    the smaller order of its operands.
    """

    __slots__ = ("vars", "order", "coeffs", "_layout")

    def __init__(self, variables: Iterable[str], terms: dict, order: int = JET_ORDER):
        """Terms map exponent tuples of (v - 1) to coefficients; those above order are dropped."""
        self.vars = tuple(variables)
        layout = _LAYOUTS.get(len(self.vars))
        if layout is None:
            raise ValueError(f"a jet has one or two variables, got {self.vars}")
        if not 0 <= order <= JET_ORDER:
            raise ValueError(f"jet order must be between 0 and {JET_ORDER}, got {order}")
        coeffs = [0] * layout.sizes[order]
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(self.vars):
                raise ValueError("exponent tuple does not match the variable tuple")
            if min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
            if sum(exps) <= order:
                coeffs[layout.index[exps]] = _exact(coeff)
        self.order = order
        self.coeffs = tuple(coeffs)
        self._layout = layout

    @classmethod
    def variable(cls, name: str, variables: Iterable[str]) -> Jet:
        """The jet of the variable itself, 1 + (name - 1)."""
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {(0,) * len(variables): 1, tuple(exps): 1})

    @property
    def terms(self) -> dict:
        """The nonzero coefficients, by exponent tuple of (v - 1)."""
        monomials = self._layout.monomials
        return {monomials[i]: c for i, c in enumerate(self.coeffs) if c}

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _jet(self.vars, min(self.order, o.order),
                    tuple(map(add, self.coeffs, o.coeffs)), self._layout)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.vars, self.order, tuple(-c for c in self.coeffs), self._layout)

    def __mul__(self, other):
        if type(other) is not Jet:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            scaled = (c * other for c in self.coeffs)
            if type(other) is not int:
                scaled = map(_exact, scaled)
            return _jet(self.vars, self.order, tuple(scaled), self._layout)
        o = self._coerce(other)
        layout = self._layout
        a, b = self.coeffs, o.coeffs
        if self.order == o.order == JET_ORDER:
            return _jet(self.vars, JET_ORDER, layout.multiply(a, b), layout)
        # Terms of degree <= order depend only on factor terms of degree <= order.
        order = min(self.order, o.order)
        full = layout.sizes[JET_ORDER]
        padded = (c + (0,) * (full - len(c)) for c in (a, b))
        return _jet(self.vars, order, layout.multiply(*padded)[: layout.sizes[order]], layout)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is Jet:
            return self.vars == other.vars and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_constant(self) -> bool:
        return not any(self.coeffs[1:])

    def degree(self, name: str) -> int:
        """Largest power of (name - 1) with a nonzero coefficient; -1 for zero.

        It never exceeds the degree in name of the polynomial expanded, so a
        degree bound on the polynomial holds for its jet.
        """
        idx = self.vars.index(name)
        monomials = self._layout.monomials
        return max((monomials[i][idx] for i, c in enumerate(self.coeffs) if c), default=-1)

    def derivative(self, name: str) -> Jet:
        if not self.order:
            raise SeriesError(f"a jet of order 0 has no known derivative in {name}")
        idx = self.vars.index(name)
        layout = self._layout
        out = [0] * layout.sizes[self.order - 1]
        for exps, c in zip(layout.monomials, self.coeffs):
            if c and exps[idx]:
                lowered = list(exps)
                lowered[idx] -= 1
                out[layout.index[tuple(lowered)]] = c * exps[idx]
        return _jet(self.vars, self.order - 1, tuple(out), layout)

    def subs(self, assignment: dict) -> Jet | Fraction:
        """Bind variables to 1; a full binding gives the constant term as a Fraction."""
        keep = self._kept(assignment)
        if any(value != 1 for value in assignment.values()):
            raise ValueError("a jet at 1 can only bind its variables to 1")
        if not keep:
            return Fraction(self.coeffs[0])
        bound = [i for i, v in enumerate(self.vars) if v in assignment]
        terms = {
            tuple(exps[i] for i in keep): c
            for exps, c in zip(self._layout.monomials, self.coeffs)
            if not any(exps[i] for i in bound)
        }
        return Jet(tuple(self.vars[i] for i in keep), terms, self.order)

    def __repr__(self) -> str:
        return f"Jet({self.vars}, {self.terms}, order={self.order})"


def _nonzero_span(coeffs: Sequence) -> Sequence:
    """coeffs without its trailing zeros, or coeffs itself if it has none."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return coeffs if end == len(coeffs) else coeffs[:end]


def convolver(ring: type | None, variables: tuple[str, ...]):
    """The function (a, b, n) -> sum of a[i]*b[n-i] over the entries both lists hold.

    a and b are coefficient lists over ring (None for plain numbers), and
    may grow between calls; an entry not held yet counts as zero, so a
    partial quotient or root holding entries 0..n-1 adds no pair that needs
    its entry n.  A sum runs over the indices both lists hold, so a list
    known in full is passed through _nonzero_span: a polynomial in x padded
    to the order then costs a sum O(its degree), not O(n).  Over Poly the
    sums are formed by one Kronecker packer, which packs each entry once
    per frame and pairs the terms of a square (a is b); over jets and plain
    numbers they are added up term by term.
    """
    if ring is Poly:
        packer = Kronecker(len(variables))
        return lambda a, b, n: _poly(variables, packer.convolve(a, b, n))
    zero = ring(variables, {}) if variables else 0

    def convolve(a, b, n: int):
        acc = zero
        for i in range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1):
            x = a[i]
            if x:
                y = b[n - i]
                if y:
                    acc = acc + x * y
        return acc

    return convolve


class TruncatedSeries:
    """Power series in x known through x**order, with exact coefficients.

    A series over variables has its coefficients in one ring, Poly (the
    default) or Jet, named by its ring attribute.  A plain series, with no
    variables, has exact rational coefficients and ring None.
    """

    __slots__ = ("vars", "ring", "coeffs")

    def __init__(self, coeffs: Sequence, variables: Iterable[str] = (), ring: type = Poly):
        self.vars = tuple(variables)
        if self.vars and ring not in (Poly, Jet):
            raise ValueError(f"coefficient ring must be Poly or Jet, got {ring!r}")
        self.ring = ring if self.vars else None
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        self.coeffs = tuple(self._box(c) for c in coeffs)

    def _box(self, value):
        if self.vars:
            if isinstance(value, (Poly, Jet)):
                if type(value) is not self.ring or value.vars != self.vars:
                    raise ValueError("coefficient ring or variables do not match the series")
                return value
            return self.ring.constant(value, self.vars)
        if isinstance(value, (Poly, Jet)):
            raise ValueError("plain series cannot hold polynomial coefficients")
        return _exact(value)

    def _zero_coeff(self):
        return self.ring(self.vars, {}) if self.vars else 0

    def _check_combinable(self, other: TruncatedSeries) -> None:
        if other.vars != self.vars or other.ring is not self.ring:
            raise ValueError("cannot combine series over different variables or rings")

    @classmethod
    def polynomial(cls, coeffs: Sequence, order: int | None = None,
                   variables: Iterable[str] = (), ring: type = Poly) -> TruncatedSeries:
        """Series from an exact polynomial in x, zero padded to the order."""
        coeffs = list(coeffs)
        if order is not None:
            if order + 1 < len(coeffs):
                coeffs = coeffs[: order + 1]
            else:
                coeffs = coeffs + [0] * (order + 1 - len(coeffs))
        return cls(coeffs, variables, ring)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficients(self) -> list:
        return list(self.coeffs)

    def valuation(self) -> int:
        """Index of the first nonzero stored coefficient; order + 1 if none."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.order + 1

    def _wrap(self, coeffs, variables: tuple[str, ...] | None = None) -> TruncatedSeries:
        clone = object.__new__(TruncatedSeries)
        clone.vars = self.vars if variables is None else variables
        clone.ring = self.ring if clone.vars else None
        clone.coeffs = tuple(coeffs)
        return clone

    def _coerce_scalar(self, value):
        try:
            return self._box(value)
        except (TypeError, ValueError):
            return None

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_combinable(other)
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
        if not isinstance(other, TruncatedSeries):
            other = self._coerce_scalar(other)
            if other is None:
                return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_combinable(other)
            va, vb = self.valuation(), other.valuation()
            n_out = min(self.order + vb, other.order + va)
            a = _nonzero_span(self.coeffs)
            b = a if other.coeffs is self.coeffs else _nonzero_span(other.coeffs)
            convolve = convolver(self.ring, self.vars)
            return self._wrap([convolve(a, b, n) for n in range(n_out + 1)])
        if isinstance(other, (int, Fraction)):
            # Each coefficient takes the number itself, so integral results
            # stay int in a Jet or a plain series.
            return self._wrap([_normal(c * other) for c in self.coeffs])
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self._wrap([c * scalar for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_combinable(other)
            lead = other.coeffs[0]
            if isinstance(lead, (Poly, Jet)):
                lead = lead.constant_value()
            if not lead:
                raise SeriesError(
                    "division needs an invertible constant term; shift the valuation away first"
                )
            return solve_polynomial((-self, other), self.coeffs[0] * (Fraction(1) / lead))
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        if not scalar:
            raise ZeroDivisionError("division of a series by zero")
        if isinstance(scalar, (Poly, Jet)):
            scalar = scalar.constant_value()
        return self * (Fraction(1) / scalar)

    def __pow__(self, exponent: int):
        one = self._wrap([self._box(1)] + [self._zero_coeff()] * self.order)
        return _power(one, self, exponent)

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

    def sqrt(self) -> TruncatedSeries:
        """Square root with constant term 1: the root U(0) = 1 of U**2 - self = 0."""
        if self.coeffs[0] != 1:
            raise SeriesError("square root requires constant term 1")
        return solve_polynomial((-self, self * 0, self**0), 1)

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
        return self._wrap([_normal(c.subs(assignment)) for c in self.coeffs], remaining)

    def __eq__(self, other) -> bool:
        """Coefficientwise agreement through the shorter truncation order."""
        if isinstance(other, TruncatedSeries):
            if other.vars != self.vars or other.ring is not self.ring:
                return False
            n = min(self.order, other.order)
            return all(self.coeffs[i] == other.coeffs[i] for i in range(n + 1))
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        return self.coeffs[0] == scalar and not any(self.coeffs[1:])

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order}, vars={self.vars})"


def solve_polynomial(coeff_series: Sequence[TruncatedSeries], seed) -> TruncatedSeries:
    """Solve sum(coeff_series[i] * U**i) = 0 for the root with U(0) = seed.

    One coefficient at a time, also for sqrt and series division: for n > 0,
    coefficient n of U**i is i*seed**(i-1)*U[n] plus a sum over U[1..n-1], so
    U[n] is minus the rest of the equation's coefficient n over its slope at
    x = 0.  The seed, a number or a Poly or Jet of the series' ring, must be a
    simple root with a numerical slope, and the root is checked by substitution.
    """
    coeff_series = list(coeff_series)
    if len(coeff_series) < 2:
        raise ValueError("the equation needs degree at least 1")
    variables, ring = coeff_series[0].vars, coeff_series[0].ring
    if any(c.vars != variables or c.ring is not ring for c in coeff_series):
        raise ValueError("all coefficient series must share one variable tuple and ring")
    target = min(c.order for c in coeff_series)
    seed = coeff_series[0]._box(seed) if type(seed) is ring else _exact(seed)
    coeffs = [c.coeffs for c in coeff_series]
    if sum(seed**i * c[0] for i, c in enumerate(coeffs)):
        raise SolveError(f"seed {seed} does not satisfy the equation at x = 0")
    slopes = [i * seed ** (i - 1) for i in range(1, len(coeffs))]
    slope = sum(s * c[0] for s, c in zip(slopes, coeffs[1:]))
    if isinstance(slope, (Poly, Jet)):
        if not slope.is_constant():
            raise SolveError("the root is not numerically simple at x = 0")
        slope = slope.constant_value()
    if not slope:
        raise SolveError(f"seed {seed} is not a simple root at x = 0")
    inverse = _exact(Fraction(-1) / slope)

    convolve = convolver(ring, variables)
    spans = [_nonzero_span(c) for c in coeffs[1:]]
    # A constant lead multiplies as a number, and a zero one adds nothing.
    leads = [_exact(c[0].constant_value()) if ring and c[0].is_constant() else c[0]
             for c in coeffs[1:]]
    # powers[i - 1] holds the coefficients of U**i found so far; powers[0] is U.
    powers = [[coeff_series[0]._box(seed**i)] for i in range(1, len(coeffs))]
    # Only a top coefficient series that varies in x reads the top power, so
    # a constant one, as in every square root, leaves it unread; U is the root.
    grown = powers if len(powers) == 1 or len(spans[-1]) > 1 else powers[:-1]
    for n in range(1, target + 1):
        # rests[i - 1]: coefficient n of U**i with U[n] left out (None for U):
        # seed times that of U**(i-1), plus U[j] * U**(i-1)[n-j] for 0 < j < n.
        rests = [None, *accumulate((convolve(powers[0], p, n) for p in powers[:-1]),
                                   lambda rest, term: rest * seed + term)]
        residual = coeffs[0][n]
        for span, lead, p, rest in zip(spans, leads, powers, rests):
            if len(span) > 1:  # a span of one entry has no pair below n
                residual = residual + convolve(span, p, n)
            if lead and rest:
                residual = residual + lead * rest
        # Each sum read entries below n only, and the packer caches what it
        # reads, so every entry n is appended once, final.
        u = _normal(residual * inverse)
        for p, rest, s in zip(grown, rests, slopes):
            p.append(u if rest is None else _normal(rest + s * u))
    root = TruncatedSeries(powers[0], variables, ring)
    # Free the packer and the power lists before the full-order products.
    convolve = powers = grown = p = None
    # Substitute the root by its powers, U**2 a square with its pairs formed
    # once.  Every power is formed before the first sum, so no partial sum is
    # alive while one forms; the terms are then added from the highest down.
    powers = [root]
    for _ in spans[1:]:
        powers.append(powers[-1] * root)
    residual = coeff_series[0]
    for c, span, lead in reversed(list(zip(coeff_series[1:], spans, leads))):
        power = powers.pop()
        if len(span) > 1 or lead:
            residual = residual + power * (c if len(span) > 1 else lead)
    if not (residual == 0):
        raise SolveError("the solved root does not satisfy the equation")
    return root


def check_degree_bound(series: TruncatedSeries) -> None:
    """Assert that coefficient n has auxiliary degree at most n."""
    for n, c in enumerate(series.coeffs):
        if isinstance(c, (Poly, Jet)):
            for name in series.vars:
                if c.degree(name) > n:
                    raise SeriesError(
                        f"coefficient of x^{n} has degree {c.degree(name)} in {name}"
                    )
