"""Sums of polynomial products formed as products of packed ints.

Kronecker substitution (Harvey, JSC 44 (2009)): a frame gives every
monomial one signed slot of `width` bytes at slot index
e_0 + s_0*(e_1 + s_1*(...)), where s_j is the stride of variable j (the
last variable needs none).  A polynomial with integer coefficients c_k in
slots k packs into the int sum(c_k * 2**(8*width*k)), so the product of two
packed ints, or a sum of such products, is the packed sum of the polynomial
products as long as every result slot stays below half of 2**(8*width) in
magnitude and no exponent of a strided variable reaches its stride.
CPython's big-int multiply then does the term-by-term work in C.

The frame is fitted to each sum before it is formed, from the operands: a
slot is bounded by the sum, over the products, of the products of the L1
norms of the factors' numerators, and a strided exponent by the sum of the
factors' degrees.  Fraction coefficients are cleared to the least common
denominator of their polynomial, and a sum is unpacked over the least
common multiple of its products' denominators, as int where integral.

Each coefficient list is packed one entry at a time, each entry into its
own int, and each entry once per frame.  reserve fits the frame to every
sum of a product of two known lists at once.  Lists that grow while they
are summed (a quotient, the path systems) widen the frame by a quarter
beyond the need when a sum outgrows it, and their entries are packed again:
their magnitudes are not known before they are computed.

The entries are polynomials with a `terms` dict {exponent tuple: int or
Fraction} and nonnegative exponents; sums come back as such a dict.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm


def _numerators(poly, strided: int):
    """(integer terms, denominator, L1 bit length, degrees) of a nonzero polynomial; None for zero.

    The terms are the coefficients times their least common denominator.
    The degrees are those of the first `strided` variables, the ones a
    frame gives a stride.
    """
    terms = poly.terms
    if not terms:
        return None
    denom = 1
    for c in terms.values():
        if type(c) is not int:
            denom = lcm(denom, c.denominator)
    if denom != 1:
        terms = {e: int(c * denom) for e, c in terms.items()}
    degs = tuple(max(e[j] for e in terms) for j in range(strided))
    return terms, denom, sum(map(abs, terms.values())).bit_length(), degs


class Kronecker:
    """Coefficient sums of products of polynomial lists in a fixed number of variables."""

    __slots__ = ("width", "strides", "_lists")

    def __init__(self, nvars: int):
        self.width = 0
        self.strides = (0,) * (nvars - 1)
        # id(list) -> (list, numerators by index, packed ints by index); the
        # list itself is held so that its id stays its own while this lives.
        self._lists = {}

    def _state(self, seq):
        state = self._lists.get(id(seq))
        if state is None:
            state = self._lists[id(seq)] = (seq, [], [])
        _, nums, packed = state
        strided = len(self.strides)
        while len(nums) < len(seq):
            nums.append(_numerators(seq[len(nums)], strided))
            packed.append(None)
        return state

    def _terms(self, a, b, n: int, start: int):
        """The nonzero pairs (i, n - i) of a sum, its denominator, and the frame it needs."""
        _, nums_a, _ = self._state(a)
        _, nums_b, _ = self._state(b)
        twice = a is b and not start  # a square: each pair i < n - i stands for two
        hi = min(n, len(nums_a) - 1, n // 2 if twice else n)
        pairs = [
            (i, n - i) for i in range(max(start, n - len(nums_b) + 1), hi + 1)
            if nums_a[i] and nums_b[n - i]
        ]
        denom = 1
        for i, j in pairs:
            d = nums_a[i][1] * nums_b[j][1]
            if d != 1:
                denom = lcm(denom, d)
        bits = 0
        strides = [0] * len(self.strides)
        for i, j in pairs:
            x, y = nums_a[i], nums_b[j]
            bits = max(bits, x[2] + y[2] + (denom // (x[1] * y[1])).bit_length())
            for k, (d, e) in enumerate(zip(x[3], y[3])):
                strides[k] = max(strides[k], d + e + 1)
        count = len(pairs) * (2 if twice else 1)
        return pairs, twice, denom, bits + count.bit_length() + 1, strides

    def _fit(self, bits: int, strides, slack: int) -> None:
        """Widen the frame, by slack quarters beyond the need, unless it already fits."""
        if bits <= 8 * self.width and all(s <= t for s, t in zip(strides, self.strides)):
            return
        self.width = max(self.width, -(-bits * (4 + slack) // 32))
        self.strides = tuple(
            t if s <= t else -(-s * (4 + slack) // 4) for s, t in zip(strides, self.strides)
        )
        for _, _, packed in self._lists.values():
            packed[:] = [None] * len(packed)

    def reserve(self, a, b, last: int) -> None:
        """Fit the frame to every sum convolve(a, b, n) with n <= last, so each entry packs once."""
        bits, strides = 0, [0] * len(self.strides)
        for n in range(last + 1):
            _, _, _, need, widths = self._terms(a, b, n, 0)
            bits = max(bits, need)
            strides = [max(s, t) for s, t in zip(strides, widths)]
        self._fit(bits, strides, 0)

    def _packed(self, state, i: int) -> int:
        _, nums, packed = state
        value = packed[i]
        if value is None:
            value = packed[i] = self._pack(nums[i][0])
        return value

    def _pack(self, terms: dict) -> int:
        size, strides = self.width, self.strides
        slots = {}
        for exps, c in terms.items():
            k = exps[-1]
            for j in range(len(strides) - 1, -1, -1):
                k = k * strides[j] + exps[j]
            slots[k] = c
        length = (max(slots) + 1) * size
        pos, neg = bytearray(length), None
        for k, c in slots.items():
            at = k * size
            if c > 0:
                pos[at:at + size] = c.to_bytes(size, "little")
            else:
                if neg is None:
                    neg = bytearray(length)
                neg[at:at + size] = (-c).to_bytes(size, "little")
        value = int.from_bytes(pos, "little")
        return value - int.from_bytes(neg, "little") if neg else value

    def _unpack(self, value: int, denom: int) -> dict:
        # Adding half to every slot makes each one nonnegative, so the slots
        # read off the bytes independently, with no borrow between them.
        size, strides = self.width, self.strides
        half = 1 << (8 * size - 1)
        zero = half.to_bytes(size, "little")
        count = value.bit_length() // (8 * size) + 1
        raw = (value + int.from_bytes(zero * count, "little")).to_bytes(count * size, "little")
        terms = {}
        for k in range(count):
            chunk = raw[k * size:(k + 1) * size]
            if chunk != zero:
                c = int.from_bytes(chunk, "little") - half
                exps, rest = [], k
                for s in strides:
                    rest, e = divmod(rest, s)
                    exps.append(e)
                exps.append(rest)
                if denom != 1:
                    c = Fraction(c, denom)
                    if c.denominator == 1:
                        c = c.numerator
                terms[tuple(exps)] = c
        return terms

    def convolve(self, a: Sequence, b: Sequence, n: int, start: int = 0) -> dict:
        """The terms of sum(a[i] * b[n - i] for i >= start): coefficient n of a product."""
        pairs, twice, denom, bits, strides = self._terms(a, b, n, start)
        if not pairs:
            return {}
        self._fit(bits, strides, 1)
        state_a, state_b = self._lists[id(a)], self._lists[id(b)]
        nums_a, nums_b = state_a[1], state_b[1]
        total = doubled = 0
        for i, j in pairs:
            term = self._packed(state_a, i) * self._packed(state_b, j)
            scale = denom // (nums_a[i][1] * nums_b[j][1])
            if scale != 1:
                term *= scale
            if twice and i != j:
                doubled += term
            else:
                total += term
        return self._unpack(total + 2 * doubled, denom)
