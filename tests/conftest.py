"""Independent reference implementations used as oracles by the tests.

Nothing here imports the package under test, except radical_over_2qx,
which takes only the package's plain square root and shift; the point is
that agreement between these and the library is evidence, not tautology.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gamma

from hypothesis import strategies as st


@lru_cache(maxsize=None)
def dyck_words(n):
    """All Dyck words of semilength n via first-return decomposition."""
    if n == 0:
        return ("",)
    out = []
    for k in range(n):
        for left in dyck_words(k):
            for right in dyck_words(n - 1 - k):
                out.append("u" + left + "d" + right)
    return tuple(out)


def count_occurrences(word, factor):
    return sum(word.startswith(factor, i) for i in range(len(word)))


def valley_positions(word):
    """The positions i of the d of each valley du of word."""
    return [i for i in range(len(word) - 1) if word[i : i + 2] == "du"]


def count_chains_from(word, h):
    """Saturated chains of length h upward from word, one cover at a time.

    A cover flips one valley du of the word to a peak ud; the counts of the
    words reached are memoised for this call.
    """
    memo = {}

    def chains(w, k):
        if k == 0:
            return 1
        if (w, k) not in memo:
            memo[w, k] = sum(chains(w[:i] + "ud" + w[i + 2 :], k - 1) for i in valley_positions(w))
        return memo[w, k]

    return chains(word, h)


def chain_totals_by_rounds(n, h_max):
    """Saturated chains of every length 0..h_max in the Dyck lattice of semilength n.

    The words are ranked in canonical order (u before d), each word's covers
    (one valley du flipped to ud) are looked up by rank, and round k holds,
    by rank, the sum of round k - 1 over the word's covers: one cover at a
    time, with every round kept.
    """
    words = sorted(dyck_words(n), key=lambda w: w.replace("u", "a").replace("d", "b"))
    rank = {w: r for r, w in enumerate(words)}
    covers = [[rank[w[:i] + "ud" + w[i + 2 :]] for i in valley_positions(w)] for w in words]
    counts = [1] * len(words)
    totals = [sum(counts)]
    for _ in range(h_max):
        counts = [sum(counts[c] for c in up) for up in covers]
        totals.append(sum(counts))
    return totals


def _intervals_disjoint(a, b):
    return a[1] <= b[0] or b[1] <= a[0]


def count_disjoint_placements(word, factors):
    """Count unordered sets of pairwise disjoint factor occurrences in word.

    factors is a multiset of subwords; a placement gives each of them a start
    position so that the occupied index intervals are pairwise disjoint
    (touching endpoints are fine).  Placements differing only by swapping
    positions between equal factors are counted once.
    """
    groups = [
        ([(i, i + len(f)) for i in range(len(word)) if word.startswith(f, i)], mult)
        for f, mult in sorted(Counter(factors).items())
    ]

    def rec(group_index, taken):
        if group_index == len(groups):
            return 1
        intervals, mult = groups[group_index]
        total = 0
        for combo in combinations(intervals, mult):
            placed = taken + combo
            if all(_intervals_disjoint(a, b) for a, b in combinations(placed, 2)):
                total += rec(group_index + 1, placed)
        return total

    return rec(0, ())


def profile(word):
    heights = [0]
    for step in word:
        heights.append(heights[-1] + (1 if step == "u" else -1))
    return heights


def rotate_to_dyck(steps):
    """The Dyck word in a sequence of n u and n + 1 d steps, by the cycle lemma.

    Exactly one rotation of the sequence stays at height >= 0 until its final
    d: the one starting just after the first minimum of the prefix heights.
    Dropping that d leaves a Dyck word, and every Dyck word of semilength n
    comes from exactly 2n + 1 sequences, so uniform sequences give uniform
    Dyck words.
    """
    heights = profile(steps)
    cut = heights.index(min(heights))
    return (steps[cut:] + steps[:cut])[:-1]


@st.composite
def random_dyck_words(draw, max_n):
    """Dyck words of semilength 1..max_n, uniform for each semilength."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    return rotate_to_dyck("".join(draw(st.permutations("u" * n + "d" * (n + 1)))))


def mirror(word):
    """The word read right to left with u and d swapped (a left-right reflection)."""
    return word[::-1].translate(str.maketrans("ud", "du"))


def word_leq(low, high):
    pl, ph = profile(low), profile(high)
    return all(a <= b for a, b in zip(pl, ph))


def catalan_ref(n):
    return comb(2 * n, n) // (n + 1)


def boolean_chain_count(n, h):
    """Saturated chains of length h in the subset lattice of {1..n}, by DP.

    Chains go upward one added element at a time; masks are subsets.
    """
    size = 1 << n
    ways = [1] * size
    for _ in range(h):
        nxt = [0] * size
        for mask in range(size):
            for bit in range(n):
                if not mask & (1 << bit):
                    nxt[mask] += ways[mask | (1 << bit)]
        ways = nxt
    return sum(ways)


def polynomial_value(coefficients, x):
    """Exact Horner evaluation; coefficients in ascending powers."""
    acc = Fraction(0)
    for c in reversed(tuple(coefficients)):
        acc = acc * Fraction(x) + Fraction(c)
    return acc


def chain3_main_term(q_coefficients, n):
    """Darboux's main term of the length-3 chain count at semilength n, as a float.

    The length-3 chain series minus its analytic part is
    -Q(x) (1 - 4x)^(-5/2) / x, Q given by q_coefficients in ascending powers.
    Coefficient m of -Q(x) (1 - 4x)^(-5/2) has the main term
    -Q(1/4) 4^m m^(3/2) / Gamma(5/2), and the leading 1/x moves the
    exponential factor to m = n + 1 while the polynomial factor keeps n,
    which changes only lower-order terms.
    """
    if n < 1:
        raise ValueError("the main term is defined for semilength n >= 1")
    amplitude = -polynomial_value(q_coefficients, Fraction(1, 4))
    return float(amplitude) * 4.0 ** (n + 1) * n**1.5 / gamma(2.5)


def shape_cells(lower, upper):
    """Cells of the region between two profiles, as (abscissa, level) pairs."""
    pl, pu = profile(lower), profile(upper)
    cells = []
    for x in range(1, len(lower)):
        for level in range(pl[x] + 1, pu[x], 2):
            cells.append((x, level))
    return cells


def tableau_count_by_linear_extensions(lower, upper):
    """Fillings of the shape, counted as linear extensions of its cell poset.

    A cell can only be added once the two cells diagonally below it (when
    they belong to the region) are already present.
    """
    cells = frozenset(shape_cells(lower, upper))
    predecessors = {
        c: {p for p in ((c[0] - 1, c[1] - 1), (c[0] + 1, c[1] - 1)) if p in cells}
        for c in cells
    }

    @lru_cache(maxsize=None)
    def extensions(done):
        if done == cells:
            return 1
        total = 0
        for c in cells - done:
            if predecessors[c] <= done:
                total += extensions(done | {c})
        return total

    result = extensions(frozenset())
    extensions.cache_clear()
    return result


def path_system_by_substitution(order, variables):
    """F, G, H of the duu-marked path system, by plain fixed-point substitution.

    S = 1 + (G + H*q)*y, F = 1 + x*F*S, G = x*S, H = x^2*F*S^2, where y is 1
    unless "y" is one of the variables.  A series is a list of order + 1
    coefficients; a coefficient is a dict {exponent tuple: int} without zero
    values.  Each of the order + 1 rounds recomputes every coefficient at full
    order from the previous round, and each round settles one more of them.
    """
    width = len(variables)
    unit = (0,) * width
    q = tuple(int(v == "q") for v in variables)
    y = tuple(int(v == "y") for v in variables)

    def poly_add(a, b):
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    def poly_mul(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    def mul(a, b):
        out = []
        for n in range(order + 1):
            acc = {}
            for i in range(n + 1):
                acc = poly_add(acc, poly_mul(a[i], b[n - i]))
            out.append(acc)
        return out

    def shift(a, k):
        return ([{}] * k + a)[: order + 1]

    def plus_one(a):
        return [poly_add(a[0], {unit: 1})] + a[1:]

    F = G = H = [{}] * (order + 1)
    for _ in range(order + 1):
        S = plus_one(
            [poly_mul(poly_add(g, poly_mul(h, {q: 1})), {y: 1}) for g, h in zip(G, H)]
        )
        F, G, H = plus_one(shift(mul(F, S), 1)), shift(S, 1), shift(mul(F, mul(S, S)), 2)
    return F, G, H


def terms_mul(a, b):
    """Schoolbook product of two polynomials given as {exponent tuple: rational} dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def terms_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def series_mul_terms(a, b, order):
    """Coefficients 0..order of the product of two lists of terms dicts (missing ones are 0)."""
    out = []
    for n in range(order + 1):
        acc = {}
        for i in range(n + 1):
            if i < len(a) and n - i < len(b):
                acc = terms_add(acc, terms_mul(a[i], b[n - i]))
        out.append(acc)
    return out


def series_div_terms(a, b, order):
    """Coefficients 0..order of a / b, where b[0] is a nonzero constant, by the recurrence."""
    (lead,) = b[0].values()
    out = []
    for n in range(order + 1):
        acc = dict(a[n])
        for k in range(1, n + 1):
            acc = terms_add(acc, terms_mul(b[k], out[n - k]), -1)
        out.append({e: Fraction(c) / lead for e, c in acc.items()})
    return out


def radical_over_2qx(linear, radicand, order):
    """Coefficients 0..order of (L - sqrt(R)) / (2*q*x), as {exponent tuple: rational} dicts.

    linear and radicand map q, a Poly, to the x-coefficients of L and R.  The
    square root and the division by x are the package's; the division by 2q
    is done here term by term, and raises if a term lacks q.
    """
    from dycklat.series import Poly, TruncatedSeries

    q = Poly.variable("q", ("q",))
    L, R = (TruncatedSeries.polynomial(f(q), order + 1, ("q",)) for f in (linear, radicand))
    out = []
    for c in (L - R.sqrt()).shift_div_x().coeffs:
        if any(exps[0] < 1 for exps in c.terms):
            raise ArithmeticError(f"{c} is not divisible by q")
        out.append({(exps[0] - 1,): Fraction(coeff, 2) for exps, coeff in c.terms.items()})
    return out


# (L, R) of the q-marked series written as (L - sqrt(R)) / (2qx): paths by
# valleys, and paths by duu factors.
Q_RADICALS = {
    "du": (lambda q: [1, q - 1], lambda q: [1, -2 - 2 * q, (1 - q) ** 2]),
    "duu": (lambda q: [1, 2 * q - 2], lambda q: [1, -4, 4 - 4 * q]),
}
