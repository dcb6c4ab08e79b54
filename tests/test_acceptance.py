"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen.  Criteria with a stated time budget assert it after passing.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from conftest import (
    Q_RADICALS,
    boolean_chain_count,
    chain3_main_term,
    count_occurrences,
    dyck_words,
    radical_over_2qx,
)
from dycklat import genseries as gs
from dycklat import indices as ix
from dycklat.formula import total_chains_via_shapes
from dycklat.lattice import count_saturated_chains, valley_abscissae_sum
from dycklat.shapes import enumerate_shapes

SC2_EXPECTED = "0,0,0,4,30,168,840,3960,18018,80080"
SC3_EXPECTED = "0,0,0,2,38,322,2112,12210,65494,334334"
SRC = str(Path(__file__).resolve().parent.parent / "src")


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:02d} {label}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def run_cli(*argv):
    # The child imports dycklat from this checkout whether or not PYTHONPATH names it.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dycklat", *argv],
        capture_output=True,
        text=True,
        check=False,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_criterion_01_sequence_reproduction():
    with criterion(1, "sequence reproduction", budget=1.0):
        sc2 = run_cli("seq", "sc2", "--n-max", "9")
        sc3 = run_cli("seq", "sc3", "--n-max", "9")
        assert sc2.returncode == 0 and sc2.stdout == SC2_EXPECTED + "\n"
        assert sc3.returncode == 0 and sc3.stdout == SC3_EXPECTED + "\n"


def test_criterion_02_four_route_agreement_h2():
    with criterion(2, "four-route agreement, length 2", budget=60.0):
        series = gs.integer_coefficients(gs.sc2_series(20))
        for n in range(9):
            brute = count_saturated_chains(n, 2)
            assert total_chains_via_shapes(n, 2) == brute
            assert series[n] == brute
            assert ix.sc2_closed(n) == brute
        for n in range(21):
            assert series[n] == ix.sc2_closed(n)


def test_criterion_03_four_route_agreement_h3():
    with criterion(3, "four-route agreement, length 3", budget=120.0):
        series = gs.integer_coefficients(gs.sc3_series(20))
        for n in range(9):
            brute = count_saturated_chains(n, 3)
            assert total_chains_via_shapes(n, 3) == brute
            assert series[n] == brute
            assert ix.sc3_closed(n) == brute
        for n in range(21):
            assert series[n] == ix.sc3_closed(n)


def test_criterion_04_oracle_equivalence_beyond_published():
    with criterion(4, "formula = brute force for lengths 4 and 5", budget=120.0):
        for n in range(8):
            assert total_chains_via_shapes(n, 4) == count_saturated_chains(n, 4)
        for n in range(7):
            assert total_chains_via_shapes(n, 5) == count_saturated_chains(n, 5)


def test_criterion_05_series_identity_suite():
    with criterion(5, "series identities at order 20"):
        order = 20
        # (i) fixed point of the path system equals the root of its eliminated
        # quadratic, and that root and V equal their radical expressions
        F, _, _ = gs.duu_marked_system(order)
        assert F == gs.duu_marked_closed_form(order)
        for series, factor in ((F, "duu"), (gs.valley_marked_series(order), "du")):
            expected = radical_over_2qx(*Q_RADICALS[factor], order)
            assert [c.terms for c in series.coeffs] == expected
        # (ii) third valley moment equals its displayed closed form
        V = gs.valley_marked_series(order)
        direct = V.derivative("q").derivative("q").derivative("q").subs(q=1)
        s = gs._sqrt_1m4x(order + 1)
        displayed = (
            3
            * (
                gs._poly_x([1, -11, 40, -50, 10], order + 1)
                - gs._poly_x([1, -9, 24, -16], order + 1) * s
            ).shift_div_x()
            / (gs._poly_x([1, -8, 16], order + 1) * s)
        )
        assert direct == displayed
        # (iii) the five-term assembly equals the closed radical form
        assert gs.sc3_series_from_derivatives(order) == gs.sc3_series_closed_form(order)
        # (iv) the numerator polynomial and its factorization
        assert gs.CHAINS3_P_COEFFS == (1, -13, 59, -100, 16, 64)
        product = [0] * 6
        for i, a in enumerate([1, -12, 48, -64]):  # (1-4x)^3
            for j, b in enumerate([1, -1, -1]):  # 1 - x - x^2
                product[i + j] += a * b
        assert tuple(product) == gs.CHAINS3_P_COEFFS


def test_criterion_06_statistic_grounding():
    with criterion(6, "marked series ground to factor counts"):
        named = {
            "du": gs.valley_marked_series(7),
            "duu": gs.duu_marked_system(7)[0],
            "dduu": gs.dduu_marked_series(7),
            "dudu": gs.dudu_marked_series(7),
            "duuu": gs.duuu_marked_series(7),
        }
        for factor, series in named.items():
            totals = series.derivative("q").subs(q=1)
            for n in range(8):
                brute = sum(count_occurrences(w, factor) for w in dyck_words(n))
                assert totals.coeff(n) == brute, (factor, n)


def test_criterion_07_valley_abscissae_relation():
    with criterion(7, "half chain count equals valley abscissae sum"):
        for n in range(2, 10):
            sc2 = count_saturated_chains(n, 2)
            assert sc2 % 2 == 0
            assert sc2 // 2 == valley_abscissae_sum(n - 1)


def test_criterion_08_boolean_lattice():
    with criterion(8, "Boolean lattice counts and indices", budget=10.0):
        for n in range(7):
            for h in range(5):
                count = boolean_chain_count(n, h)
                assert count == (math.perm(n, h) * 2 ** (n - h) if h <= n else 0)
                if h <= n:
                    assert ix.hasse_index(count, 2**n) == Fraction(math.perm(n, h), 2**h)


def test_criterion_09_hasse_index_values():
    with criterion(9, "exact Hasse index values"):
        assert ix.hasse_index(ix.sc2_closed(3), ix.catalan(3)) == Fraction(4, 5)
        assert ix.hasse_index(ix.sc3_closed(3), ix.catalan(3)) == Fraction(2, 5)
        # the quotient form holds from n=1 on; at n=0 it gives -1 while the
        # true index is 0, so the check starts at 1
        for n in range(1, 13):
            assert ix.hasse_index(ix.sc2_closed(n), ix.catalan(n)) == Fraction(
                (n - 1) * (n - 2) * (n + 1), 2 * (2 * n - 1)
            )


def test_criterion_10_asymptotics():
    with criterion(10, "asymptotic ratio and Darboux estimate", budget=5.0):
        index = ix.hasse_index(ix.sc2_closed(2000), ix.catalan(2000))
        assert abs(index / Fraction(2000**2, 2**2) - 1) < Fraction(2, 1000)
        errors = [
            abs(chain3_main_term(gs.CHAINS3_Q_COEFFS, n) / ix.sc3_closed(n) - 1)
            for n in (20, 30, 40, 50)
        ]
        assert errors[-1] < 0.10
        assert all(a > b for a, b in zip(errors, errors[1:]))


def test_criterion_11_shape_layer():
    with criterion(11, "shape counts and tableau numbers"):
        for area, expect in ((1, [1]), (2, [1, 1]), (3, [1, 1, 2, 2])):
            shapes = enumerate_shapes(area)
            assert len(shapes) == len(expect)
            assert sorted(s.tableau_count() for s in shapes) == expect
        listing = run_cli("shapes", "--area", "3")
        assert listing.returncode == 0
        counts = sorted(line.rsplit("t=", 1)[1] for line in listing.stdout.splitlines())
        assert counts == ["1", "1", "2", "2"]
