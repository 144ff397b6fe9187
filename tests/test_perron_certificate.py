"""The Perron value's certificate, its rounding contract and its cost.

``perron_value`` runs Noda iteration on the weighted graph in floats,
recomputes the Collatz-Wielandt bracket of its final vector exactly, and
returns a float inside it (or, when the bracket holds no float, one of
the two floats enclosing it), on rho's side of every half-way point of
``round(., d)`` for d <= 12.  NumPy's dense ``eigvals``, which the value
came from before, is kept here as the oracle, and SymPy's root isolation
gives rho to any precision for the rounding checks.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from sftcocycles import TransitionMatrix, higher_block, is_irreducible, ktheory, perron_value, suspended_matrix
from test_matrix_gate import flag_corpus

# lambda^5 - lambda^3 - 1: eigvals gives 1.2365057033915001, whose 12-decimal
# rounding ...392 is wrong; rho = 1.23650570339149902...
QUINTIC = [[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 1, 0, 1, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]


def irreducible_corpus(max_n=40):
    for arr in flag_corpus():
        rows = arr.tolist()
        if len(rows) <= max_n and is_irreducible(rows):
            yield rows


def in_hull(value, lo, hi):
    """value lies in [lo, hi], or no float lies between value and [lo, hi]."""
    return (lo <= value or math.nextafter(value, math.inf) > lo) and (
        value <= hi or math.nextafter(value, -math.inf) < hi
    )


def final_bracket(M):
    succ = ktheory._perron_graph(M)
    return ktheory._bracket(succ, ktheory._noda(succ))


def rho_interval(rows, eps):
    intervals = sympy.Matrix(rows).charpoly().intervals(eps=eps)
    lo, hi = max((interval for interval, _ in intervals), key=lambda iv: iv[1])
    return Fraction(int(lo.p), int(lo.q)), Fraction(int(hi.p), int(hi.q))


def correct_roundings(rows):
    """rho rounded half-even to d decimals, as floats, for d = 0..12."""
    for eps in (Fraction(1, 10**20), Fraction(1, 10**40)):
        lo, hi = rho_interval(rows, sympy.Rational(eps.numerator, eps.denominator))
        out = [(round(lo * 10**d), round(hi * 10**d)) for d in range(13)]
        if all(a == b for a, b in out):
            return [a / 10**d for d, (a, _) in enumerate(out)]
    raise AssertionError("rho sits too close to a half-way point: %r" % (rows,))


def test_eigvals_agrees_on_every_irreducible_corpus_matrix():
    checked = 0
    for rows in irreducible_corpus():
        oracle = float(np.abs(np.linalg.eigvals(np.array(rows, dtype=float))).max())
        assert perron_value(rows) == pytest.approx(oracle, rel=1e-14, abs=1e-300), rows
        checked += 1
    assert checked > 1400


def test_every_value_lies_in_the_exact_bracket_of_its_final_vector():
    for rows in irreducible_corpus():
        lo, hi = final_bracket(rows)
        assert lo <= hi
        assert in_hull(perron_value(rows), lo, hi), rows


def test_rounding_to_twelve_decimals_and_fewer_is_correct():
    checked = 0
    for rows in irreducible_corpus(max_n=8):
        value = perron_value(rows)
        assert [round(value, d) for d in range(13)] == correct_roundings(rows), rows
        checked += 1
    assert checked > 400


def test_quintic_is_rounded_from_the_exact_side():
    value = perron_value(QUINTIC)
    assert round(value, 12) == 1.236505703391
    assert [round(value, d) for d in range(13)] == correct_roundings(QUINTIC)
    # rho lies 1e-16 below the half-way point r: given a bracket around r,
    # an exact solve puts the value below it.
    succ = ktheory._perron_graph(QUINTIC)
    r = Fraction(12365057033915, 10**13)
    value = ktheory._rounded(succ, r - Fraction(1, 10**13), r + Fraction(1, 10**13))
    assert r - Fraction(1, 10**13) <= value < r
    assert round(value, 12) == 1.236505703391


def test_brackets_across_a_half_way_point_are_decided_exactly():
    # Final brackets that contain a multiple of 1/(2 * 10^12): integer
    # Perron values, and one 28-state ring with a chord whose rho lies
    # next to the 12-decimal half-way point 1.0319693240435.
    half = Fraction(1, 2 * 10**12)
    straddling = []
    for rows in irreducible_corpus():
        lo, hi = final_bracket(rows)
        if math.floor(lo / half) < math.floor(hi / half):
            straddling.append(rows)
            value = perron_value(rows)
            assert [round(value, d) for d in range(13)] == correct_roundings(rows), rows
    assert len(straddling) >= 10
    assert any(abs(perron_value(rows) - 1.0319693240435) < 1e-14 for rows in straddling)


def test_exact_solve_decides_the_side_of_rho():
    # (rI - A) y = 1 has a positive solution iff rho < r.
    for rows, rho in ([[1, 1], [1, 0]], (1 + 5**0.5) / 2), ([[0, 2], [1, 0]], 2**0.5), (QUINTIC, 1.2365057033915):
        succ = ktheory._perron_graph(rows)
        pivots = ktheory._pivots(succ)
        for r in (Fraction(rho) - Fraction(1, 10**9), Fraction(rho) + Fraction(1, 10**9)):
            y = ktheory._solve(succ, pivots, r, [1] * len(rows))
            assert (y is not None and min(y) > 0) == (rho < r)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("c", [1, 2, 3, 5, 8])
def test_towers_bracket_the_root_of_the_alphabet_size(k, c):
    # Every cycle of the tower over the full k-shift with ceiling c is c
    # times longer, so rho = k^(1/c).
    A = suspended_matrix(TransitionMatrix([[1] * k] * k), [c] * k).matrix
    value = perron_value(A)
    lo, hi = final_bracket(A)
    assert lo**c <= k <= hi**c
    assert in_hull(value, lo, hi)
    assert value == pytest.approx(k ** (1 / c), rel=4e-16)


def test_large_full3_tower_answers_within_a_second():
    # 3,000 states; the dense eigen-solve took 13 s.
    A = suspended_matrix(TransitionMatrix([[1, 1, 1]] * 3), [1000, 1000, 1000]).matrix
    start = time.perf_counter()
    value = perron_value(A)
    assert time.perf_counter() - start < 1.0
    lo, hi = final_bracket(A)
    assert lo**1000 <= 3 <= hi**1000
    assert in_hull(value, lo, hi)


def test_higher_block_recodings_amalgamate_to_their_base():
    # A K-word's row depends only on its last K - 1 symbols, so equal rows
    # amalgamate level by level back to the base graph, which keeps rho.
    A = TransitionMatrix([[1, 1, 1], [1, 1, 0], [0, 1, 1]])
    base = perron_value(A)
    for K in (2, 5, 10):
        B, _ = higher_block(A, K)
        assert len(ktheory._perron_graph(B)) <= A.n
        start = time.perf_counter()
        assert perron_value(B) == pytest.approx(base, rel=4e-16)
        assert time.perf_counter() - start < 1.0  # 5,842 states at K = 10


@pytest.mark.parametrize(
    "rows, expected",
    [([[0, 2], [1, 0]], math.sqrt(2)), ([[0]], 0.0), ([[5]], 5.0)],
    ids=["sqrt2", "zero", "five"],
)
def test_small_values(rows, expected):
    value = perron_value(rows)
    assert abs(value - expected) <= math.ulp(expected)
    if expected in (0.0, 5.0):
        assert value == expected


def test_a_value_outside_the_bracket_is_refused(monkeypatch):
    # The self-check: a float moved off the bracket by 1e-9 raises.
    rounded = ktheory._rounded
    monkeypatch.setattr(ktheory, "_rounded", lambda *args: rounded(*args) * (1 + 1e-9))
    with pytest.raises(RuntimeError, match="self-check"):
        perron_value([[1, 1], [1, 0]])


@pytest.mark.parametrize(
    "rows, rho",
    [
        ([[0, 0, 1], [1, 1, 1], [1, 1, 0]], 2),
        ([[0, 0, 1, 0], [1, 1, 0, 1], [1, 1, 1, 1], [1, 1, 1, 1]], 3),
        ([[1, 0, 1, 1], [1, 1, 1, 1], [1, 0, 1, 0], [1, 1, 1, 1]], 3),
    ],
    ids=["rho2", "rho3-a", "rho3-b"],
)
def test_an_integer_perron_value_is_exact(rows, rho):
    # The final bracket holds the integer, so the exact bisection solves
    # (rho I - A) y = 1: every pivot is positive but the last, which is 0.
    assert perron_value(rows) == float(rho)
    succ = ktheory._perron_graph(rows)
    pivots = ktheory._pivots(succ)
    ones = [1] * len(succ)
    assert ktheory._solve(succ, pivots, Fraction(rho), ones) == 0
    assert ktheory._solve(succ, pivots, Fraction(rho) - Fraction(1, 10**12), ones) is None
    assert min(ktheory._solve(succ, pivots, Fraction(rho) + Fraction(1, 10**12), ones)) > 0
    # A bracket whose lower end is rho itself, or that is rho alone.
    tiny = Fraction(1, 10**13)
    assert ktheory._rounded(succ, Fraction(rho), rho + tiny) == float(rho)
    assert ktheory._rounded(succ, rho - tiny, Fraction(rho)) == float(rho)
    assert ktheory._rounded(succ, Fraction(rho), Fraction(rho)) == float(rho)


def test_every_integer_perron_value_of_the_corpus_is_exact():
    lam = sympy.Symbol("lam")
    integers = 0
    for rows in irreducible_corpus(max_n=8):
        value = perron_value(rows)
        k = round(value)
        if sympy.Matrix(rows).charpoly(lam).as_expr().subs(lam, k) == 0 and abs(value - k) < 1e-9:
            assert value == float(k), rows
            integers += 1
    assert integers >= 9
