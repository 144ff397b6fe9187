"""A one-point Perron bracket is answered without an exact solve.

When the Collatz-Wielandt bracket of the final vector is [lo, lo], rho
is lo, and ``ktheory._rounded`` returns ``float(lo)`` at once.  The
previous ``_rounded``, kept verbatim below as the oracle, reached the
same float through exact ``Fraction`` solves, which fill in on a graph
such as a ring with one random chord per state.
"""

import random
import time
from fractions import Fraction
from math import ceil, floor, inf, nextafter

import pytest

from sftcocycles import TransitionMatrix, ktheory, perron_value
from sftcocycles.ktheory import _HALF, _pivots, _solve
from test_perron_certificate import final_bracket, irreducible_corpus


def reference_rounded(succ, lo, hi):
    """A float for rho in [lo, hi], strictly on rho's side of every multiple of _HALF.

    The multiples in the bracket are decided exactly by bisection: rho < r
    iff (rI - A) y = 1 has a positive solution, rho = r iff it answers 0.
    """
    a, b = ceil(lo / _HALF) - 1, floor(hi / _HALF)
    pivots = _pivots(succ) if a < b else None
    while a < b:
        m = (a + b + 1) // 2
        y = _solve(succ, pivots, m * _HALF, [1] * len(succ))
        if y == 0:
            return float(m * _HALF)
        if y is not None and min(y) > 0:
            b = m - 1
        else:
            a = m
    lo, hi = max(lo, a * _HALF), min(hi, (a + 1) * _HALF)
    value = float((lo + hi) / 2)  # the nearest float: inside whenever one is
    if lo < hi:
        q = Fraction(value) / _HALF
        if q <= a:
            value = nextafter(value, inf)
        elif q >= a + 1:
            value = nextafter(value, -inf)
    return value


def two_out_ring(n, seed=7):
    """The ring i -> i + 1 plus one other random follower per state: every row sums to 2."""
    rng = random.Random(seed)
    followers = []
    for i in range(n):
        ring = (i + 1) % n
        other = rng.randrange(n - 1)
        other += other >= ring
        followers.append(tuple(sorted((ring + 1, other + 1))))
    return TransitionMatrix.from_followers(followers)


def test_the_corpus_is_rounded_as_before():
    points = 0
    for rows in irreducible_corpus():
        succ = ktheory._perron_graph(rows)
        lo, hi = final_bracket(rows)
        assert ktheory._rounded(succ, lo, hi) == reference_rounded(succ, lo, hi), rows
        points += lo == hi
    assert points > 100


@pytest.mark.parametrize("n", [3, 4, 5, 8, 13, 21, 34, 55, 89, 144, 200])
def test_the_two_out_ring_is_rounded_as_before(n):
    A = two_out_ring(n)
    succ = ktheory._perron_graph(A)
    lo, hi = final_bracket(A)
    assert lo == hi == 2
    assert ktheory._rounded(succ, lo, hi) == reference_rounded(succ, lo, hi) == 2.0


def test_a_one_point_bracket_runs_no_exact_solve(monkeypatch):
    A = two_out_ring(2_000)
    monkeypatch.setattr(ktheory, "_solve", lambda *args: pytest.fail("an exact solve ran"))
    start = time.perf_counter()
    assert perron_value(A) == 2.0
    assert time.perf_counter() - start < 0.5
