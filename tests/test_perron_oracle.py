"""The Perron value against exact root isolation.

For an irreducible nonnegative matrix the Perron value is the largest
real root of its characteristic polynomial det(tI - A).  SymPy isolates
that root in a rational interval of width at most 1e-12, and
``perron_value`` must lie inside it, compared exactly as a fraction,
give or take a relative 1e-14 for the rounding of the float eigenvalue
solver (an integer root such as 2 gets the interval [2, 2]).
"""

from fractions import Fraction

import pytest
import sympy

from sftcocycles import is_irreducible, perron_value
from test_matrix_gate import flag_corpus


ROUNDING = Fraction(1, 10**14)


def in_perron_bracket(rows, value):
    """Whether value brackets the largest real root of det(tI - A)."""
    intervals = sympy.Matrix(rows).charpoly().intervals(eps=1e-12)
    lo, hi = max((interval for interval, _ in intervals), key=lambda iv: iv[1])
    lo, hi = Fraction(int(lo.p), int(lo.q)), Fraction(int(hi.p), int(hi.q))
    return lo * (1 - ROUNDING) <= Fraction(value) <= hi * (1 + ROUNDING)


def test_perron_value_lies_in_the_exact_bracket():
    checked = 0
    for arr in flag_corpus():
        rows = arr.tolist()
        if len(rows) > 12 or not is_irreducible(rows):
            continue
        assert in_perron_bracket(rows, perron_value(rows)), rows
        checked += 1
    assert checked == 709


# Power iteration that stops when two successive maxima of the iterate
# agree gets each of these wrong beyond 1e-12.
REGRESSIONS = [
    ("path-with-loop", [[0, 1, 0], [1, 0, 1], [0, 1, 1]], 1.801937735805),
    ("ring-with-chord", [[0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], 1.272019649514),
    ("periodic", [[0, 2], [1, 0]], 2**0.5),
]


@pytest.mark.parametrize("rows, expected", [r[1:] for r in REGRESSIONS], ids=[r[0] for r in REGRESSIONS])
def test_named_regressions(rows, expected):
    assert perron_value(rows) == pytest.approx(expected, rel=0, abs=1e-12)
    assert in_perron_bracket(rows, perron_value(rows))


def test_zero_matrix_has_perron_value_zero():
    # One symbol without a loop: strongly connected, and its only
    # eigenvalue is 0.
    assert perron_value([[0]]) == 0.0


def test_non_finite_value_is_refused():
    # Every entry converts to a float, but the eigenvalue overflows.
    with pytest.raises(ValueError, match="too large"):
        perron_value([[10**308, 10**308], [10**308, 10**308]])
