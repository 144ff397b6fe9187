"""The shortest nonzero cycle against the capped simple-cycle report.

`shortest_nonzero_cycle` decides coboundaries without listing cycles;
`cycle_sums` lists every simple cycle, sorted by length and then
lexicographically.  On small block graphs the first must be the first
nonzero entry of the second, and None exactly when every sum is 0.
"""

import random

import pytest

from sftcocycles import (
    LocFun,
    NotCoboundaryError,
    TransitionMatrix,
    cycle_sums,
    enumerate_words,
    shortest_nonzero_cycle,
    solve_potential,
)

BASES = {
    "golden": [[1, 1], [1, 0]],
    "full2": [[1, 1], [1, 1]],
    "zd3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
}


def assert_matches_report(A, g):
    sums = cycle_sums(A, g)
    first = next(((cyc, total) for cyc, total in sums if total != 0), None)
    found = shortest_nonzero_cycle(A, g)
    assert found == first
    if found is not None:
        with pytest.raises(NotCoboundaryError) as info:
            solve_potential(A, g)
        assert info.value.witness == found[0]
    return found


@pytest.mark.parametrize("name", sorted(BASES))
def test_random_potentials(name):
    A = TransitionMatrix(BASES[name])
    rng = random.Random(name)
    found = 0
    for depth in range(1, 5):
        for lo, hi in [(-2, 2), (-1, 1), (0, 1), (0, 0)] * 3:
            table = {w: rng.randint(lo, hi) for w in enumerate_words(A, depth)}
            found += assert_matches_report(A, LocFun(A, depth, table)) is not None
    assert found > 0


@pytest.mark.parametrize("name", sorted(BASES))
def test_coboundary_plus_one_word(name):
    # Only cycles through the perturbed word are obstructed, so the
    # witness is often longer than the shortest cycle of the graph.
    A = TransitionMatrix(BASES[name])
    rng = random.Random("perturbed " + name)
    lengths = set()
    for depth in range(2, 5):
        words = enumerate_words(A, depth)
        for _ in range(8):
            b = LocFun(A, depth - 1, {w: rng.randint(-3, 3) for w in enumerate_words(A, depth - 1)})
            g = b.shifted() - b
            assert assert_matches_report(A, g) is None
            table = {w: g.value_on(w) for w in words}
            table[rng.choice(words)] += rng.choice([-2, -1, 1, 3])
            cyc, total = assert_matches_report(A, LocFun(A, depth, table))
            lengths.add(len(cyc))
    assert max(lengths) >= 3


def test_reducible_identity():
    ident = TransitionMatrix([[1, 0], [0, 1]])
    for values in [(0, 0), (3, 0), (0, -2), (1, 1)]:
        g = LocFun(ident, 1, {(1,): values[0], (2,): values[1]})
        assert_matches_report(ident, g)
    assert shortest_nonzero_cycle(ident, LocFun(ident, 1, {(1,): 0, (2,): 5})) == (((2,),), 5)


def test_zero_cycle_sums_without_potential():
    # Symbols 1 and 2 form a cycle and both lead into the loop at 3.  The
    # cycle sums vanish, but the two edges into 3 ask for different
    # potential values there, so the solver refuses without a witness.
    A = TransitionMatrix([[0, 1, 1], [1, 0, 1], [0, 0, 1]])
    g = LocFun(A, 1, {(1,): 1, (2,): -1, (3,): 0})
    assert all(total == 0 for _, total in cycle_sums(A, g))
    assert shortest_nonzero_cycle(A, g) is None
    with pytest.raises(NotCoboundaryError, match="no locally constant potential") as info:
        solve_potential(A, g)
    assert info.value.witness is None


@pytest.mark.parametrize("n", [3, 7, 12])
def test_witness_as_long_as_the_graph(n):
    # A ring 1 -> 2 -> ... -> n -> 1 with a loop at 1: the loop sums to
    # 0 and the ring to 1, so the witness has length n, the vertex count.
    A = TransitionMatrix(
        [[int(j == i + 1 or (i, j) in ((0, 0), (n - 1, 0))) for j in range(n)] for i in range(n)]
    )
    values = {1: 0, 2: 7, 3: -6}
    g = LocFun(A, 1, {(i,): values.get(i, 0) for i in range(1, n + 1)})
    cyc, total = assert_matches_report(A, g)
    assert cyc == tuple((i,) for i in range(1, n + 1)) and total == 1


def test_huge_values_stay_exact(full2):
    # Sums beyond int64 take the Python-integer path.
    big = 10**30
    g = LocFun(full2, 2, {(1, 1): 0, (1, 2): big, (2, 1): -big + 1, (2, 2): 0})
    assert shortest_nonzero_cycle(full2, g) == (((1, 2), (2, 1)), 1)
    assert_matches_report(full2, g)
