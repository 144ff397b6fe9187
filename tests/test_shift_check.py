"""The coboundary and suspension entry points refuse a function from another shift.

A function on the golden mean shift read on the full 2-shift (or the
other way round) would be looked up on words it has no value for, or
answered on loops its own shift forbids; each entry point refuses it
with a ``ValueError`` before building a block graph.  Likewise a
function evaluated at, or a full-group element applied to, a point of
another shift refuses the point.
"""

import pytest

from sftcocycles import (
    FullGroupElement,
    LocFun,
    PointSpec,
    TransitionMatrix,
    classify_potential,
    cycle_sums,
    enumerate_words,
    reduce_to_first_coordinate,
    shortest_nonzero_cycle,
    solve_potential,
)

ENTRY_POINTS = [
    cycle_sums,
    shortest_nonzero_cycle,
    solve_potential,
    classify_potential,
    reduce_to_first_coordinate,
]


def positive_function(A, depth):
    # Positive, so that the suspension's ceiling check is not what refuses it.
    return LocFun(A, depth, {w: 1 + i % 3 for i, w in enumerate(enumerate_words(A, depth))})


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("depth", [1, 2])
def test_function_from_another_shift_is_refused(entry, depth, golden, full2):
    for home, other in ((golden, full2), (full2, golden)):
        f = positive_function(home, depth)
        with pytest.raises(ValueError, match="must live on the shift A"):
            entry(other, f)


def test_equal_matrix_is_the_same_shift(golden):
    copy = TransitionMatrix(golden.tolist())
    assert copy is not golden
    f = positive_function(golden, 2)
    for entry in (cycle_sums, shortest_nonzero_cycle, classify_potential, reduce_to_first_coordinate):
        entry(copy, f)  # an equal matrix is the same shift and answers
    g = f.shifted() - f
    b = solve_potential(copy, g)
    assert b.shifted() - b == g


def test_loops_the_home_shift_forbids_are_not_reported(golden, full2):
    g = LocFun(golden, 1, {(1,): 0, (2,): 1})
    for entry in (solve_potential, cycle_sums, classify_potential, shortest_nonzero_cycle):
        with pytest.raises(ValueError, match="f must live on the shift A"):
            entry(full2, g)
    h = LocFun(full2, 1, {(1,): 1, (2,): -1})
    with pytest.raises(ValueError, match="f must live on the shift A"):
        shortest_nonzero_cycle(golden, h)
    deep = LocFun(golden, 2, {(1, 1): 1, (1, 2): 2, (2, 1): 3})
    with pytest.raises(ValueError, match="f must live on the shift A"):
        shortest_nonzero_cycle(full2, deep)
    with pytest.raises(ValueError, match="f must live on the shift A"):
        reduce_to_first_coordinate(full2, deep)


def test_point_from_another_shift_is_refused(golden, full2):
    forbidden = PointSpec(full2, (2, 2), (2,))  # 2 2 is not a golden mean word
    with pytest.raises(ValueError, match="^z must be a point of the shift A$"):
        LocFun(golden, 1, {(1,): 5, (2,): 7}).eval_point(forbidden)
    identity = FullGroupElement(golden, [((1,), (1,)), ((2,), (2,))])
    with pytest.raises(ValueError, match="^z must be a point of the shift A$"):
        identity.apply_point(PointSpec(full2, (), (2,)))
    # A point of an equal matrix is a point of the same shift.
    same = PointSpec(TransitionMatrix(golden.tolist()), (2,), (1,))
    assert LocFun(golden, 1, {(1,): 5, (2,): 7}).eval_point(same) == 7
    assert identity.apply_point(same) == same
