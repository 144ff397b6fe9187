import random

import pytest

import sftcocycles.coboundary as coboundary
from sftcocycles import (
    LocFun,
    NotCoboundaryError,
    classify_potential,
    coboundary_transform,
    cycle_sums,
    enumerate_words,
    higher_block,
    make_chi_H,
    membership_split,
    shortest_nonzero_cycle,
    solve_potential,
)

from conftest import end_matched_bisections


def random_potential(A, rng, max_depth=3):
    depth = rng.randint(1, max_depth)
    return LocFun(A, depth, {w: rng.randint(-4, 4) for w in enumerate_words(A, depth)})


def test_cycle_sums_of_coboundaries_vanish(golden, full2):
    rng = random.Random(17)
    for A in (golden, full2):
        for _ in range(25):
            b = random_potential(A, rng)
            g = b.shifted() - b
            assert all(total == 0 for _, total in cycle_sums(A, g))


def test_cycle_sums_of_constant_one(golden, full2):
    for A in (golden, full2):
        one = LocFun.constant(A, 1)
        sums = cycle_sums(A, one)
        assert sums, "a valid matrix always has cycles"
        for cyc, total in sums:
            assert total == len(cyc)


def test_cycle_sums_golden_example(golden):
    g = LocFun(golden, 1, {(1,): 1, (2,): -1})
    assert cycle_sums(golden, g) == [(((1,),), 1), (((1,), (2,)), 0)]


def test_solve_zero(golden):
    zero = LocFun.constant(golden, 0)
    assert solve_potential(golden, zero) == zero


def test_solve_round_trip(golden, full2):
    rng = random.Random(23)
    for A in (golden, full2):
        for _ in range(50):
            b = random_potential(A, rng)
            recovered = solve_potential(A, b.shifted() - b)
            assert recovered == b.base_normalized()


def test_solve_constant_one_fails_with_self_loop(golden, full2):
    for A in (golden, full2):
        with pytest.raises(NotCoboundaryError) as info:
            solve_potential(A, LocFun.constant(A, 1))
        assert info.value.witness == (((1,),))


def test_classify_constant_one_reports_all_shapes(golden):
    cls = classify_potential(golden, LocFun.constant(golden, 1))
    assert cls.kinds == ("constant", "chi_H", "coboundary_1b")
    assert cls.constant == 1
    assert cls.chi_H == frozenset({1, 2})
    assert cls.coboundary_b == LocFun.constant(golden, 0)
    assert cls.note is not None


def test_classify_chi_not_coboundary(golden):
    # the self-loop gives f-1 sum 0 but the 2-cycle gives -1
    cls = classify_potential(golden, make_chi_H(golden, {1}))
    assert cls.kind == "chi_H" and cls.kinds == ("chi_H",)
    sums = dict(cycle_sums(golden, make_chi_H(golden, {1}) - 1))
    assert sums[((1,),)] == 0
    assert sums[((1,), (2,))] == -1


def test_classify_unit_coboundary(full2):
    b = LocFun.indicator_cylinder(full2, (1,))
    cls = classify_potential(full2, coboundary_transform(b))
    assert cls.kind == "coboundary_1b"
    assert cls.coboundary_b == b.base_normalized()


def test_classify_reports_a_degenerate_overlap_on_a_reducible_matrix():
    # Symbol 1 lies on no cycle, so chi_{2,3} - 1 = -chi_{1} sums to 0 on
    # every cycle: the indicator is also a unit coboundary.
    from sftcocycles import TransitionMatrix

    A = TransitionMatrix([[0, 1, 0], [0, 1, 0], [1, 0, 1]])
    f = make_chi_H(A, {2, 3})
    cls = classify_potential(A, f)
    assert cls.kind == "chi_H" and cls.kinds == ("chi_H", "coboundary_1b")
    assert cls.constant is None and cls.chi_H == frozenset({2, 3})
    assert coboundary_transform(cls.coboundary_b) == f
    assert cls.note == "degenerate overlap of potential shapes: chi_H, coboundary_1b"


def test_classify_general_and_constant(golden):
    cls = classify_potential(golden, LocFun.constant(golden, 3))
    assert cls.kind == "constant" and cls.kinds == ("constant",)
    general = LocFun(golden, 1, {(1,): 2, (2,): -1})
    assert classify_potential(golden, general).kind == "general"


def test_unit_coboundary_membership_law(golden, full2):
    # a piece is inside the coboundary groupoid iff the potential drop
    # across the piece equals the lag
    potentials = {
        golden: LocFun(golden, 2, {(1, 1): 2, (1, 2): 0, (2, 1): -1}),
        full2: LocFun(full2, 2, {(1, 1): 1, (1, 2): -1, (2, 1): 0, (2, 2): 2}),
    }
    for A, b in potentials.items():
        f = coboundary_transform(b)
        for z in end_matched_bisections(A, 4):
            split = membership_split(A, f, z)
            for piece, inside in [(p, True) for p in split.inside] + [
                (p, False) for p in split.outside
            ]:
                drop = b.value_on(piece.mu) - b.value_on(piece.nu)
                assert (drop == piece.lag) == inside


def test_cycle_cap(golden):
    with pytest.raises(ValueError, match="cycle"):
        cycle_sums(golden, LocFun.constant(golden, 1), cycle_cap=1)


def test_solve_on_disconnected_block_graph():
    # reducible matrices are representable; the solver works per component
    from sftcocycles import TransitionMatrix

    ident = TransitionMatrix([[1, 0], [0, 1]])
    b = LocFun(ident, 1, {(1,): 3, (2,): -2})
    assert solve_potential(ident, b.shifted() - b) == LocFun.constant(ident, 0)
    skew = LocFun(ident, 1, {(1,): 1, (2,): 0})
    with pytest.raises(NotCoboundaryError) as info:
        solve_potential(ident, skew)
    assert info.value.witness == ((1,),)


@pytest.mark.parametrize("depth", [6, 7])
def test_classify_deep_general_potential(full2, depth):
    # The block graphs have 64 and 128 vertices and far more than a
    # million simple cycles; the refusal must not enumerate them.
    rng = random.Random(depth)
    f = LocFun(full2, depth, {w: rng.randint(-2, 2) for w in enumerate_words(full2, depth)})
    cls = classify_potential(full2, f)
    assert cls.kind == "general" and cls.kinds == ()
    with pytest.raises(NotCoboundaryError) as info:
        solve_potential(full2, f - 1)
    cyc = info.value.witness
    assert all(a[1:] == b[:-1] for a, b in zip(cyc, cyc[1:] + cyc[:1]))
    assert cyc[0] == min(cyc)
    assert sum(f.table[w] - 1 for w in cyc) != 0
    assert shortest_nonzero_cycle(full2, f - 1)[0] == cyc


def test_depth_ten_single_obstruction(full2):
    # b(sigma .) - b plus the indicator of the word 1 2^9: every cycle
    # sum counts the visits to that word, so the only obstructions run
    # through it, and the shortest is its own period-10 orbit.
    rng = random.Random(10)
    b = LocFun(full2, 9, {w: rng.randint(-3, 3) for w in enumerate_words(full2, 9)})
    word = (1,) + (2,) * 9
    g = b.shifted() - b + LocFun.indicator_cylinder(full2, word)
    cycle, total = shortest_nonzero_cycle(full2, g)
    assert total == 1
    assert cycle == tuple(word[i:] + word[:i] for i in range(10))
    with pytest.raises(NotCoboundaryError) as info:
        solve_potential(full2, g)
    assert info.value.witness == cycle
    assert shortest_nonzero_cycle(full2, b.shifted() - b) is None


def test_refusal_builds_one_block_graph(golden, monkeypatch):
    # The witness search runs on the graph the solver already built.
    calls = []

    def counting(A, K):
        calls.append(K)
        return higher_block(A, K)

    monkeypatch.setattr(coboundary, "higher_block", counting)
    g = LocFun(golden, 2, {(1, 1): 1, (1, 2): 0, (2, 1): 0})
    with pytest.raises(NotCoboundaryError) as info:
        solve_potential(golden, g)
    assert info.value.witness == (((1, 1),)) and calls == [2]


def test_classifier_runs_no_witness_search(golden, full2, monkeypatch):
    def refuse(*args):
        raise AssertionError("the classifier searched a witness cycle")

    monkeypatch.setattr(coboundary, "_walks", refuse)
    rng = random.Random(41)
    for A in (golden, full2):
        for _ in range(10):
            # f - 1 >= 0 and not constant: some cycle has a positive sum.
            f = random_potential(A, rng) + 5
            if not f.is_constant():
                assert classify_potential(A, f).kind == "general"
    with pytest.raises(AssertionError, match="searched"):
        solve_potential(golden, LocFun(golden, 1, {(1,): 2, (2,): 5}))


def test_potential_self_check_raises(golden, monkeypatch):
    # A potential that fits every edge always recomposes to g; a broken
    # recomposition is a fault of the solver, not a verdict on g.
    g = coboundary_transform(LocFun(golden, 1, {(1,): 0, (2,): 3})) - 1
    assert classify_potential(golden, g + 1).coboundary_b is not None
    monkeypatch.setattr(coboundary, "coboundary_transform", lambda b: LocFun.constant(golden, 7))
    with pytest.raises(RuntimeError, match="potential self-check failed"):
        solve_potential(golden, g)
    with pytest.raises(RuntimeError, match="potential self-check failed"):
        classify_potential(golden, g + 1)
