import re

import numpy as np
import pytest

from sftcocycles import (
    BlockCode,
    LocFun,
    PointSpec,
    TransitionMatrix,
    cocycle_sum,
    cycle_sums,
    dimension_report,
    enumerate_words,
    has_cycle_within,
    higher_block,
    is_saturated,
    make_chi_H,
    minimality_search,
    minimality_verdict,
    weight_word_census,
)

from conftest import words_up_to


def test_validate_flags_golden(golden):
    assert golden.flags() == {
        "irreducible": True,
        "primitive": True,
        "permutation": False,
    }


def test_validate_flags_identity_and_swap():
    identity = TransitionMatrix([[1, 0], [0, 1]])
    assert identity.flags() == {
        "irreducible": False,
        "primitive": False,
        "permutation": True,
    }
    swap = TransitionMatrix([[0, 1], [1, 0]])
    assert swap.flags() == {
        "irreducible": True,
        "primitive": False,
        "permutation": True,
    }


def test_validate_rejects_bad_input():
    with pytest.raises(ValueError):
        TransitionMatrix([[1, 1], [1, 0], [1, 0]])
    with pytest.raises(ValueError):
        TransitionMatrix([[1, 2], [1, 0]])
    with pytest.raises(ValueError, match="row 2"):
        TransitionMatrix([[1, 1], [0, 0]])
    with pytest.raises(ValueError, match="column 2"):
        TransitionMatrix([[1, 0], [1, 0]])
    with pytest.raises(ValueError):
        TransitionMatrix([[1]])


@pytest.mark.parametrize("bad", [None, 1.5, "1", True])
def test_entries_must_be_integers(bad):
    with pytest.raises(ValueError, match=r"entry \(2, 1\)"):
        TransitionMatrix([[1, 1], [bad, 0]])
    with pytest.raises(ValueError, match="integers"):
        TransitionMatrix(np.array([[1, 1], [1, 0]], dtype=float))
    # NumPy integers are genuine integers
    assert TransitionMatrix(np.array([[1, 1], [1, 0]], dtype=np.uint8)).tolist() == [[1, 1], [1, 0]]


def test_enumerate_words_examples(golden, full2):
    assert enumerate_words(golden, 2) == [(1, 1), (1, 2), (2, 1)]
    assert enumerate_words(golden, 1) == [(1,), (2,)]
    assert len(enumerate_words(full2, 3)) == 8
    assert enumerate_words(golden, 0) == [()]


def test_enumerate_words_sorted_admissible_and_counted(golden, full2, zero_diag3):
    for A in (golden, full2, zero_diag3):
        for m in range(1, 6):
            words = enumerate_words(A, m)
            assert words == sorted(words)
            assert all(A.is_admissible(w) for w in words)
            successors = sum(len(A.followers(w[-1])) for w in words)
            assert len(enumerate_words(A, m + 1)) == successors


def test_higher_block_identity_and_golden(golden):
    block, labels = higher_block(golden, 1)
    assert block is golden
    assert labels == ((1,), (2,))
    block, labels = higher_block(golden, 2)
    assert labels == ((1, 1), (1, 2), (2, 1))
    assert block.tolist() == [[1, 1, 0], [0, 0, 1], [1, 1, 0]]


def test_higher_block_full_shift(full2):
    block, labels = higher_block(full2, 2)
    assert len(labels) == 4
    assert all(row.sum() == 2 for row in np.array(block.tolist()))


def test_higher_block_preserves_perron(golden, full2, zero_diag3):
    for A in (golden, full2, zero_diag3):
        base = max(np.linalg.eigvals(np.array(A.tolist(), dtype=float)).real)
        for K in (1, 2, 3):
            block, _ = higher_block(A, K)
            lam = max(np.linalg.eigvals(np.array(block.tolist(), dtype=float)).real)
            assert abs(lam - base) < 1e-9


def test_has_cycle_within(golden, full2):
    assert has_cycle_within(golden, {2}) is None
    assert has_cycle_within(full2, {2}) == (2,)
    assert has_cycle_within(golden, set()) is None
    assert has_cycle_within(golden, {1, 2}) == (1,)


def test_has_cycle_full_set_always_found(golden, full2, zero_diag3):
    for A in (golden, full2, zero_diag3):
        cycle = has_cycle_within(A, set(range(1, A.n + 1)))
        assert cycle is not None
        assert A.is_admissible(cycle)
        assert A.tolist()[cycle[-1] - 1][cycle[0] - 1] == 1


def test_cycle_witness_is_shortest_lex(zero_diag3):
    # no self-loops, so the least 2-cycle wins
    assert has_cycle_within(zero_diag3, {1, 2, 3}) == (1, 2)
    assert has_cycle_within(zero_diag3, {2, 3}) == (2, 3)


def test_point_spec_validation(golden):
    with pytest.raises(ValueError):
        PointSpec(golden, (), (2,))  # 2 -> 2 is forbidden
    with pytest.raises(ValueError):
        PointSpec(golden, (2,), (2, 1))  # splice 2 -> 2 forbidden
    with pytest.raises(ValueError):
        PointSpec(golden, (), ())


def test_point_spec_equality_and_shift(golden, full2):
    periodic = PointSpec(golden, (), (1, 2))
    assert periodic.shift(1) == PointSpec(golden, (), (2, 1))
    assert periodic.shift(2) == periodic
    assert PointSpec(full2, (2, 1), (1,)) == PointSpec(full2, (2,), (1,))
    assert PointSpec(full2, (), (1, 2, 1, 2)) == PointSpec(full2, (), (1, 2))
    assert PointSpec(full2, (), (1,)) != PointSpec(full2, (), (2,))


def test_point_spec_window_and_prepend(golden):
    p = PointSpec(golden, (2,), (1, 1, 2))
    assert p.window(0, 6) == (2, 1, 1, 2, 1, 1)
    assert p.symbol(7) == 2
    q = p.shift(2).prepend((1, 2))
    assert q.window(0, 5) == (1, 2, 1, 2, 1)


def test_words_up_to_helper(golden):
    words = words_up_to(golden, 3)
    assert len(words) == 2 + 3 + 5


@pytest.mark.parametrize("flag", [True, False])
def test_bool_is_not_a_symbol(golden, flag):
    # True == 1 and False == 0, but neither is a symbol.
    assert not golden.is_admissible((flag, 2))
    with pytest.raises(ValueError):
        golden.check_word((flag, 2))
    with pytest.raises(ValueError):
        golden.check_symbols([1, flag])
    with pytest.raises(ValueError):
        enumerate_words(golden, 1, after=flag)
    with pytest.raises(ValueError):
        has_cycle_within(golden, {flag})
    with pytest.raises(ValueError):
        make_chi_H(golden, {flag})
    with pytest.raises(ValueError):
        is_saturated(golden, {flag})


@pytest.mark.parametrize("symbol", [0, -1, 3, True, 1.0], ids=repr)
def test_graph_lookups_refuse_a_symbol_by_name(golden, symbol):
    # 0 and -1 used to wrap around to the last symbols, True answered for
    # symbol 1, and 3 raised a bare IndexError.
    for lookup in (golden.followers, golden.predecessors, golden.follower_set):
        with pytest.raises(ValueError, match=r"^symbol %s out of range$" % re.escape(repr(symbol))):
            lookup(symbol)
    assert [golden.followers(s) for s in (1, 2)] == [(1, 2), (1,)]
    assert [golden.predecessors(s) for s in (1, 2)] == [(1, 2), (1,)]
    assert [golden.follower_set(s) for s in (1, 2)] == [{1, 2}, {1}]


GOLDEN = TransitionMatrix([[1, 1], [1, 0]])
FULL2 = TransitionMatrix([[1, 1], [1, 1]])
SWAP = TransitionMatrix([[0, 1], [1, 0]])  # one cycle, so cycle_cap=1 suffices
CHI = make_chi_H(GOLDEN, {1})
CHI2 = make_chi_H(FULL2, {1})
POINT = PointSpec(GOLDEN, (2,), (1,))

# Every count and bound behind the integer gate: (parameter, call with it).
GATED = [
    ("m", lambda v: enumerate_words(GOLDEN, v)),
    ("K", lambda v: higher_block(GOLDEN, v)),
    ("n", lambda v: weight_word_census(GOLDEN, {1}, v, 4)),
    ("len_cap", lambda v: weight_word_census(GOLDEN, {1}, 1, v)),
    ("levels", lambda v: dimension_report([[1, 1], [1, 1]], v)),
    ("n", lambda v: cocycle_sum(CHI, (1, 2, 1), v)),
    ("cycle_cap", lambda v: cycle_sums(SWAP, LocFun.constant(SWAP, 0), cycle_cap=v)),
    ("k", lambda v: POINT.shift(v)),
    ("offset", lambda v: CHI.eval_point(POINT, v)),
    ("depth", lambda v: LocFun(GOLDEN, v, {(1,): 0, (2,): 1})),
    ("window", lambda v: BlockCode(GOLDEN, GOLDEN, v, {(1,): 1, (2,): 2})),
    ("k_max", lambda v: minimality_search(FULL2, CHI2, PointSpec(FULL2, (), (1,)), (1,), k_max=v)),
    ("value_max", lambda v: minimality_search(FULL2, CHI2, PointSpec(FULL2, (), (1,)), (1,), value_max=v)),
    ("k_max", lambda v: minimality_verdict(FULL2, CHI2, k_max=v)),
    ("value_max", lambda v: minimality_verdict(FULL2, CHI2, value_max=v)),
    ("offset", lambda v: POINT.window(v, 2)),
    ("length", lambda v: POINT.window(0, v)),
    ("position", lambda v: POINT.symbol(v)),
]
# Ids are "<parameter>-<row>".  Row 6 was minimality_verdict's grid_size,
# now a module constant; the rows after it keep their numbers.
GATED_IDS = ["%s-%d" % (name, i + (i >= 6)) for i, (name, _) in enumerate(GATED)]


@pytest.mark.parametrize("name, call", GATED, ids=GATED_IDS)
@pytest.mark.parametrize(
    "bad",
    [1.5, True, "1", np.bool_(True), np.float64(1.0)],
    ids=["float", "bool", "str", "np-bool", "np-float64"],
)
def test_gated_parameter_refuses_a_non_integer(name, call, bad):
    with pytest.raises(ValueError, match="^%s must be (a nonnegative|an) integer" % name):
        call(bad)


@pytest.mark.parametrize("name, call", GATED, ids=GATED_IDS)
def test_gated_parameter_accepts_a_numpy_integer(name, call):
    call(np.int64(1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: p.window(True, 2), "offset must be a nonnegative integer"),
        (lambda p: p.window(-1, 2), "offset must be a nonnegative integer"),
        (lambda p: p.window(0, -1), "length must be a nonnegative integer"),
        (lambda p: p.window(1.5, 2), "offset must be a nonnegative integer"),
        (lambda p: p.window(0, 2.0), "length must be a nonnegative integer"),
        (lambda p: p.symbol(0), "position must be an integer >= 1"),
        (lambda p: p.symbol(True), "position must be an integer >= 1"),
        (lambda p: make_chi_H(GOLDEN, {1}).eval_point(p, -1), "offset must be a nonnegative"),
    ],
    ids=[
        "window-offset-bool",
        "window-offset-negative",
        "window-length-negative",
        "window-offset-float",
        "window-length-float",
        "symbol-zero",
        "symbol-bool",
        "eval_point-offset-negative",
    ],
)
def test_point_window_and_symbol_are_gated(call, message):
    with pytest.raises(ValueError, match="^" + message):
        call(POINT)


@pytest.mark.parametrize(
    "matrix, pre, per",
    [(GOLDEN, (), (1,)), (GOLDEN, (2,), (1,)), (GOLDEN, (2, 1, 1), (1, 2)), (FULL2, (1,), (2, 1, 1))],
)
def test_point_window_matches_symbol_reading(matrix, pre, per):
    p = PointSpec(matrix, pre, per)
    sequence = pre + per * 20
    for o in range(9):
        for n in range(9):
            assert p.window(o, n) == sequence[o : o + n]
            assert p.window(o, n) == tuple(p.symbol(o + 1 + i) for i in range(n))
