import numpy as np
import pytest

from sftcocycles import (
    PointSpec,
    TransitionMatrix,
    enumerate_words,
    has_cycle_within,
    higher_block,
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
    assert all(row.sum() == 2 for row in block.entries)


def test_higher_block_preserves_perron(golden, full2, zero_diag3):
    for A in (golden, full2, zero_diag3):
        base = max(np.linalg.eigvals(A.entries.astype(float)).real)
        for K in (1, 2, 3):
            block, _ = higher_block(A, K)
            lam = max(np.linalg.eigvals(block.entries.astype(float)).real)
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
        assert A.entries[cycle[-1] - 1, cycle[0] - 1] == 1


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
