import numpy as np
import pytest

from sftcocycles import (
    LocFun,
    cocycle_sum,
    corner_partition_check,
    decode_return_times,
    encode_word,
    enumerate_words,
    reduce_to_first_coordinate,
    suspended_matrix,
)


def test_trivial_ceiling_is_identity(golden):
    S = suspended_matrix(golden, (1, 1))
    assert S.matrix.tolist() == golden.tolist()
    assert S.labels == ((1, 0), (2, 0))
    decoded, offset = decode_return_times(S, (1, 2, 1))
    assert decoded == (1, 2, 1) and offset == 0


def test_golden_tower_matrix(golden):
    S = suspended_matrix(golden, (2, 1))
    assert S.label_strings() == ["1_0", "1_1", "2_0"]
    assert S.matrix.tolist() == [[0, 1, 0], [1, 0, 1], [1, 0, 0]]


def test_full_shift_tower_matrix(full2):
    S = suspended_matrix(full2, (2, 2))
    assert S.label_strings() == ["1_0", "1_1", "2_0", "2_1"]
    assert S.matrix.tolist() == [
        [0, 1, 0, 0],
        [1, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 1, 0],
    ]


def test_sizes(golden, full2, zero_diag3):
    cases = [(golden, (2, 1)), (full2, (3, 2)), (zero_diag3, (1, 2, 3))]
    for A, ceilings in cases:
        S = suspended_matrix(A, ceilings)
        assert S.size == sum(ceilings)
        assert corner_partition_check(A, ceilings)


def test_ceiling_validation(golden):
    with pytest.raises(ValueError):
        suspended_matrix(golden, (1, 0))
    with pytest.raises(ValueError):
        suspended_matrix(golden, (1,))


@pytest.mark.parametrize(
    "ceilings, message",
    [
        ((1.7, 1), "ceiling of symbol 1 is 1.7"),
        ((1, True), "ceiling of symbol 2 is True"),
        (("2", 1), "ceiling of symbol 1 is '2'"),
    ],
)
def test_ceilings_must_be_integers(golden, ceilings, message):
    with pytest.raises(ValueError, match=message):
        suspended_matrix(golden, ceilings)


def test_numpy_ceilings_become_python_ints(golden):
    S = suspended_matrix(golden, np.array([2, 1]))
    assert S.ceilings == (2, 1) and all(type(c) is int for c in S.ceilings)


def test_reduce_depth_one_unchanged(golden):
    f = LocFun(golden, 1, {(1,): 2, (2,): 1})
    block, ceiling, labels = reduce_to_first_coordinate(golden, f)
    assert block is golden
    assert labels == ((1,), (2,))
    assert [ceiling.table[(i,)] for i in (1, 2)] == [2, 1]


def test_reduce_depth_two(golden):
    f = LocFun(golden, 2, {(1, 1): 2, (1, 2): 1, (2, 1): 3})
    block, ceiling, labels = reduce_to_first_coordinate(golden, f)
    assert labels == ((1, 1), (1, 2), (2, 1))
    assert block.tolist() == [[1, 1, 0], [0, 0, 1], [1, 1, 0]]
    assert [ceiling.table[(i,)] for i in (1, 2, 3)] == [2, 1, 3]
    for w in enumerate_words(golden, 3):
        block_symbol = labels.index(w[:2]) + 1
        assert f.value_on(w) == ceiling.value_on((block_symbol,))


def test_reduce_constant(golden):
    f = LocFun(golden, 1, {(1,): 3, (2,): 3})
    _, ceiling, _ = reduce_to_first_coordinate(golden, f)
    assert ceiling.is_constant() and ceiling.min_value() == 3
    with pytest.raises(ValueError, match="positive"):
        reduce_to_first_coordinate(golden, LocFun.constant(golden, 0))


def test_decode_examples(golden):
    S = suspended_matrix(golden, (2, 1))
    s = S.symbol_of
    word = (s(1, 0), s(1, 1), s(2, 0), s(1, 0))
    assert decode_return_times(S, word) == ((1, 2, 1), 0)
    word = (s(1, 1), s(2, 0), s(1, 0), s(1, 1))
    assert decode_return_times(S, word) == ((2, 1), 1)
    with pytest.raises(ValueError, match="ground-level"):
        decode_return_times(S, (s(1, 1),))


@pytest.mark.parametrize(
    "lookup, message",
    [
        (lambda S: S.label(0), "symbol 0 out of range"),
        (lambda S: S.label(4), "symbol 4 out of range"),
        (lambda S: S.label(True), "symbol True out of range"),
        (lambda S: S.label(1.0), r"symbol 1\.0 out of range"),
        (lambda S: S.symbol_of(1, 5), r"no tower level \(j, t\) = \(1, 5\)"),
        (lambda S: S.symbol_of(3, 0), r"no tower level \(j, t\) = \(3, 0\)"),
        (lambda S: S.symbol_of([1], 0), r"no tower level \(j, t\) = \(\[1\], 0\)"),
        (lambda S: S.symbol_of(True, 0), r"no tower level \(j, t\) = \(True, 0\)"),
        (lambda S: S.symbol_of(2, True), r"no tower level \(j, t\) = \(2, True\)"),
        (lambda S: S.symbol_of(1.0, 0), r"no tower level \(j, t\) = \(1\.0, 0\)"),
    ],
)
def test_tower_lookups_refuse_by_name(golden, lookup, message):
    S = suspended_matrix(golden, (1, 2))
    with pytest.raises(ValueError, match=message):
        lookup(S)
    assert [S.label(s) for s in (1, 2, 3)] == [(1, 0), (2, 0), (2, 1)]
    assert [S.symbol_of(j, t) for j, t in S.labels] == [1, 2, 3]


def test_encode_decode_round_trip(golden, full2):
    for A, ceilings in ((golden, (2, 1)), (full2, (2, 2)), (golden, (3, 2))):
        S = suspended_matrix(A, ceilings)
        for length in range(1, 9):
            for u in enumerate_words(A, length):
                assert decode_return_times(S, encode_word(S, u)) == (u, 0)


def test_encoded_words_admissible(golden, full2):
    for A, ceilings in ((golden, (2, 1)), (full2, (3, 1))):
        S = suspended_matrix(A, ceilings)
        for u in enumerate_words(A, 5):
            assert S.matrix.is_admissible(encode_word(S, u))


def test_return_times_match_cocycle_sums(golden, full2):
    # the k-th ground-level return in the tower happens after exactly
    # f^k(u) suspended steps
    for A, ceilings in ((golden, (2, 1)), (full2, (2, 3))):
        S = suspended_matrix(A, ceilings)
        f = LocFun(A, 1, {(i,): ceilings[i - 1] for i in range(1, A.n + 1)})
        for u in enumerate_words(A, 6):
            w = encode_word(S, u)
            ground = [i for i, s in enumerate(w) if S.label(s)[1] == 0]
            for k in range(1, len(u)):
                assert ground[k] == cocycle_sum(f, u, k)


def test_primitivity_transfer_on_aperiodic_ceilings(golden):
    # ceilings whose cycle sums are coprime keep the tower primitive
    assert golden.primitive
    S = suspended_matrix(golden, (2, 1))
    assert S.matrix.primitive
    S = suspended_matrix(golden, (3, 1))
    assert S.matrix.primitive


def test_constant_ceiling_breaks_primitivity(full2):
    # every tower cycle length is a multiple of the constant ceiling, so
    # the suspended matrix is irreducible but periodic
    S = suspended_matrix(full2, (2, 2))
    assert S.matrix.irreducible
    assert not S.matrix.primitive
