"""Cross-checks of the graph-based matrix flags and block recoding.

The dense constructions they replaced are kept here as oracles: boolean
matrix powers up to the Wielandt bound for primitivity, the reachability
closure for irreducibility, and the words x words array for the higher
block presentation.
"""

import itertools
import math
import random

import numpy as np
import pytest

from sftcocycles import (
    TransitionMatrix,
    enumerate_words,
    higher_block,
    is_irreducible,
    is_primitive,
    suspended_matrix,
)
from sftcocycles.sft import _graph, _period, _strong_levels


def wielandt_primitive(entries):
    """Some boolean power up to the sharp Wielandt bound (n-1)**2 + 1 is positive."""
    arr = np.asarray(entries) > 0
    n = arr.shape[0]
    power = arr
    for _ in range((n - 1) ** 2 + 1):
        if power.all():
            return True
        power = power @ arr
    return bool(power.all())


def closure_irreducible(entries):
    """The reflexive reachability closure, by repeated squaring, is all True."""
    arr = np.asarray(entries) > 0
    n = arr.shape[0]
    reach = arr | np.eye(n, dtype=bool)
    for _ in range(max(1, n.bit_length())):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def dense_higher_block(A, K):
    """The K-block matrix as a words x words array, filled cell by cell."""
    words = enumerate_words(A, K)
    index = {w: i for i, w in enumerate(words)}
    arr = np.zeros((len(words), len(words)), dtype=np.int64)
    for w in words:
        for j in A.followers(w[-1]):
            arr[index[w], index[w[1:] + (j,)]] = 1
    return arr, tuple(words)


def ring_with_chord(n, c):
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0 plus the chord 0 -> c."""
    arr = np.zeros((n, n), dtype=np.int64)
    arr[np.arange(n), (np.arange(n) + 1) % n] = 1
    arr[0, c] = 1
    return arr


def relabel(arr, rng):
    perm = list(range(len(arr)))
    rng.shuffle(perm)
    return arr[np.ix_(perm, perm)]


def period(entries):
    n, followers, predecessors = _graph(entries)
    return _period(followers, _strong_levels(n, followers, predecessors))


def assert_flags_match(arr):
    assert is_irreducible(arr) is closure_irreducible(arr), arr.tolist()
    assert is_primitive(arr) is wielandt_primitive(arr), arr.tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flags_on_every_01_matrix(n):
    cells = n * n
    bits = (np.arange(2**cells)[:, None] >> np.arange(cells)) & 1
    for flat in bits:
        assert_flags_match(flat.reshape(n, n))


def test_flags_on_seeded_random_matrices():
    rng = random.Random(20210106)
    for n in range(1, 13):
        for _ in range(60):
            density = rng.choice([0.1, 0.2, 0.3, 0.5, 0.8])
            arr = np.array([[int(rng.random() < density) for _ in range(n)] for _ in range(n)])
            assert_flags_match(arr)
            # block-cyclic matrices: irreducible ones are imprimitive with
            # period a multiple of p, a case plain random draws rarely hit
            p = rng.randint(1, n)
            cls = [rng.randrange(p) for _ in range(n)]
            cyclic = np.array(
                [[int(cls[j] == (cls[i] + 1) % p and rng.random() < 0.6) for j in range(n)] for i in range(n)]
            )
            assert_flags_match(cyclic)


def test_transition_matrix_flags_match_oracles():
    rng = random.Random(7)
    checked = 0
    while checked < 300:
        n = rng.randint(2, 9)
        rows = [[int(rng.random() < 0.35) for _ in range(n)] for _ in range(n)]
        try:
            A = TransitionMatrix(rows)
        except ValueError:
            continue
        assert A.irreducible is closure_irreducible(rows)
        assert A.primitive is wielandt_primitive(rows)
        assert A.permutation == bool((np.asarray(rows).sum(axis=1) == 1).all())
        assert A.tolist() == rows and A.entries.tolist() == rows
        assert A.same_matrix(TransitionMatrix(np.array(rows)))
        checked += 1


def test_ring_plus_chord_period():
    rng = random.Random(3)
    for n in range(2, 41):
        for c in range(n):
            arr = relabel(ring_with_chord(n, c), rng)
            expected = math.gcd(n, c - 1)
            assert is_irreducible(arr)
            assert period(arr) == expected == period(TransitionMatrix(arr))
            assert is_primitive(arr) is (expected == 1)
            if n <= 12:
                assert wielandt_primitive(arr) is (expected == 1)


def test_large_tower_flags():
    S = suspended_matrix(TransitionMatrix([[1, 1, 1]] * 3), [334] * 3)
    assert S.size == 1002
    assert period(S.matrix) == 334
    assert S.matrix.flags() == {"irreducible": True, "primitive": False, "permutation": False}


def test_higher_block_matches_dense_construction(golden, full2, zero_diag3):
    for A in (golden, full2, zero_diag3):
        for K in range(1, 6):
            block, labels = higher_block(A, K)
            arr, words = dense_higher_block(A, K)
            assert labels == words
            assert block.tolist() == arr.tolist()
            assert np.array_equal(block.entries, arr)
            assert block.same_matrix(TransitionMatrix(arr))
            assert block.flags() == {
                "irreducible": closure_irreducible(arr),
                "primitive": wielandt_primitive(arr),
                "permutation": False,
            }


def test_from_followers_validates():
    A = TransitionMatrix.from_followers([(1, 2), (1,)])
    assert A.same_matrix(TransitionMatrix([[1, 1], [1, 0]]))
    assert A.predecessors(1) == (1, 2) and A.predecessors(2) == (1,)
    for bad in ([(2, 1), (1,)], [(1, 1), (2,)], [(1, 3), (1,)], [(0,), (1, 2)], [(1, 2), ()], [(2,), (2,)]):
        with pytest.raises(ValueError):
            TransitionMatrix.from_followers(bad)


def test_derived_graphs_equal_their_dense_matrices(monkeypatch):
    # higher_block and SuspendedMatrix build follower tuples ascending and
    # in range, so they skip the check that from_followers gives outside input.
    from test_kgroups_oracle import recodings, towers

    def refuse(followers):
        raise AssertionError("a derived graph was checked as outside input")

    monkeypatch.setattr(TransitionMatrix, "from_followers", refuse)
    for block in towers() + recodings():
        dense = TransitionMatrix(block.tolist())
        assert (block.n, block._followers, block._predecessors, block._follower_sets) == (
            dense.n, dense._followers, dense._predecessors, dense._follower_sets
        )


def test_entries_array_is_read_only(golden):
    with pytest.raises(ValueError):
        golden.entries[0, 0] = 0
    assert golden.entries.dtype == np.int64


def test_module_flags_refuse_non_square():
    for bad in ([1, 1], [[1, 1]], []):
        with pytest.raises(ValueError):
            is_primitive(bad)
        with pytest.raises(ValueError):
            is_irreducible(bad)


def test_enumerate_words_after_symbol(golden, zero_diag3):
    for A in (golden, zero_diag3):
        for s, m in itertools.product(range(1, A.n + 1), range(4)):
            words = enumerate_words(A, m, after=s)
            assert words == [w for w in enumerate_words(A, m) if not w or w[0] in A.followers(s)]
    with pytest.raises(ValueError):
        enumerate_words(golden, 2, after=3)
