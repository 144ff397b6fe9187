"""Every matrix read from outside passes the integer gate once.

The matrix flags, the Perron value and the inclusion matrix read their
matrices through ``sft._int_rows``: a non-integer cell is refused with a
``ValueError`` naming it, and any integer matrix, as a list of lists, a
tuple of tuples or an integer NumPy array, gets the same answer, with
its positive entries as the edges.  The NumPy body of
``inclusion_matrix`` it replaced is kept here as an oracle.
"""

import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from sftcocycles import (
    InclusionMatrix,
    LocFun,
    TransitionMatrix,
    dimension_report,
    inclusion_matrix,
    is_irreducible,
    is_primitive,
    is_saturated,
    perron_value,
    sigma_family,
    smith_normal_form,
)
from sftcocycles.sft import _int_rows, _integer

FLAGS_AND_PERRON = [is_primitive, is_irreducible, perron_value]

REFUSED = [
    ("half", [[0.5, 1], [1, 0]], r"entry \(1, 1\) is 0\.5, not an integer"),
    ("bool", [[True, True], [True, False]], r"entry \(1, 1\) is True, not an integer"),
    ("string", [["a", "b"], ["c", "d"]], r"entry \(1, 1\) is 'a', not an integer"),
    ("null", [[1, None], [1, 1]], r"entry \(1, 2\) is None, not an integer"),
    ("ragged", [[1, 1], [1]], "rows must all have the same length"),
    ("float64", np.array([[1.0, 1.0], [1.0, 0.0]]), "not float64"),
    ("bool-array", np.array([[True, True], [True, False]]), "not bool"),
]


@pytest.mark.parametrize("fn", FLAGS_AND_PERRON, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("name, bad, message", REFUSED, ids=[r[0] for r in REFUSED])
def test_non_integer_matrices_are_refused(fn, name, bad, message):
    with pytest.raises(ValueError, match=message):
        fn(bad)


@pytest.mark.parametrize("fn", FLAGS_AND_PERRON, ids=lambda fn: fn.__name__)
def test_non_square_matrices_are_refused(fn):
    for bad in ([1, 1], [[1, 1]], [], np.ones((2, 3), dtype=np.int64), np.ones(2, dtype=np.int64)):
        with pytest.raises(ValueError):
            fn(bad)


def test_integer_arrays_read_as_python_ints():
    for dtype in (np.int8, np.int64, np.uint16, np.uint64):
        arr = np.array([[1, 2], [0, 3]], dtype=dtype)
        rows = _int_rows(arr)
        assert rows == [[1, 2], [0, 3]]
        assert all(type(v) is int for row in rows for v in row)
    obj = np.array([[1, 2], [0, None]], dtype=object)
    with pytest.raises(ValueError, match=r"entry \(2, 2\) is None"):
        _int_rows(obj)
    assert _int_rows(np.array([[1, 2], [0, 3]], dtype=object)) == [[1, 2], [0, 3]]


def test_smith_form_reads_an_integer_array():
    # Every public reader of outside matrices gets a real ndarray somewhere
    # in the suite; this one is the Smith form's.
    M = [[0, -1, 1], [2, 4, 0], [1, 1, -3]]
    for dtype in (np.int32, np.int64, object):
        assert smith_normal_form(np.array(M, dtype=dtype)) == smith_normal_form(M)


GOLDEN = TransitionMatrix([[1, 1], [1, 0]])
READERS = {
    "bound": lambda v: _integer(v, "k_max", 0),
    "locfun-value": lambda v: LocFun(GOLDEN, 1, {(1,): v, (2,): 0}).table[(1,)],
    "matrix-cell": lambda v: _int_rows(np.array([[v, 1], [1, 0]], dtype=object))[0][0],
}


@pytest.mark.parametrize("read", READERS.values(), ids=READERS)
def test_numpy_scalars_are_read_as_numbers_integral(read):
    # NumPy registers its integers as numbers.Integral, and not its bool_.
    for value in (np.int64(1), np.uint64(2**63)):
        out = read(value)
        assert out == int(value) and type(out) is int
    for bad in (np.bool_(True), np.float64(1.0)):
        with pytest.raises(ValueError, match="integer"):
            read(bad)


def test_an_array_is_known_by_its_dtype_kind():
    odd = SimpleNamespace(dtype="int64", tolist=lambda: [[1]])
    with pytest.raises(ValueError, match="^matrix entries must be integers, not int64$"):
        _int_rows(odd)


def test_perron_value_reads_once_and_refuses_cleanly(golden):
    assert perron_value(golden) == perron_value(np.array(golden.tolist()))
    with pytest.raises(ValueError, match="nonnegative"):
        perron_value([[1, -1], [1, 1]])
    with pytest.raises(ValueError, match="too large"):
        perron_value([[10**400, 1], [1, 1]])
    with pytest.raises(ValueError, match="reducible"):
        perron_value(np.array([[1, 1], [0, 1]]))


def test_gated_readers_refuse_the_same_cells():
    # dimension_report and the Smith form read through the same gate.
    for fn in (smith_normal_form, lambda M: dimension_report(M, 2)):
        for _, bad, message in REFUSED[:4] + REFUSED[5:]:
            with pytest.raises(ValueError, match=message):
                fn(bad)


def ring_with_chord(n, c):
    arr = np.zeros((n, n), dtype=np.int64)
    arr[np.arange(n), (np.arange(n) + 1) % n] = 1
    arr[0, c] = 1
    return arr


def flag_corpus():
    """Every 0/1 matrix up to 3 x 3 and the seeded corpora of test_flags_oracle."""
    for n in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=n * n):
            yield np.array(bits, dtype=np.int64).reshape(n, n)
    rng = random.Random(20210106)
    for n in range(1, 13):
        for _ in range(60):
            density = rng.choice([0.1, 0.2, 0.3, 0.5, 0.8])
            yield np.array([[int(rng.random() < density) for _ in range(n)] for _ in range(n)])
            p = rng.randint(1, n)
            cls = [rng.randrange(p) for _ in range(n)]
            yield np.array(
                [[int(cls[j] == (cls[i] + 1) % p and rng.random() < 0.6) for j in range(n)] for i in range(n)]
            )
    rng = random.Random(3)
    for n in range(2, 41):
        for c in range(n):
            perm = list(range(n))
            rng.shuffle(perm)
            yield ring_with_chord(n, c)[np.ix_(perm, perm)]


def test_matrix_forms_give_identical_flags():
    checked = 0
    for arr in flag_corpus():
        rows = arr.tolist()
        forms = (rows, tuple(map(tuple, rows)), arr)
        assert len({(is_irreducible(M), is_primitive(M)) for M in forms}) == 1, rows
        if is_irreducible(rows):
            # Bit-identical floats: one float array feeds the same solver.
            values = {perron_value(M) for M in forms}
            assert len(values) == 1, (rows, values)
            checked += 1
    assert checked > 800


def test_positive_entries_are_the_edges():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 7)
        rows = [[rng.choice([-2, -1, 0, 0, 1, 2, 5]) for _ in range(n)] for _ in range(n)]
        mask = [[int(v > 0) for v in row] for row in rows]
        assert is_irreducible(rows) is is_irreducible(mask), rows
        assert is_primitive(rows) is is_primitive(mask), rows
        assert is_primitive(np.array(rows, dtype=np.int32)) is is_primitive(mask), rows


def isin_inclusion_matrix(A, H):
    """The NumPy body of ``inclusion_matrix`` that the row tuples replaced."""
    family = sigma_family(A, H)
    firsts = [w[0] for w in family.words]
    # A row depends only on the last symbol of its word: it marks the
    # words whose first symbol may follow that symbol.
    rows = np.array(
        [np.isin(firsts, A.followers(s)) for s in range(1, A.n + 1)], dtype=np.int64
    )
    arr = rows[[w[-1] - 1 for w in family.words]]
    arr.setflags(write=False)
    return InclusionMatrix(family, arr)


def dag_complement(m):
    """Symbol 1 reaches everything; 2..m+1 form a complete DAG that returns to 1."""
    N = m + 1
    entries = [[0] * N for _ in range(N)]
    entries[0] = [1] * N
    for i in range(1, N):
        entries[i][0] = 1
        for j in range(i + 1, N):
            entries[i][j] = 1
    return TransitionMatrix(entries)


def inclusion_cases(golden, zero_diag3):
    for A in (golden, zero_diag3):
        for r in range(1, A.n + 1):
            for H in itertools.combinations(range(1, A.n + 1), r):
                if is_saturated(A, H):
                    yield A, set(H)
    rng = random.Random(5)
    for m in range(4, 8):
        A = dag_complement(m)
        # Symbol 1 carries a loop, so H is saturated exactly when it holds 1.
        subsets = [set(rng.sample(range(2, m + 2), rng.randint(0, m))) for _ in range(6)]
        for H in [set(), set(range(2, m + 2))] + subsets:
            yield A, H | {1}


def test_inclusion_matrix_matches_isin_oracle(golden, zero_diag3):
    count = 0
    for A, H in inclusion_cases(golden, zero_diag3):
        inc, oracle = inclusion_matrix(A, H), isin_inclusion_matrix(A, H)
        assert inc.family.words == oracle.family.words
        assert inc.tolist() == oracle.matrix.tolist()
        assert inc.matrix == tuple(map(tuple, oracle.matrix.tolist()))
        assert all(type(v) is int for row in inc.matrix for v in row)
        assert is_primitive(inc.matrix) is is_primitive(oracle.matrix)
        assert dimension_report(inc.matrix, 3) == dimension_report(oracle.matrix, 3)
        assert repr(inc) == "InclusionMatrix(%r)" % (oracle.matrix.tolist(),)
        count += 1
    assert count == 6 + 4 * 8


def test_inclusion_matrix_rows_are_tuples(golden):
    inc = inclusion_matrix(golden, {1})
    assert inc.matrix == ((1, 1), (1, 1))
    copy = inc.tolist()
    copy[0][0] = 0
    assert inc.matrix == ((1, 1), (1, 1))
