"""K-groups and dimension vectors against the dense, column-wise versions.

`reference_ck_k_groups` is `ck_k_groups` as it was before the core
reduction (the Smith form of the whole I - A^T), and
`reference_dimension_report` is `dimension_report` as it was before
rows were grouped into classes (one dot product per column), both kept
verbatim.  The current versions must return equal results on every
corpus below, and the reduction must make paper-scale towers and
recodings cheap.
"""

import random
import time
from itertools import permutations
from operator import mul

import pytest

from sftcocycles import (
    TransitionMatrix,
    ck_k_groups,
    dimension_report,
    higher_block,
    inclusion_matrix,
    smith_normal_form,
    suspended_matrix,
)
from sftcocycles.ktheory import _core
from sftcocycles.sft import _int_rows, _integer

GOLDEN = [[1, 1], [1, 0]]
FULL2 = [[1, 1], [1, 1]]
ZD3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def reference_ck_k_groups(A):
    """K-groups of the Cuntz-Krieger algebra of a transition matrix.

    K0 is the cokernel of I - A^T acting on Z^n, reported as free rank
    plus the nontrivial torsion divisors; K1 is the kernel, which is
    free of the same rank as the cokernel's free part.
    """
    n = A.n
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):  # row i of A^T lists the predecessors of symbol i + 1
        for j in A.predecessors(i + 1):
            M[i][j - 1] -= 1
    D, _, _ = smith_normal_form(M)
    diag = [D[i][i] for i in range(n)]
    free_rank = sum(1 for d in diag if d == 0)
    torsion = [d for d in diag if d > 1]
    return {
        "K0": {"rank": free_rank, "torsion": torsion},
        "K1": {"rank": free_rank},
    }


def reference_dimension_report(M, levels):
    """Dimension growth data of a stationary inclusion matrix.

    Starting from the all-ones vector, each level multiplies by the
    transposed matrix; the report carries the vectors, the squared-sum
    dimension proxy per level, the linear growth ratios, and a UHF
    detection that fires only when all rows of the matrix are identical
    (then the supernatural growth factor is the common row sum).
    Anything subtler is left inconclusive on purpose.
    """
    rows = _int_rows(M)
    levels = _integer(levels, "levels", 1)
    size = len(rows)
    if not rows:
        raise ValueError("need a nonempty square matrix")
    if len(rows[0]) != size:
        raise ValueError(
            "inclusion matrices are square, got %d x %d" % (size, len(rows[0]))
        )
    if any(min(row) < 0 for row in rows):
        raise ValueError("inclusion matrices are nonnegative")
    cols = list(zip(*rows))
    vectors = [[1] * size]
    for _ in range(levels - 1):
        prev = vectors[-1]
        vectors.append([sum(map(mul, col, prev)) for col in cols])
    totals = [sum(v) for v in vectors]
    ratios = [
        round(b / a, 12) for a, b in zip(totals, totals[1:]) if a
    ]
    uhf_factor = None
    if all(row == rows[0] for row in rows[1:]):
        uhf_factor = sum(rows[0])
    return {
        "vectors": vectors,
        "dimension_proxy": [sum(x * x for x in v) for v in vectors],
        "ratios": ratios,
        "uhf_factor": uhf_factor,
    }


def random_matrices(count, seed):
    """`count` seeded random 0/1 transition matrices, n <= 14, and the rest drawn.

    Densities 0.15, 0.3 and 0.6 take turns; a draw with a zero row or
    column is no transition matrix and goes to the second list, which
    :func:`dimension_report` still accepts.
    """
    rng = random.Random(seed)
    valid, drawn = [], []
    while len(valid) < count:
        density = (0.15, 0.3, 0.6)[len(drawn) % 3]
        n = rng.randint(1, 14)
        entries = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
        drawn.append(entries)
        try:
            valid.append(TransitionMatrix(entries))
        except ValueError:
            pass
    return valid, drawn


RANDOM, DRAWN = random_matrices(500, 16)


def permutation_cycles():
    rng = random.Random(7)
    out = [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]
    for n in range(3, 13):
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            out.append([[int(perm[i] == j) for j in range(n)] for i in range(n)])
    return out


def repeated_rows_and_columns():
    rng = random.Random(11)
    out = []
    while len(out) < 60:
        k = rng.randint(2, 6)
        base = [[int(rng.random() < 0.5) for _ in range(k)] for _ in range(k)]
        # Duplicate rows and columns of a random base: state i copies base
        # state pick[i], in its row, its column, or both.
        pick = [rng.randrange(k) for _ in range(rng.randint(k, 12))]
        pick[:k] = range(k)
        how = rng.choice(("rows", "cols", "both"))
        n = len(pick)
        entries = [
            [
                base[pick[i] if how != "cols" else i % k][
                    pick[j] if how != "rows" else j % k
                ]
                for j in range(n)
            ]
            for i in range(n)
        ]
        try:
            out.append(TransitionMatrix(entries))
        except ValueError:
            continue
    return out


def towers():
    out = []
    for base in (GOLDEN, FULL2, ZD3):
        A = TransitionMatrix(base)
        for ceilings in set(permutations((1, 2, 3, 5, 7), A.n)):
            out.append(suspended_matrix(A, ceilings).matrix)
        out.append(suspended_matrix(A, (4,) * A.n).matrix)
    return out


def recodings():
    out = []
    for base in (GOLDEN, FULL2, ZD3):
        for K in range(1, 5):
            out.append(higher_block(TransitionMatrix(base), K)[0])
    return out


def full_shifts():
    return [TransitionMatrix([[1] * n for _ in range(n)]) for n in range(2, 13)]


CORPORA = {
    "random": RANDOM,
    "cycles": [TransitionMatrix(e) for e in permutation_cycles()],
    "full": full_shifts(),
    "repeated": repeated_rows_and_columns(),
    "towers": towers(),
    "recodings": recodings(),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_k_groups_match_the_dense_smith_form(corpus):
    for A in CORPORA[corpus]:
        assert ck_k_groups(A) == reference_ck_k_groups(A), A.tolist()


def test_core_of_a_permutation_keeps_one_looped_vertex_per_cycle():
    for entries in permutation_cycles():
        image = {i: row.index(1) + 1 for i, row in enumerate(entries, 1)}
        cycles, seen = 0, set()
        for s in image:
            cycles += s not in seen
            while s not in seen:
                seen.add(s)
                s = image[s]
        core = _core({i: {j: 1} for i, j in image.items()})
        assert len(core) == cycles
        assert all(row == {v: 1} for v, row in core.items())
        assert ck_k_groups(TransitionMatrix(entries))["K0"] == {"rank": cycles, "torsion": []}


def test_core_of_the_full_shifts_is_one_weighted_loop():
    for n in range(2, 13):
        core = _core({i: dict.fromkeys(range(1, n + 1), 1) for i in range(1, n + 1)})
        assert list(core.values()) == [{next(iter(core)): n}]


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_dimension_reports_match_the_column_sums(corpus):
    for A in CORPORA[corpus]:
        rows = A.tolist()
        assert dimension_report(rows, 5) == reference_dimension_report(rows, 5)


def test_dimension_reports_of_unchecked_draws_match():
    for rows in DRAWN:
        assert dimension_report(rows, 4) == reference_dimension_report(rows, 4)


def test_dimension_reports_of_inclusion_matrices_match():
    golden = TransitionMatrix(GOLDEN)
    zd3 = TransitionMatrix(ZD3)
    matrices = [
        inclusion_matrix(golden, {1}).matrix,
        inclusion_matrix(zd3, {1, 2}).matrix,
        inclusion_matrix(golden, {1, 2}).matrix,
        inclusion_matrix(zd3, {1, 2, 3}).matrix,
        [[1]],
        [[2, 1], [2, 1]],
        [[0, 3], [1, 0]],
    ]
    for M in matrices:
        for levels in (1, 2, 4):
            assert dimension_report(M, levels) == reference_dimension_report(M, levels)


def test_a_negative_entry_is_refused_in_a_repeated_row():
    with pytest.raises(ValueError, match="^inclusion matrices are nonnegative$"):
        dimension_report([[1, -1], [1, -1]], 2)


def test_full3_tower_of_3000_states_is_fast():
    tower = suspended_matrix(TransitionMatrix([[1] * 3] * 3), (1000, 1000, 1000)).matrix
    assert tower.n == 3000
    start = time.perf_counter()
    groups = ck_k_groups(tower)
    assert time.perf_counter() - start < 1.0
    assert groups == {"K0": {"rank": 0, "torsion": [2]}, "K1": {"rank": 0}}


def test_ten_block_full2_recoding_is_fast():
    A = higher_block(TransitionMatrix(FULL2), 10)[0]
    assert A.n == 1024
    start = time.perf_counter()
    groups = ck_k_groups(A)
    assert time.perf_counter() - start < 1.0
    assert groups == {"K0": {"rank": 0, "torsion": []}, "K1": {"rank": 0}}


def test_dimension_report_of_512_ones_matches():
    ones = [[1] * 512 for _ in range(512)]
    report = dimension_report(ones, 3)
    assert report == reference_dimension_report(ones, 3)
    assert report["uhf_factor"] == 512
