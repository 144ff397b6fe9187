"""The Smith normal form against the dense-scan, dense-check version.

`reference_snf` is `smith_normal_form` as it was before the unit-pivot
early exit, the whole-row operations and the zero-skipping self-check,
kept verbatim with its `_matmul`.  Both must return the identical
(D, U, V): the same pivots and the same elementary operations.
"""

import random

import pytest

from sftcocycles import ktheory, smith_normal_form
from sftcocycles.ktheory import _identity, _int_rows


def _matmul(X, Y):
    rows, inner, cols = len(X), len(Y), len(Y[0]) if Y else 0
    return [
        [sum(X[i][k] * Y[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def reference_snf(M):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (D, U, V) with U.M.V = D, D diagonal with nonnegative
    entries satisfying d_i | d_{i+1}, and U, V products of elementary
    integer operations (hence determinant +-1).  The factorization is
    recomputed exactly before returning; a mismatch raises, so a
    successful return is self-certifying.
    """
    D = _int_rows(M)
    rows = len(D)
    cols = len(D[0]) if rows else 0
    U, V = _identity(rows), _identity(cols)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(rows):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        for c in range(cols):
            D[dst][c] += q * D[src][c]
        for c in range(rows):
            U[dst][c] += q * U[src][c]

    def add_col(src, dst, q):
        for r in range(rows):
            D[r][dst] += q * D[r][src]
        for r in range(cols):
            V[r][dst] += q * V[r][src]

    def negate_row(i):
        D[i] = [-v for v in D[i]]
        U[i] = [-v for v in U[i]]

    for t in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if D[i][j] != 0 and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot != (t, t):
                if pivot[0] != t:
                    swap_rows(t, pivot[0])
                if pivot[1] != t:
                    swap_cols(t, pivot[1])
            dirty = False
            for i in range(t + 1, rows):
                if D[i][t]:
                    add_row(t, i, -(D[i][t] // D[t][t]))
                    if D[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if D[t][j]:
                    add_col(t, j, -(D[t][j] // D[t][t]))
                    if D[t][j]:
                        dirty = True
            if dirty:
                continue  # remainders became new, smaller pivot candidates
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if D[i][j] % D[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if t < rows and t < cols and D[t][t] < 0:
            negate_row(t)

    check = _matmul(_matmul(U, _int_rows(M)), V)
    if check != D:
        raise RuntimeError("Smith form self-check failed: U.M.V != D")
    return D, U, V


def random_matrix(rng, rows, cols):
    """Entries in -9..9, about half of them zero, with some zero rows and columns."""
    M = [
        [rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    if rng.random() < 0.2:
        M[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.2:
        j = rng.randrange(cols)
        for row in M:
            row[j] = 0
    return M


def primitive_matrix(rng, n):
    """A relabelled n-cycle with a loop and one random edge per row."""
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        A[i][(i + 1) % n] = 1
        A[i][rng.randrange(n)] = 1
    A[0][0] = 1
    perm = list(range(n))
    rng.shuffle(perm)
    return [[A[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def test_random_matrices_match_reference():
    rng = random.Random(20260501)
    cases = [[[]], [[0]], [[0, 0], [0, 0]], [[5]], [[-3]], [[2, 4, 6]]]
    for _ in range(700):
        cases.append(random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12)))
    for M in cases:
        assert smith_normal_form(M) == reference_snf(M), M


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20, 30, 45, 60])
def test_cuntz_krieger_matrices_match_reference(n):
    rng = random.Random(n)
    for _ in range(3 if n <= 20 else 1):
        A = primitive_matrix(rng, n)
        M = [[int(i == j) - A[j][i] for j in range(n)] for i in range(n)]
        assert smith_normal_form(M) == reference_snf(M)


def test_self_check_still_catches_a_wrong_factorization(monkeypatch):
    # U and V start at 2.I, so U.M.V is 4.D, not D.
    monkeypatch.setattr(
        ktheory, "_identity", lambda n: [[2 * (i == j) for j in range(n)] for i in range(n)]
    )
    with pytest.raises(RuntimeError, match="self-check"):
        smith_normal_form([[2, 1], [1, 3]])
    with pytest.raises(RuntimeError, match="self-check"):
        smith_normal_form([[1, -1, 0], [0, 1, -1]])
