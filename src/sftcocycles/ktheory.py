"""Integer linear algebra invariants: Smith form, K-groups, dimension data.

Everything here is exact: matrices are handled as Python integers, so
pivots can grow without overflow, and the Smith normal form recomputes
U.M.V = D after every run as a self-check.  The K-groups of the
Cuntz-Krieger algebra of a transition matrix come out of the Smith form
of I - A^T (cokernel and kernel); dimension vectors of a stationary
inclusion matrix are iterated exactly, with a deliberately narrow UHF
detection; the Perron value is the one floating-point quantity, used
only for reports.
"""

import numpy as np

from .sft import is_irreducible

__all__ = [
    "smith_normal_form",
    "ck_k_groups",
    "dimension_report",
    "perron_value",
]


def _int_rows(M):
    rows = [[int(v) for v in row] for row in np.asarray(M, dtype=object).tolist()]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(X, Y):
    rows, inner, cols = len(X), len(Y), len(Y[0]) if Y else 0
    return [
        [sum(X[i][k] * Y[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def smith_normal_form(M):
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


def ck_k_groups(A):
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


def dimension_report(M, levels):
    """Dimension growth data of a stationary inclusion matrix.

    Starting from the all-ones vector, each level multiplies by the
    transposed matrix; the report carries the vectors, the squared-sum
    dimension proxy per level, the linear growth ratios, and a UHF
    detection that fires only when all rows of the matrix are identical
    (then the supernatural growth factor is the common row sum).
    Anything subtler is left inconclusive on purpose.
    """
    rows = _int_rows(M)
    if levels < 1:
        raise ValueError("need at least one level")
    if any(v < 0 for row in rows for v in row):
        raise ValueError("inclusion matrices are nonnegative")
    size = len(rows)
    vectors = [[1] * size]
    for _ in range(levels - 1):
        prev = vectors[-1]
        vectors.append(
            [sum(rows[r][c] * prev[r] for r in range(size)) for c in range(size)]
        )
    totals = [sum(v) for v in vectors]
    ratios = [
        round(b / a, 12) for a, b in zip(totals, totals[1:]) if a
    ]
    uhf_factor = None
    if size and all(row == rows[0] for row in rows[1:]):
        uhf_factor = sum(rows[0])
    return {
        "vectors": vectors,
        "dimension_proxy": [sum(x * x for x in v) for v in vectors],
        "ratios": ratios,
        "uhf_factor": uhf_factor,
    }


def perron_value(M, tol=1e-10, max_iter=10**5):
    """Dominant eigenvalue of an irreducible nonnegative matrix.

    Power iteration with relative tolerance; irreducible periodic
    matrices (where plain iteration oscillates) are handled by iterating
    on M + I, which is primitive and shifts the Perron value by exactly
    one.  Reducible input is refused with guidance, since the dominant
    eigenvalue then belongs to a proper component.
    """
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("need a square matrix")
    if (arr < 0).any():
        raise ValueError("need a nonnegative matrix")
    if not is_irreducible(arr):
        raise ValueError(
            "matrix is reducible; restrict to an irreducible component first"
        )

    def iterate(mat, shift):
        v = np.ones(mat.shape[0])
        value = 0.0
        for _ in range(max_iter):
            w = mat @ v
            new = float(w.max())
            w = w / new
            if abs(new - value) <= tol * max(1.0, abs(new)):
                return new - shift
            value, v = new, w
        return None

    result = iterate(arr, 0.0)
    if result is None:
        result = iterate(arr + np.eye(arr.shape[0]), 1.0)
    if result is None:
        raise ValueError("power iteration did not converge")
    return result
