"""Integer linear algebra invariants: Smith form, K-groups, dimension data.

Matrices are read through the package's integer gate and handled as
Python integers, so pivots can grow without overflow, and the Smith
normal form recomputes U.M.V = D after every run as a self-check.  The
K-groups of the Cuntz-Krieger algebra of a transition matrix come out
of the Smith form of I - A^T (cokernel and kernel); dimension vectors of
a stationary inclusion matrix are iterated exactly, with a deliberately
narrow UHF detection.  Two quantities are floats, both for reports
only: the Perron value, as the spectral radius, and the rounded growth
ratios of :func:`dimension_report`.  Everything else is exact.
"""

from operator import mul

import numpy as np

from .sft import TransitionMatrix, _graph, _integer, _int_rows, _strong_levels

__all__ = [
    "smith_normal_form",
    "ck_k_groups",
    "dimension_report",
    "perron_value",
]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(X, Y):
    # Row i of X.Y is the sum of the rows of Y weighted by the nonzero
    # entries of row i of X, so zeros of X cost one test each.
    cols = len(Y[0]) if Y else 0
    out = []
    for xrow in X:
        acc = [0] * cols
        for x, yrow in zip(xrow, Y):
            if x:
                acc = [a + x * y for a, y in zip(acc, yrow)]
        out.append(acc)
    return out


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
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for mat in (D, V):
            for row in mat:
                if row[src]:
                    row[dst] += q * row[src]

    def negate_row(i):
        D[i] = [-v for v in D[i]]
        U[i] = [-v for v in U[i]]

    for t in range(min(rows, cols)):
        while True:
            # The first entry of least absolute value in row-major order;
            # no nonzero entry is smaller than a unit, so the scan stops
            # at the first one.
            pivot, least = None, None
            for i in range(t, rows):
                row = D[i]
                for j in range(t, cols):
                    v = row[j]
                    if v and (least is None or abs(v) < least):
                        pivot, least = (i, j), abs(v)
                        if least == 1:
                            break
                if least == 1:
                    break
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
            if least == 1:
                break  # a unit divides every entry
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

    check = _matmul(U, _matmul(_int_rows(M), V))
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


def perron_value(M):
    """Dominant eigenvalue of an irreducible nonnegative integer matrix.

    Takes a :class:`TransitionMatrix` or any square integer matrix, read
    through the integer gate.  The value is the spectral radius, which
    for an irreducible nonnegative matrix is the Perron value whatever
    its period.  Reducible input is refused with guidance, since the
    dominant eigenvalue then belongs to a proper component.

    Examples
    --------
    >>> round(perron_value([[1, 1], [1, 0]]), 12)
    1.61803398875
    >>> round(perron_value([[0, 1, 0], [1, 0, 1], [0, 1, 1]]), 12)
    1.801937735805
    """
    graph = _graph(M)
    if isinstance(M, TransitionMatrix):
        M = M.entries
    too_large = "matrix entries are too large for a float eigenvalue"
    try:
        arr = np.asarray(M, dtype=float)
    except OverflowError:
        raise ValueError(too_large) from None
    if (arr < 0).any():
        raise ValueError("need a nonnegative matrix")
    if _strong_levels(*graph) is None:
        raise ValueError(
            "matrix is reducible; restrict to an irreducible component first"
        )
    value = float(np.abs(np.linalg.eigvals(arr)).max())
    if not np.isfinite(value):
        raise ValueError(too_large)
    return value
