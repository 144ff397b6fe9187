"""Integer linear algebra invariants: Smith form, K-groups, dimension data.

Matrices are read through the package's integer gate and handled as
Python integers, so pivots can grow without overflow, and the Smith
normal form recomputes U.M.V = D after every run as a self-check.  The
K-groups of the Cuntz-Krieger algebra of a transition matrix come out
of the Smith form of I - B^T (cokernel and kernel), where B is the
small core the transition graph reduces to by two moves that keep both
groups: amalgamating states with identical rows, and bypassing a
loop-free state with one follower or one predecessor.  Dimension
vectors of a stationary inclusion matrix are iterated exactly, one
term per class of equal rows, with a deliberately narrow UHF
detection.  Two quantities are floats, both for reports
only: the Perron value, as the spectral radius, and the rounded growth
ratios of :func:`dimension_report`.  Everything else is exact.
"""

from collections import deque
from operator import mul

from .sft import (
    TransitionMatrix,
    _graph,
    _integer,
    _int_rows,
    _rows_graph,
    _strong_levels,
)

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


def _core(succ):
    """Reduce a weighted graph, in place, keeping coker and ker of I - A^T.

    ``succ`` maps each vertex to a dict {follower: weight} of positive
    Python ints; the reduced graph is returned.  Two moves repeat until
    neither applies, amalgamation taking precedence:

    - *amalgamate* a vertex whose weighted row equals another's: drop its
      row and add its column into the other's.  With A = DE (D sends a
      vertex to its class, E lists the distinct rows) this replaces A by
      ED, an elementary strong shift equivalence (Williams 1973).
    - *bypass* a loop-free vertex v with one follower or one predecessor:
      add the weight of every path u -> v -> w to u -> w.  Its diagonal
      entry of I - A^T is the unit 1, and this is the Schur complement
      at it (Bowen-Franks 1977); the edge count does not grow.

    The predecessor sets make each move touch only the removed vertex's
    neighbours, and those are the only vertices looked at again.
    """
    pred = {v: set() for v in succ}
    for u, row in succ.items():
        for v in row:
            pred[v].add(u)
    rows_todo, bypass_todo = deque(succ), deque(succ)
    rep = {}  # row -> a vertex that had it; checked before use, as rows change

    def remove(v):
        # Unlink v; its predecessors (itself excluded) are touched and
        # so queued again, as are its followers, which lose a predecessor.
        row, before = succ.pop(v), pred.pop(v)
        before.discard(v)
        for w in row:
            if w != v:
                pred[w].discard(v)
        rows_todo.extend(before)
        bypass_todo.extend(before)
        bypass_todo.extend(row)
        return row, before

    while rows_todo or bypass_todo:
        if rows_todo:
            x = rows_todo.popleft()
            if x not in succ:
                continue
            key = frozenset(succ[x].items())
            y = rep.get(key)
            if y is None or y == x or succ.get(y) != succ[x]:
                rep[key] = x
                continue
            _, before = remove(x)
            for p in before:
                row = succ[p]
                row[y] = row.get(y, 0) + row.pop(x)
                pred[y].add(p)
            continue
        v = bypass_todo.popleft()
        if v not in succ or v in succ[v] or (len(succ[v]) != 1 and len(pred[v]) != 1):
            continue
        after, before = remove(v)
        for u in before:
            row = succ[u]
            a = row.pop(v)
            for w, b in after.items():
                row[w] = row.get(w, 0) + a * b
                pred[w].add(u)
    return succ


def ck_k_groups(A):
    """K-groups of the Cuntz-Krieger algebra of a transition matrix.

    K0 is the cokernel of I - A^T acting on Z^n, reported as free rank
    plus the nontrivial torsion divisors; K1 is the kernel, which is
    free of the same rank as the cokernel's free part.  Both are read
    from the Smith form of I - B^T, where B is the reduced core of the
    transition graph (see :func:`_core`), since the reduction keeps
    both groups.
    """
    core = _core({s: dict.fromkeys(A.followers(s), 1) for s in range(1, A.n + 1)})
    index = {v: i for i, v in enumerate(core)}
    n = len(index)
    M = _identity(n)
    for u, row in core.items():  # B(u, v) sits at (v, u) of B^T
        for v, w in row.items():
            M[index[v]][index[u]] -= w
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
    Anything subtler is left inconclusive on purpose.  Equal rows are
    grouped first, so a level is the sum over the classes of each
    distinct row times the previous vector's total on its class.
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
    classes = {}
    for i, row in enumerate(rows):
        classes.setdefault(tuple(row), []).append(i)
    if any(min(row) < 0 for row in classes):
        raise ValueError("inclusion matrices are nonnegative")
    members = list(classes.values())
    cols = list(zip(*classes))  # the columns of the distinct rows
    vectors = [[1] * size]
    for _ in range(levels - 1):
        at = vectors[-1].__getitem__
        weights = [sum(map(at, m)) for m in members]
        vectors.append([sum(map(mul, col, weights)) for col in cols])
    totals = [sum(v) for v in vectors]
    ratios = [
        round(b / a, 12) for a, b in zip(totals, totals[1:]) if a
    ]
    uhf_factor = None
    if len(classes) == 1:
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
    import numpy as np
    if isinstance(M, TransitionMatrix):
        graph, rows = _graph(M), M.tolist()
    else:
        rows = _int_rows(M)
        graph = _rows_graph(rows)
    too_large = "matrix entries are too large for a float eigenvalue"
    try:
        arr = np.array(rows, dtype=float)
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
