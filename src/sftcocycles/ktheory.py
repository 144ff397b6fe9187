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
detection.  Two quantities are floats, both for reports only: the
Perron value and the rounded growth ratios of :func:`dimension_report`.
The Perron value comes from Noda iteration on the weighted transition
graph, one sparse elimination per step, and is certified like the Smith
form: the Collatz-Wielandt bracket of its final vector is recomputed in
fractions, and the float returned must lie in it.  Everything else is
exact.
"""

from collections import deque
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import ceil, floor, inf, nextafter, ulp
from operator import mul

from .sft import (
    TransitionMatrix,
    _graph,
    _int_rows,
    _length,
    _require,
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


def _core(succ, bypass=True):
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
    neighbours, and those are the only vertices looked at again.  With
    ``bypass`` false only amalgamation runs; A and ED share their nonzero
    eigenvalues, so that reduction keeps the Perron value too.
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
        if not bypass:
            break
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
    _require(A, TransitionMatrix, "A")
    core = _core({s: dict.fromkeys(fol, 1) for s, fol in enumerate(A._followers, 1)})
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
    levels = _length(levels, "levels", 1)
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
    """Perron value of an irreducible nonnegative integer matrix, certified.

    Takes a :class:`TransitionMatrix` or any square integer matrix, read
    through the integer gate, whose nonzero entries are the edges of a
    weighted graph.  Reducible input is refused with guidance, since
    the dominant eigenvalue then belongs to a proper component; an
    irreducible matrix of any period has its Perron value as the
    spectral radius.

    *Method.*  States with equal weighted rows are amalgamated first
    (:func:`_core` without its bypass move), which keeps the Perron value;
    a higher-block recoding goes back to its base graph.  A below is that
    reduced matrix.  Then Noda iteration (Noda 1971; quadratic
    convergence, Elsner 1976) in Python floats: from x = 1, take
    s = max (Ax)_i / x_i, solve (sI - A) y = x by :func:`_solve` and set
    x = y / max(y), until the Collatz-Wielandt bracket [min, max] of
    (Ax)_i / x_i is a few ulps wide or stops narrowing.

    *Certificate.*  min (Ax)_i / x_i <= rho <= max (Ax)_i / x_i for every
    positive x, so the bracket of the final vector is recomputed exactly
    in rationals, and the value returned lies inside it; when the bracket
    is narrower than the float spacing and holds no float, the value is
    one of the two floats enclosing it.  A value outside that hull raises
    ``RuntimeError``, as the Smith form's self-check does.

    *Rounding.*  Every half-way point of ``round(., d)`` for d <= 12 is a
    multiple of 1/(2 * 10^12).  A bracket of one point is rho itself,
    returned as its nearest float.  Where such a multiple r lies inside a
    wider bracket, (rI - A) y = 1 is solved exactly in ``Fraction``s by the
    same routine: y > 0 iff rho < r, and a last pivot 0 iff rho = r, an
    integer, returned exactly.  Else the value is put strictly on rho's
    side of every multiple, so ``round(value, d)`` is rho's correct
    rounding for every d <= 12 wherever rho's interval between two
    multiples holds a float, as it does for every value below 4096.

    *Cost.*  One elimination order (:func:`_pivots`), then one sparse
    elimination per step, about ten at most: a vertex with one follower
    or one predecessor costs no fill, so a 3,000-state tower takes a
    fraction of a second.  A dense n x n input costs O(n^3) dictionary
    arithmetic per step, about 0.1 s in all at n = 80.  The exact solves
    run only when the bracket is wider than one point and holds a multiple
    of 1/(2 * 10^12).

    Examples
    --------
    >>> round(perron_value([[1, 1], [1, 0]]), 12)
    1.61803398875
    >>> round(perron_value([[0, 1, 0], [1, 0, 1], [0, 1, 1]]), 12)
    1.801937735805
    """
    succ = _perron_graph(M)
    x = _noda(succ)
    if x is None:
        raise ValueError(_TOO_LARGE)
    lo, hi = _bracket(succ, x)
    value = _rounded(succ, lo, hi)
    below, above = nextafter(value, -inf), nextafter(value, inf)
    if not ((lo <= value or above > lo) and (value <= hi or below < hi)):
        raise RuntimeError("Perron value self-check failed: %r outside [%s, %s]" % (value, lo, hi))
    return value


_TOO_LARGE = "matrix entries are too large for a float eigenvalue"


def _perron_graph(M):
    """The weighted graph of M, checked, with its states of equal rows amalgamated.

    Returned as a list of rows {j: A(i, j)} over states 0..m-1.  A
    higher-block recoding amalgamates back to its base graph.
    """
    if isinstance(M, TransitionMatrix):
        graph = _graph(M)
        succ = [dict.fromkeys([j - 1 for j in fol], 1) for fol in M._followers]
    else:
        rows = _int_rows(M)
        graph = _rows_graph(rows)
        succ = [{j: row[j] for j in compress(range(graph[0]), row)} for row in rows]
    if min((a for row in succ for a in row.values()), default=0) < 0:
        raise ValueError("need a nonnegative matrix")
    if _strong_levels(*graph) is None:
        raise ValueError(
            "matrix is reducible; restrict to an irreducible component first"
        )
    core = _core(dict(enumerate(succ)), bypass=False)
    try:
        float(max((a for row in core.values() for a in row.values()), default=0))
    except OverflowError:
        raise ValueError(_TOO_LARGE) from None
    index = {v: i for i, v in enumerate(core)}
    return [{index[j]: a for j, a in row.items()} for row in core.values()]


def _noda(succ):
    """The Perron vector by Noda iteration in floats, or None on overflow.

    Stops when the Collatz-Wielandt bracket is at most four ulps wide,
    when it stops narrowing (the previous vector is kept), or when the
    shifted solve fails in floats, which happens only once s is within
    rounding of rho.
    """
    x, previous, width, pivots = [1.0] * len(succ), None, inf, None
    while True:
        ratios = [sum(a * x[j] for j, a in row.items()) / xi for row, xi in zip(succ, x)]
        lo, hi = min(ratios), max(ratios)
        if not hi < inf:
            return None
        if hi - lo >= width:
            return previous
        if hi - lo <= 4 * ulp(hi):
            return x
        width, previous = hi - lo, x
        pivots = pivots or _pivots(succ)
        y = _solve(succ, pivots, hi, x)
        if not y or not max(y) < inf:
            return x
        top = max(y)
        x = [v / top for v in y]
        if not min(x) > 0:
            return previous


def _bracket(succ, x):
    """The exact Collatz-Wielandt bracket of the float vector x, as Fractions.

    The floats share one power-of-two denominator, so x is read as
    integer mantissas, the ratios are compared by cross-multiplying, and
    only the two ends become fractions.
    """
    parts = [v.as_integer_ratio() for v in x]
    den = max(q for _, q in parts)
    X = [p * (den // q) for p, q in parts]
    lo = hi = None
    for row, xi in zip(succ, X):
        ax = sum(a * X[j] for j, a in row.items())
        if lo is None or ax * lo[1] < lo[0] * xi:
            lo = ax, xi
        if hi is None or ax * hi[1] > hi[0] * xi:
            hi = ax, xi
    return Fraction(*lo), Fraction(*hi)


_HALF = Fraction(1, 2 * 10**12)  # the half-way points of round(., d <= 12) are its multiples


def _rounded(succ, lo, hi):
    """A float for rho in [lo, hi], strictly on rho's side of every multiple of _HALF.

    A bracket of one point is rho itself, by Collatz-Wielandt.  Else the
    multiples in the bracket are decided exactly by bisection: rho < r iff
    (rI - A) y = 1 has a positive solution, rho = r iff it answers 0.
    """
    if lo == hi:
        return float(lo)
    a, b = ceil(lo / _HALF) - 1, floor(hi / _HALF)
    pivots = _pivots(succ) if a < b else None
    while a < b:
        m = (a + b + 1) // 2
        y = _solve(succ, pivots, m * _HALF, [1] * len(succ))
        if y == 0:
            return float(m * _HALF)
        if y is not None and min(y) > 0:
            b = m - 1
        else:
            a = m
    lo, hi = max(lo, a * _HALF), min(hi, (a + 1) * _HALF)
    value = float((lo + hi) / 2)  # the nearest float: inside whenever one is
    if lo < hi:
        q = Fraction(value) / _HALF
        if q <= a:
            value = nextafter(value, inf)
        elif q >= a + 1:
            value = nextafter(value, -inf)
    return value


def _pivots(succ):
    """The elimination schedule of sI - A, which does not depend on s.

    A list of (pivot, rows it updates), the pivots diagonal and in least
    Markowitz order (fewest fill entries first) on the pattern of the
    weighted graph ``succ``, so a vertex with one follower or one
    predecessor is bypassed without fill.
    """
    n = len(succ)
    rows = [set(row) | {i} for i, row in enumerate(succ)]
    cols = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)

    def cost(i):
        return (len(rows[i]) - 1) * (len(cols[i]) - 1)

    heap = [(cost(i), i) for i in range(n)]
    heapify(heap)
    order, done = [], [False] * n
    while heap:
        c, p = heappop(heap)
        if done[p]:
            continue
        if c != cost(p):
            heappush(heap, (cost(p), p))
            continue
        done[p] = True
        row, col = rows[p], cols[p]
        row.discard(p)
        col.discard(p)
        for j in row:
            cols[j].discard(p)
        for i in col:
            rows[i].discard(p)
            rows[i] |= row
            for j in row:
                cols[j].add(i)
        order.append((p, tuple(col)))
        for i in col | row:
            heappush(heap, (cost(i), i))
    return order


def _solve(succ, pivots, s, b):
    """Solve (sI - A) y = b by elimination: None if a pivot is not positive, 0 at s = rho.

    A is the weighted graph ``succ`` (row i maps j to A(i, j)), and the
    pivots come from :func:`_pivots`.  sI - A is a Z-matrix, and every
    pivot is positive exactly when it is a nonsingular M-matrix, that is
    when s > rho for an irreducible A; then y > 0 for every b > 0.  Only
    at s = rho is the last pivot 0 and every other positive.  The
    arithmetic is that of s and b, floats or ``Fraction``s alike.
    """
    rows = [{j: -a for j, a in row.items()} for row in succ]
    for i, row in enumerate(rows):
        row[i] = s + row.get(i, 0)
    b, diagonal = list(b), []
    for p, targets in pivots:
        row = rows[p]
        pivot = row.pop(p)
        if not pivot > 0:
            return 0 if pivot == 0 and len(diagonal) == len(pivots) - 1 else None
        diagonal.append(pivot)
        bp = b[p]
        for i in targets:
            ri = rows[i]
            f = ri.pop(p) / pivot
            for j, v in row.items():
                ri[j] = ri.get(j, 0) - f * v
            b[i] -= f * bp
    y = [0] * len(b)
    for (p, _), pivot in zip(reversed(pivots), reversed(diagonal)):
        y[p] = (b[p] - sum(v * y[j] for j, v in rows[p].items())) / pivot
    return y
