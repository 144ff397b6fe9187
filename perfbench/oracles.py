"""Independent reference computations used to generate and check inputs.

Nothing here imports the package: matrices are lists of 0/1 rows, words
are tuples of 1-based symbols, and functions are plain dicts from words
of one fixed depth to integers.  The checks in the workloads compare the
package's answers against these direct computations.
"""

from math import gcd

GOLDEN = [[1, 1], [1, 0]]
FULL2 = [[1, 1], [1, 1]]
ZERO_DIAG3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
BASES = {"golden": GOLDEN, "full2": FULL2, "zd3": ZERO_DIAG3}


class CheckFailed(Exception):
    """An operation's result violates the property its check asserts."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def followers(entries, i):
    return [j + 1 for j, v in enumerate(entries[i - 1]) if v]


def words(entries, m):
    """Admissible words of length m in lexicographic order."""
    if m == 0:
        return [()]
    out = [(i,) for i in range(1, len(entries) + 1)]
    for _ in range(m - 1):
        out = [w + (j,) for w in out for j in followers(entries, w[-1])]
    return out


def admissible(entries, word):
    return all(entries[a - 1][b - 1] for a, b in zip(word, word[1:]))


def has_cycle(entries, allowed):
    """True iff the graph restricted to the symbols `allowed` has a cycle."""
    allowed = sorted(allowed)
    state = dict.fromkeys(allowed, 0)  # 0 new, 1 on stack, 2 done
    for start in allowed:
        if state[start]:
            continue
        stack = [(start, iter(followers(entries, start)))]
        state[start] = 1
        while stack:
            node, it = stack[-1]
            for j in it:
                if j not in state:
                    continue
                if state[j] == 1:
                    return True
                if state[j] == 0:
                    state[j] = 1
                    stack.append((j, iter(followers(entries, j))))
                    break
            else:
                state[node] = 2
                stack.pop()
    return False


def is_saturated(entries, H):
    return not has_cycle(entries, set(range(1, len(entries) + 1)) - set(H))


def _levels(entries):
    level = {1: 0}
    queue = [1]
    for u in queue:
        for v in followers(entries, u):
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def period(entries):
    """Period of an irreducible matrix: gcd of level(u) + 1 - level(v) over edges."""
    level = _levels(entries)
    transposed = [list(col) for col in zip(*entries)]
    if len(level) != len(entries) or len(_levels(transposed)) != len(entries):
        raise ValueError("matrix is not irreducible")
    p = 0
    for u in level:
        for v in followers(entries, u):
            p = gcd(p, level[u] + 1 - level[v])
    return p


def closed_walks(entries, max_len):
    """Words c with c followed by c admissible (periodic points), length <= max_len."""
    out = []
    for m in range(1, max_len + 1):
        out.extend(w for w in words(entries, m) if entries[w[-1] - 1][w[0] - 1])
    return out


def periodic_sum(table, depth, cycle):
    p = len(cycle)
    return sum(
        table[tuple(cycle[(i + j) % p] for j in range(depth))] for i in range(p)
    )


def ergodic_sum(table, depth, word, n):
    return sum(table[tuple(word[i : i + depth])] for i in range(n))


def point_prefix(pre, per, count):
    """The first `count` symbols of the point pre . per . per ..."""
    out = list(pre[:count])
    while len(out) < count:
        out.extend(per)
    return tuple(out[:count])


def coboundary_table(entries, b, db):
    """g = b(sigma .) - b as a depth-(db + 1) table."""
    return {w: b[w[1:]] - b[w[:db]] for w in words(entries, db + 1)}


def random_table(rng, entries, depth, lo, hi):
    return {w: rng.randint(lo, hi) for w in words(entries, depth)}


def deep_table(rng, entries, depth, lo, hi):
    """A random table that reads all `depth` coordinates (no shallower normal form)."""
    while True:
        table = random_table(rng, entries, depth, lo, hi)
        heads = {}
        for w, v in table.items():
            heads.setdefault(w[:-1], set()).add(v)
        if any(len(vs) > 1 for vs in heads.values()):
            return table


def general_table(rng, entries, depth, lo, hi, max_period=4):
    """A table neither constant nor 0/1-valued, with g and g - 1 not coboundaries.

    Both obstructions are shown by periodic orbits of length <= max_period
    with nonzero sums, so the expected class is certain.
    """
    cycles = closed_walks(entries, max_period)
    while True:
        table = random_table(rng, entries, depth, lo, hi)
        values = set(table.values())
        if len(values) < 2 or values <= {0, 1}:
            continue
        if any(periodic_sum(table, depth, c) for c in cycles) and any(
            periodic_sum(table, depth, c) != len(c) for c in cycles
        ):
            return table


def fixed_generator(entries, table, depth, mu, nu):
    """Whether S_mu S_nu* is gauge-fixed, by evaluating both cocycle legs.

    The pair is fixed iff f^|mu|(mu.t) = f^|nu|(nu.t) for every tail t
    that can follow both words; tails of length `depth` determine both sums.
    """
    for t in words(entries, depth):
        if entries[mu[-1] - 1][t[0] - 1] and entries[nu[-1] - 1][t[0] - 1]:
            if ergodic_sum(table, depth, mu + t, len(mu)) != ergodic_sum(
                table, depth, nu + t, len(nu)
            ):
                return False
    return True


def determinant(rows):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    M = [list(r) for r in rows]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


def relabel(entries, perm):
    """The matrix with symbol i renamed perm[i] (0-based permutation)."""
    n = len(entries)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = entries[i][j]
    return out


def ring_with_chord(n, c):
    """An n-cycle 0 -> 1 -> ... -> 0 plus the chord 0 -> c; period gcd(n, c - 1)."""
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        entries[i][(i + 1) % n] = 1
    entries[0][c] = 1
    return entries


def dag_complement(m):
    """Symbol 1 reaches everything; 2..m+1 form a complete DAG that returns to 1.

    With H = {1} the first-passage family has exactly 2**m words, every
    word ends in 1, and 1 may precede every symbol, so the inclusion matrix
    is all ones.  Words of H-weight exactly 1 number 4**m.
    """
    N = m + 1
    entries = [[0] * N for _ in range(N)]
    entries[0] = [1] * N
    for i in range(1, N):
        entries[i][0] = 1
        for j in range(i + 1, N):
            entries[i][j] = 1
    return entries
