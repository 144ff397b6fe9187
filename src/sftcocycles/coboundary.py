"""Coboundary detection and potential solving.

An integer function g on the shift is a coboundary, g = b(sigma .) - b
for some locally constant b, exactly when its sums over all periodic
orbits vanish; for a depth-K function the periodic orbits are the
directed cycles of the K-block graph.  Each call builds that graph once
and never lists its cycles.  A potential propagated once over a spanning
forest gives each edge a defect, and a cycle's sum is the sum of its
defects.  A cycle stays inside one strong component, so the decision
gives each its own potential.  Either every defect inside is 0, and so
is every cycle sum, or min/max defect sums of the walks from the heads
of nonzero defects, in Python integers over the inside steps, find the
shortest cycle with a nonzero sum, the certified witness.  The solver
verifies every edge and the recomposed coboundary, so its answer is
certified too.  The classifier finds the three special shapes (positive
constants, symbol-set indicators, unit coboundaries) with that verified
potential and no witness search.  :func:`cycle_sums` is a small capped
report of every simple cycle; no decision relies on it.
"""

from .sft import _components, _excerpt, _graph, _integer, _tuple, higher_block
from .locfun import LocFun, _check_shift, coboundary_transform

__all__ = [
    "NotCoboundaryError",
    "PotentialClass",
    "cycle_sums",
    "shortest_nonzero_cycle",
    "solve_potential",
    "classify_potential",
]


class NotCoboundaryError(ValueError):
    """The function has a periodic orbit with nonzero sum.

    ``witness`` is the whole offending cycle, a tuple of block-graph
    vertices (admissible words); the message quotes an excerpt of it.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _block_weights(A, g):
    # Present g as a vertex weight on its depth-adapted block graph,
    # listed by block symbol: weights[a - 1] is g on the word labels[a - 1].
    _check_shift(A, g)
    block, labels = higher_block(A, g.depth)
    return block, labels, [g.table[w] for w in labels]


def cycle_sums(A, g, cycle_cap=10**6):
    """All simple cycles of the block graph of g, with their g-sums.

    Each cycle is returned as a tuple of block vertices (words), rotated
    to start at its least vertex, and paired with the sum of g over one
    traversal; the list is sorted by length, then lexicographically.
    The function is a coboundary iff every sum is zero.  This is a
    report for small graphs: a depth-first search from each vertex
    through larger vertices lists every cycle, and past ``cycle_cap``
    cycles it raises ``ValueError``.  Deciding the question needs only
    :func:`shortest_nonzero_cycle`.
    """
    cycle_cap = _integer(cycle_cap, "cycle_cap", 0)
    block, labels, weights = _block_weights(A, g)
    out = []
    for root in range(1, len(labels) + 1):
        path, on_path = [root], {root}
        stack = [iter(block._followers[root - 1])]
        while stack:
            for v in stack[-1]:
                if v == root:
                    if len(out) >= cycle_cap:
                        raise ValueError(
                            "more than %d simple cycles; raise cycle_cap to proceed"
                            % cycle_cap
                        )
                    cyc = tuple(labels[u - 1] for u in path)
                    out.append((cyc, sum(weights[u - 1] for u in path)))
                elif v > root and v not in on_path:
                    path.append(v)
                    on_path.add(v)
                    stack.append(iter(block._followers[v - 1]))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return out


def _forest_potential(block, weights, comp):
    """A potential over a spanning forest, and the heads of its misfits.

    beta, listed like the weights and their labels `comp`, is propagated
    from the least vertex of each weak component of the edges inside a
    label over a spanning tree (edges taken undirected).  An edge u -> v
    has the defect beta(u) + g(u) - beta(v), 0 on tree edges; a cycle's
    g-sum is the sum of its defects.  ``heads`` lists, ascending, the
    positions of the vertices that an inside edge of nonzero defect
    enters; none means beta fits (under strong components: every cycle
    sums to 0).
    """
    beta = [None] * len(weights)
    for root in range(1, len(weights) + 1):  # one spanning tree per weak component
        if beta[root - 1] is not None:
            continue
        beta[root - 1] = 0
        stack = [root]
        while stack:
            a = stack.pop()
            for v in block._followers[a - 1]:
                if beta[v - 1] is None and comp[v - 1] == comp[a - 1]:
                    beta[v - 1] = beta[a - 1] + weights[a - 1]
                    stack.append(v)
            for u in block._predecessors[a - 1]:
                if beta[u - 1] is None and comp[u - 1] == comp[a - 1]:
                    beta[u - 1] = beta[a - 1] - weights[u - 1]
                    stack.append(u)
    heads = [
        v - 1 for v in range(1, len(weights) + 1)
        if any(beta[u - 1] + weights[u - 1] != beta[v - 1] and comp[u - 1] == comp[v - 1]
               for u in block._predecessors[v - 1])
    ]
    return beta, heads


def _walks(start, steps, length):
    """Least and greatest defect sums of the walks from start, by level.

    ``steps[u]`` lists ``(v, d)`` for each step from u to v with defect d
    (out-edges walk forward, in-edges backward).  Yields the levels 0, 1,
    ..., ``length``: level i maps each vertex to the least and greatest
    sum of d over the walks of i steps to it; a missing vertex has none.
    """
    level = {start: (0, 0)}
    yield level
    for _ in range(length):
        out = {}
        for u, (lo, hi) in level.items():
            for v, d in steps[u]:
                seen = out.get(v)
                if seen is None:
                    out[v] = (lo + d, hi + d)
                elif lo + d < seen[0] or hi + d > seen[1]:
                    out[v] = (min(seen[0], lo + d), max(seen[1], hi + d))
        level = out
        yield level


def shortest_nonzero_cycle(A, g):
    """The shortest simple cycle of the block graph of g with nonzero g-sum.

    Returns ``(cycle, total)``, the cycle as a tuple of block vertices
    (words) rotated to start at its least vertex, or None when every
    cycle sum is zero, that is, when g is a coboundary on every
    periodic orbit.  Ties are broken as in :func:`cycle_sums`: the
    witness is its first entry with a nonzero sum.

    A cycle stays inside one strong component of the block graph, which
    gets its own forest potential; a cycle with a nonzero sum enters a
    head of a nonzero defect inside one, so no heads answers None in
    linear time.  A shortest closed walk with nonzero sum is a simple
    cycle, since at a repeated vertex it splits into two shorter closed
    walks, one with nonzero sum.  So min/max defect sums of the walks from
    each head over the inside steps, forward to the first length L with a
    nonzero closed walk and then L steps back, fix the witness length L
    and its least vertex s; the least cycle through s is then chosen edge
    by edge, keeping a nonzero completion reachable.  This takes
    O(H * L * E) integer steps for H heads and E edges, and O(L * V)
    memory on V vertices.

    Examples
    --------
    >>> from sftcocycles import TransitionMatrix
    >>> golden = TransitionMatrix([[1, 1], [1, 0]])
    >>> shortest_nonzero_cycle(golden, LocFun(golden, 1, {(1,): 0, (2,): 1}))
    (((1,), (2,)), 1)
    >>> shortest_nonzero_cycle(golden, LocFun.constant(golden, 0)) is None
    True
    """
    return _nonzero_cycle(A, *_block_weights(A, g))


def _nonzero_cycle(A, block, labels, w, found=None):
    # The defect walk of shortest_nonzero_cycle on a built block graph; an
    # irreducible A has one strong block component, whose potential is `found`.
    n = len(labels)
    comp = [0] * n if A.irreducible else _components(n, _graph(block)[1])
    beta, heads = found if found and A.irreducible else _forest_potential(block, w, comp)
    if not heads:
        return None
    inside = [[v - 1 for v in block._followers[u] if comp[v - 1] == comp[u]] for u in range(n)]
    follow = [[(v, beta[u] + w[u] - beta[v]) for v in vs] for u, vs in enumerate(inside)]
    precede = [[] for _ in range(n)]
    for u, steps in enumerate(follow):
        for v, d in steps:
            precede[v].append((u, d))
    best = None
    for b in heads:
        walks = _walks(b, follow, best[0] if best else n)
        length = next((i for i, level in enumerate(walks) if level.get(b, (0, 0)) != (0, 0)), None)
        if length is None:
            continue
        # The least v on a closed walk b -> v -> b of this length with a
        # nonzero sum: all are 0 only when both ranges are one value that cancels.
        back = list(_walks(b, precede, length))
        s = min(
            v for i, level in enumerate(_walks(b, follow, length)) for v, (lo, hi) in level.items()
            if v in back[length - i] and not (lo == hi and back[length - i][v] == (-lo, -lo))
        )
        best = min(best or (length, s), (length, s))
    del back  # the last hit's levels, before those of the walk from s
    length, s = best
    cycle, total = [s], 0
    for back in reversed(list(_walks(s, precede, length - 1))[1:]):
        # The least successor from which some walk of the remaining
        # length closes the cycle at s with a nonzero total.
        v, d = next(
            (v, d) for v, d in follow[cycle[-1]]
            if v in back and back[v] != (-total - d, -total - d)
        )
        cycle.append(v)
        total += d
    return tuple(labels[v] for v in cycle), sum(w[v] for v in cycle)


def _potential(A, g):
    # (b, None) with b the verified potential of g, or (None, _nonzero_cycle's arguments).
    block, labels, weights = _block_weights(A, g)
    beta, heads = _forest_potential(block, weights, [0] * len(weights))
    if heads:
        return None, (A, block, labels, weights, (beta, heads))
    b = LocFun._from_table(A, g.depth, dict(zip(labels, beta)))
    if coboundary_transform(b) - 1 != g:
        raise RuntimeError("potential self-check failed: b(sigma .) - b != g")
    return b, None


def solve_potential(A, g):
    """Solve g = b(sigma .) - b for a locally constant potential b.

    The potential is built on the block-graph vertices by spanning-tree
    propagation from the least vertex (treating edges undirected, so
    reducible matrices are covered too), then every edge is verified and
    the recomposed coboundary is compared against g.  The result is
    base-normalized: the lexicographically least word maps to 0.

    Raises
    ------
    NotCoboundaryError
        If some cycle has a nonzero sum (the shortest such cycle, from
        :func:`shortest_nonzero_cycle`, is attached as the witness), or
        if no locally constant potential exists.
    RuntimeError
        If the recomposed coboundary differs from g (a solver fault).
    """
    b, graph = _potential(A, g)
    if b is not None:
        return b
    found = _nonzero_cycle(*graph)
    if found is None:
        raise NotCoboundaryError("no locally constant potential exists")
    cyc, total = found
    raise NotCoboundaryError("cycle %s has sum %d != 0" % (_excerpt(list(cyc)), total), witness=cyc)


class PotentialClass:
    """Shape classification of a potential.

    ``kinds`` lists every detected shape in detection order (positive
    constant, symbol-set indicator, unit coboundary); ``kind`` is the
    first of them, or "general".  The shapes are mutually exclusive
    except at the constant function 1, which is all three at once; the
    ``note`` field spells the degeneracy out when it happens.
    """

    __slots__ = ("kind", "kinds", "constant", "chi_H", "coboundary_b", "note")

    def __init__(self, kind, kinds, constant, chi_H, coboundary_b, note):
        self.kind = kind
        self.kinds = _tuple(kinds, "kinds")
        self.constant = constant
        self.chi_H = chi_H
        self.coboundary_b = coboundary_b
        self.note = note

    def as_dict(self):
        return {
            "kind": self.kind,
            "kinds": list(self.kinds),
            "constant": self.constant,
            "chi_H": sorted(self.chi_H) if self.chi_H is not None else None,
            "coboundary_b": (
                self.coboundary_b.as_dict() if self.coboundary_b is not None else None
            ),
            "note": self.note,
        }

    def __repr__(self):
        return "PotentialClass(kind=%r, kinds=%r)" % (self.kind, self.kinds)


def classify_potential(A, f):
    """Detect which of the three special shapes the potential f has.

    Checks, in order: positive constant (the suspension shape), depth-1
    indicator of a symbol set, and unit coboundary 1 - b + b(sigma .)
    (a verified potential b of f - 1, no witness).  All detected shapes
    are reported; the overlaps are degenerate and flagged in ``note``.
    """
    _check_shift(A, f)
    kinds = []
    constant = f.table[min(f.table)] if f.is_constant() else None
    if constant is not None and constant >= 1:
        kinds.append("constant")
    chi_H = None
    if f.depth == 1 and set(f.table.values()) <= {0, 1}:
        chi_H = frozenset(i for (i,), v in f.table.items() if v == 1)
        kinds.append("chi_H")
    coboundary_b = _potential(A, f - 1)[0]
    if coboundary_b is not None:
        kinds.append("coboundary_1b")
    note = None
    if len(kinds) > 1:
        if constant == 1:
            note = (
                "the constant function 1 is at once a positive constant, "
                "the indicator of the full alphabet, and the unit coboundary "
                "of a constant potential"
            )
        else:
            note = "degenerate overlap of potential shapes: %s" % ", ".join(kinds)
    kind = kinds[0] if kinds else "general"
    return PotentialClass(kind, kinds, constant, chi_H, coboundary_b, note)
