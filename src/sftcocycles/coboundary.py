"""Coboundary detection and potential solving.

An integer function g on the shift is a coboundary, g = b(sigma .) - b
for some locally constant b, exactly when its sums over all periodic
orbits vanish; for a depth-K function the periodic orbits are the
directed cycles of the K-block graph.  Each call builds that graph once
and never lists its cycles.  A potential propagated over a spanning
forest either fits every edge, and then every cycle sum is zero, or it
does not, and then a min/max walk-sum recursion over lengths 1, 2, ...
on the same graph finds the shortest cycle with a nonzero sum, the
certified witness.  The solver verifies every edge and the recomposed
coboundary, so its answer is certified too.  The classifier finds the
three special shapes (positive constants, symbol-set indicators, unit
coboundaries) with that verified potential and no witness search.
:func:`cycle_sums` is a small capped report of every simple cycle; no
decision relies on it.
"""

import numpy as np

from .sft import _integer, higher_block
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

    ``witness`` is the offending cycle, as a tuple of block-graph
    vertices (each vertex an admissible word).
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
        stack = [iter(block.followers(root))]
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
                    stack.append(iter(block.followers(v)))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return out


def _forest_potential(block, weights):
    """A potential with beta(v) - beta(u) = g(u) on every edge u -> v, or None.

    The potential, listed like the weights, is propagated from the least
    vertex of each weak component over a spanning tree (edges taken
    undirected, so reducible matrices are covered too); None means some
    edge contradicts it.
    """
    beta = [None] * len(weights)
    for root in range(1, len(weights) + 1):  # one spanning tree per weak component
        if beta[root - 1] is not None:
            continue
        beta[root - 1] = 0
        stack = [root]
        while stack:
            a = stack.pop()
            for v in block.followers(a):
                if beta[v - 1] is None:
                    beta[v - 1] = beta[a - 1] + weights[a - 1]
                    stack.append(v)
            for u in block.predecessors(a):
                if beta[u - 1] is None:
                    beta[u - 1] = beta[a - 1] - weights[u - 1]
                    stack.append(u)
    for a in range(1, len(weights) + 1):
        for v in block.followers(a):
            if beta[v - 1] - beta[a - 1] != weights[a - 1]:
                return None
    return beta


def _return_sums(succ, w, targets, bound):
    """Min and max g-sums of the walks that end at each target, by length.

    Yields, for the lengths 1, 2, ..., a pair of arrays whose entry
    (i, v) is the least and the greatest sum of ``w`` over the vertices
    of a walk of that length from v to ``targets[i]``, the final vertex
    not counted.  Row v of ``succ`` lists the successors of v, padded to
    a common width by repeating one of them.  ``bound`` is the number of
    vertices V times the largest ``abs(w)``, so it bounds the sum of
    every walk of length at most V.  A missing walk starts at
    ``2 * bound + 1`` and moves by at most ``max(abs(w))`` per step, so
    up to length V an entry beyond ``bound`` means no walk of that
    length exists.  The arithmetic is exact: int64 while every value,
    at most ``4 * bound + 1`` in absolute value, fits, and Python
    integers otherwise.
    """
    dtype = np.int64 if 4 * bound + 1 < 2**63 else object
    w = np.array(w, dtype=dtype)

    def step(sums, pick):
        out = sums.take(succ[:, 0], axis=1)
        for col in succ[:, 1:].T:
            pick(out, sums.take(col, axis=1), out=out)
        out += w
        return out

    lo = np.full((len(targets), len(w)), 2 * bound + 1, dtype=dtype)
    lo[np.arange(len(targets)), targets] = 0
    hi = -lo
    while True:
        lo, hi = step(lo, np.minimum), step(hi, np.maximum)
        yield lo, hi


def shortest_nonzero_cycle(A, g):
    """The shortest simple cycle of the block graph of g with nonzero g-sum.

    Returns ``(cycle, total)``, the cycle as a tuple of block vertices
    (words) rotated to start at its least vertex, or None when every
    cycle sum is zero, that is, when g is a coboundary on every
    periodic orbit.  Ties are broken as in :func:`cycle_sums`: the
    witness is its first entry with a nonzero sum.

    A shortest closed walk with nonzero sum is a simple cycle: at a
    repeated vertex it would split into two shorter closed walks, one
    of them with nonzero sum.  So the min and max sums of the closed
    walks through each vertex, for the lengths L = 1, 2, ..., fix the
    witness length L and its least vertex s at the first (L, s) where
    they are not both 0, and the least cycle through s is then chosen
    edge by edge, keeping a nonzero completion reachable.  This takes
    O(V * L * E) exact integer steps on V vertices and E edges, and
    O(V * V) memory.  A potential that fits every edge answers None in
    linear time first.

    Examples
    --------
    >>> from sftcocycles import TransitionMatrix
    >>> golden = TransitionMatrix([[1, 1], [1, 0]])
    >>> shortest_nonzero_cycle(golden, LocFun(golden, 1, {(1,): 0, (2,): 1}))
    (((1,), (2,)), 1)
    >>> shortest_nonzero_cycle(golden, LocFun.constant(golden, 0)) is None
    True
    """
    block, labels, weights = _block_weights(A, g)
    if _forest_potential(block, weights) is not None:
        return None
    return _nonzero_cycle(block, labels, weights)


def _nonzero_cycle(block, labels, w):
    # The walk-sum search of shortest_nonzero_cycle on a built block graph.
    n = len(labels)
    follow = [[b - 1 for b in block.followers(a)] for a in range(1, n + 1)]
    width = max(map(len, follow))
    succ = np.array([vs + vs[:1] * (width - len(vs)) for vs in follow])
    bound = n * max(map(abs, w))
    for length, (lo, hi) in zip(range(1, n + 1), _return_sums(succ, w, np.arange(n), bound)):
        closed_lo, closed_hi = lo.diagonal(), hi.diagonal()
        hits = np.flatnonzero((closed_lo <= bound) & ((closed_lo != 0) | (closed_hi != 0)))
        if hits.size:
            s = int(hits[0])
            break
    else:
        # Every simple cycle sums to 0; only edges outside all cycles
        # contradict the potential (a reducible matrix).
        return None
    sums = _return_sums(succ, w, [s], bound)
    tails = [next(sums) for _ in range(length - 1)]
    cycle, total = [s], w[s]
    for lo, hi in reversed(tails):
        # The least successor from which some walk of the remaining
        # length closes the cycle at s with a nonzero total.
        lo, hi = lo[0], hi[0]
        v = next(
            v for v in follow[cycle[-1]]
            if lo[v] <= bound and not lo[v] == hi[v] == -total
        )
        cycle.append(v)
        total += w[v]
    return tuple(labels[v] for v in cycle), total


def _potential(A, g):
    # (b, graph): the verified potential of g or None, and the block graph
    # (block, labels, weights) when an edge refutes every potential, else None.
    block, labels, weights = _block_weights(A, g)
    beta = _forest_potential(block, weights)
    if beta is None:
        return None, (block, labels, weights)
    b = LocFun._tabulate(A, g.depth, dict(zip(labels, beta)).__getitem__)
    return (b if coboundary_transform(b) - 1 == g else None), None


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
    """
    b, graph = _potential(A, g)
    if b is not None:
        return b
    found = None if graph is None else _nonzero_cycle(*graph)
    if found is None:
        raise NotCoboundaryError("no locally constant potential exists")
    cyc, total = found
    raise NotCoboundaryError("cycle %r has sum %d != 0" % (list(cyc), total), witness=cyc)


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
        self.kinds = tuple(kinds)
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
