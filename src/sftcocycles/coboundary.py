"""Coboundary detection and potential solving.

An integer function g on the shift is a coboundary, g = b(sigma .) - b
for some locally constant b, exactly when its sums over all periodic
orbits vanish; for a depth-K function the periodic orbits are the
directed cycles of the K-block graph, and simple cycles generate all of
them.  The solver propagates a potential over a spanning tree of that
graph and verifies every edge, so a successful answer is certified, and
the classifier uses it to sort potentials into the three special shapes
(positive constants, symbol-set indicators, unit coboundaries).
"""

import networkx as nx

from .sft import higher_block
from .locfun import LocFun, coboundary_transform

__all__ = [
    "NotCoboundaryError",
    "PotentialClass",
    "cycle_sums",
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
    # Present g as a vertex weight on its depth-adapted block graph.
    block, labels = higher_block(A, g.depth)
    weights = {w: g.table[w] for w in labels}
    return block, labels, weights


def _rotate_min(cycle):
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def cycle_sums(A, g, cycle_cap=10**6):
    """All simple cycles of the block graph of g, with their g-sums.

    Each cycle is returned as a tuple of block vertices (words), rotated
    to start at its least vertex, and paired with the sum of g over one
    traversal.  The function is a coboundary iff every sum is zero.
    Enumeration is capped; pathological inputs raise instead of hanging.
    """
    block, labels, weights = _block_weights(A, g)
    graph = nx.DiGraph()
    graph.add_nodes_from(labels)
    for a, wa in enumerate(labels, 1):
        for b in block.followers(a):
            graph.add_edge(wa, labels[b - 1])
    out = []
    for count, cycle in enumerate(nx.simple_cycles(graph)):
        if count >= cycle_cap:
            raise ValueError(
                "more than %d simple cycles; raise cycle_cap to proceed" % cycle_cap
            )
        cyc = _rotate_min(tuple(cycle))
        out.append((cyc, sum(weights[w] for w in cyc)))
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return out


def solve_potential(A, g, cycle_cap=10**6):
    """Solve g = b(sigma .) - b for a locally constant potential b.

    The potential is built on the block-graph vertices by spanning-tree
    propagation from the least vertex (treating edges undirected, so
    reducible matrices are covered too), then every edge is verified and
    the recomposed coboundary is compared against g.  The result is
    base-normalized: the lexicographically least word maps to 0.

    Raises
    ------
    NotCoboundaryError
        If some simple cycle has a nonzero sum (the witness cycle is
        attached), or if no locally constant potential exists.
    """
    block, labels, weights = _block_weights(A, g)

    def fail():
        for cyc, total in cycle_sums(A, g, cycle_cap=cycle_cap):
            if total != 0:
                raise NotCoboundaryError(
                    "cycle %r has sum %d != 0" % (list(cyc), total), witness=cyc
                )
        raise NotCoboundaryError("no locally constant potential exists")

    forward = {w: [labels[b - 1] for b in block.followers(a)] for a, w in enumerate(labels, 1)}
    backward = {w: [labels[a - 1] for a in block.predecessors(b)] for b, w in enumerate(labels, 1)}
    beta = {}
    for root in labels:  # one spanning tree per weak component
        if root in beta:
            continue
        beta[root] = 0
        stack = [root]
        while stack:
            w = stack.pop()
            for v in forward[w]:
                if v not in beta:
                    beta[v] = beta[w] + weights[w]
                    stack.append(v)
            for u in backward[w]:
                if u not in beta:
                    beta[u] = beta[w] - weights[u]
                    stack.append(u)
    for wa in labels:
        for wb in forward[wa]:
            if beta[wb] - beta[wa] != weights[wa]:
                fail()
    b = LocFun(A, g.depth, {w: beta[w] for w in labels}).base_normalized()
    if coboundary_transform(b) - 1 != g:
        fail()
    return b


class PotentialClass:
    """Shape classification of a potential.

    ``kinds`` lists every detected shape in detection order (positive
    constant, symbol-set indicator, unit coboundary); ``kind`` is the
    first of them, or "general".  The shapes are mutually exclusive
    except at the constant function 1, which is all three at once (and
    the zero function, which is the indicator of the empty set); the
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
    (by solving for b on f - 1).  All detected shapes are reported; the
    overlaps are degenerate and flagged in ``note``.
    """
    kinds = []
    constant = f.table[min(f.table)] if f.is_constant() else None
    if constant is not None and constant >= 1:
        kinds.append("constant")
    chi_H = None
    if f.depth == 1 and set(f.table.values()) <= {0, 1}:
        chi_H = frozenset(i for (i,), v in f.table.items() if v == 1)
        kinds.append("chi_H")
    coboundary_b = None
    try:
        coboundary_b = solve_potential(A, f - 1)
        kinds.append("coboundary_1b")
    except NotCoboundaryError:
        pass
    note = None
    if len(kinds) > 1:
        if constant == 1:
            note = (
                "the constant function 1 is at once a positive constant, "
                "the indicator of the full alphabet, and the unit coboundary "
                "of a constant potential"
            )
        elif constant == 0 and chi_H == frozenset():
            note = "the zero function is the indicator of the empty set"
        else:
            note = "degenerate overlap of potential shapes: %s" % ", ".join(kinds)
    kind = kinds[0] if kinds else "general"
    return PotentialClass(kind, kinds, constant, chi_H, coboundary_b, note)
