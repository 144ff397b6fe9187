"""The one-pass potential step against the two-pass solver it replaced.

`solve_potential` builds its block graph once and, on a refusal,
searches the witness cycle on that same graph; `classify_potential`
uses the verified potential alone and runs no witness search.  The
bodies below are the earlier ones, kept verbatim: a refusal rebuilt the
graph through `shortest_nonzero_cycle`, and the classifier caught the
solver's refusal.  Both must give the same potential, the same refusal
message and witness, and the same classification.
"""

import itertools
import random

import pytest

from sftcocycles import (
    LocFun,
    NotCoboundaryError,
    TransitionMatrix,
    classify_potential,
    coboundary_transform,
    enumerate_words,
    higher_block,
    shortest_nonzero_cycle,
    solve_potential,
)
from sftcocycles.coboundary import PotentialClass
from sftcocycles.sft import _excerpt

BASES = {
    "golden": [[1, 1], [1, 0]],
    "full2": [[1, 1], [1, 1]],
    "zd3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
}
# The reducible matrices of test_nonzero_cycle_oracle.py.
REDUCIBLE = {
    "identity": [[1, 0], [0, 1]],
    "cycle_into_loop": [[0, 1, 1], [1, 0, 1], [0, 0, 1]],
}


# ------------------------------------------------------------------ oracle


def _block_weights(A, g):
    # Present g as a vertex weight on its depth-adapted block graph.
    block, labels = higher_block(A, g.depth)
    weights = {w: g.table[w] for w in labels}
    return block, labels, weights


def _forest_potential(block, labels, weights):
    """A potential with beta(v) - beta(u) = g(u) on every edge u -> v, or None.

    The potential is propagated from the least vertex of each weak
    component over a spanning tree (edges taken undirected, so
    reducible matrices are covered too); None means some edge
    contradicts it.
    """
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
                return None
    return beta


def reference_solve_potential(A, g):
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

    def fail():
        found = shortest_nonzero_cycle(A, g)
        if found is not None:
            cyc, total = found
            raise NotCoboundaryError(
                "cycle %s has sum %d != 0" % (_excerpt(list(cyc)), total), witness=cyc
            )
        raise NotCoboundaryError("no locally constant potential exists")

    block, labels, weights = _block_weights(A, g)
    beta = _forest_potential(block, labels, weights)
    if beta is None:
        fail()
    b = LocFun(A, g.depth, beta).base_normalized()
    if coboundary_transform(b) - 1 != g:
        fail()
    return b


def reference_classify_potential(A, f):
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
        coboundary_b = reference_solve_potential(A, f - 1)
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


# ------------------------------------------------------------------- tests


def outcome(solve, A, g):
    try:
        b = solve(A, g)
    except NotCoboundaryError as exc:
        return "refused", str(exc), exc.witness
    return "solved", b.as_dict()


def assert_same(A, f):
    """Same solve outcome on f and f - 1, and the same classification of f."""
    for g in (f, f - 1):
        assert outcome(solve_potential, A, g) == outcome(reference_solve_potential, A, g)
    got = classify_potential(A, f).as_dict()
    assert got == reference_classify_potential(A, f).as_dict()
    return got["kind"]


def seeded_potentials(A, rng):
    for depth in range(1, 5):
        words = enumerate_words(A, depth)
        for lo, hi in [(-2, 2), (-1, 1), (0, 1), (0, 0), (1, 3)] * 2:
            yield LocFun(A, depth, {w: rng.randint(lo, hi) for w in words})
        for _ in range(3):
            b = LocFun(A, depth, {w: rng.randint(-3, 3) for w in words})
            yield b.shifted() - b
            yield coboundary_transform(b)


@pytest.mark.parametrize("name", sorted(BASES))
def test_seeded_potentials(name):
    A = TransitionMatrix(BASES[name])
    kinds = {assert_same(A, f) for f in seeded_potentials(A, random.Random("one pass " + name))}
    assert {"general", "coboundary_1b", "constant", "chi_H"} <= kinds


@pytest.mark.parametrize("name", sorted(REDUCIBLE))
def test_reducible_matrices(name):
    A = TransitionMatrix(REDUCIBLE[name])
    for values in itertools.product(range(-1, 3), repeat=A.n):
        assert_same(A, LocFun(A, 1, {(i,): v for i, v in enumerate(values, 1)}))
    for f in seeded_potentials(A, random.Random("one pass " + name)):
        assert_same(A, f)


def test_zero_cycle_sums_without_potential():
    # The refusal that has no witness cycle: the cycle sums vanish, but
    # the two edges into the loop at 3 ask for different potentials.
    A = TransitionMatrix(REDUCIBLE["cycle_into_loop"])
    g = LocFun(A, 1, {(1,): 1, (2,): -1, (3,): 0})
    assert outcome(solve_potential, A, g) == (
        "refused", "no locally constant potential exists", None
    )
    assert_same(A, g)
