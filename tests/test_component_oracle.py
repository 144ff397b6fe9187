"""The strong-component pass against the searches it cut short.

`has_cycle_within` first finds the strongly connected components of the
graph restricted to S and walks breadth-first only from a start whose
component has two symbols or a loop; it used to walk from every start.
The coboundary decision gives each strong component of the block graph
its own forest potential and walks only the steps inside a component;
it used to take one global forest and walk every head, up to V levels,
before it answered None on a reducible graph.  The earlier bodies are
kept verbatim below and both must give identical answers.
`sft._components` is checked against the reachability closure on the
corpus of `test_flags_oracle.py`.  The regressions at the end took 53,
53 and 2 s before.
"""

import itertools
import random
import time

import numpy as np
import pytest

from sftcocycles import (
    LocFun,
    NotCoboundaryError,
    TransitionMatrix,
    coboundary_transform,
    enumerate_words,
    shortest_nonzero_cycle,
    solve_potential,
)
from sftcocycles import coboundary, sft
from sftcocycles.coboundary import _block_weights
from sftcocycles.sft import _components, _excerpt, _graph, _require

from test_cycle_grid_oracle import BASES, random_matrix, ring_with_chord, valid_matrices


# ------------------------------------------------------------------ oracle


def has_cycle_within(A, symbols):
    """Search for a directed cycle staying inside the symbol set.

    Returns the shortest such cycle as a word, or None when the
    restricted graph is acyclic; the closing edge from last symbol back
    to first is admissible but not repeated.  Among the shortest cycles
    the answer has the least start, and among those it is
    lexicographically least.  The full symbol set always yields a cycle,
    because a valid matrix has no zero row.  One breadth-first walk per
    start costs O(|S| + E) time and O(|S|) memory, E counting the edges
    leaving S, so the whole search is O(|S| * (|S| + E)) time.
    """
    allowed = _require(A, TransitionMatrix, "A").check_symbols(symbols)
    best = None
    for start in sorted(allowed):
        # Breadth-first order with ascending followers reaches every
        # symbol along its lexicographically least shortest path, so the
        # first symbol visited that closes up to start ends the least
        # shortest cycle through start.  Only a shorter one can win.
        parent, length = {start: None}, {start: 1}
        order = [start]
        for s in order:
            if best is not None and length[s] >= len(best):
                break
            if start in A.follower_set(s):
                cycle = []
                while s is not None:
                    cycle.append(s)
                    s = parent[s]
                best = tuple(reversed(cycle))
                break
            for j in A.followers(s):
                if j in allowed and j not in parent:
                    parent[j], length[j] = s, length[s] + 1
                    order.append(j)
    return best


def _forest_potential(block, weights):
    """A potential over a spanning forest, and the heads of its misfits.

    beta, listed like the weights, is propagated from the least vertex of
    each weak component over a spanning tree (edges taken undirected, so
    reducible matrices are covered too).  An edge u -> v has the defect
    beta(u) + g(u) - beta(v), 0 on tree edges; a cycle's g-sum is the sum
    of its defects.  ``heads`` lists, ascending, the positions of the
    vertices that an edge of nonzero defect enters; none means beta fits.
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
    heads = [
        v - 1 for v in range(1, len(weights) + 1)
        if any(beta[u - 1] + weights[u - 1] != beta[v - 1] for u in block.predecessors(v))
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


def _nonzero_cycle(block, labels, w, beta, heads):
    # The defect walk of shortest_nonzero_cycle on a built block graph.
    n = len(labels)
    follow = [
        [(v - 1, beta[u] + w[u] - beta[v - 1]) for v in block.followers(u + 1)] for u in range(n)
    ]
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
    if best is None:
        # Every cycle sums to 0.  A reducible graph can still misfit the
        # potential: a tree that enters a strongly connected component
        # through several edges can contradict edges inside it.
        return None
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


# ------------------------------------------------------------------ corpora


# The reducible matrices of test_nonzero_cycle_oracle.py; full2 on {1, 2}
# leading into the golden mean shift on {3, 4}; and a loop and a 2-cycle,
# one entered from the other through two edges, forward and backward
# from the least vertex.
REDUCIBLE = {
    "identity": [[1, 0], [0, 1]],
    "cycle_into_loop": [[0, 1, 1], [1, 0, 1], [0, 0, 1]],
    "full2_into_golden": [[1, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 1], [0, 0, 1, 0]],
    "loop_into_two_cycle": [[1, 1, 1], [0, 0, 1], [0, 1, 0]],
    "two_cycle_into_loop": [[1, 0, 0], [1, 0, 1], [1, 1, 0]],
}


def closure_components(arr):
    """Pairs of symbols in one strong component: each reaches the other."""
    arr = np.asarray(arr) > 0
    n = arr.shape[0]
    reach = arr | np.eye(n, dtype=bool)
    for _ in range(max(1, n.bit_length())):
        reach = reach | (reach @ reach)
    return reach & reach.T


def crossing_coboundary(A, depth, rng):
    """A depth-(depth - 1) coboundary b(sigma .) - b, with random values
    in -3..3 on the depth-words that leave a strong component of A."""
    together = closure_components(A.tolist())
    b = LocFun(A, depth - 1, {w: rng.randint(-3, 3) for w in enumerate_words(A, depth - 1)})
    g = b.shifted() - b
    table = {w: g.value_on(w) for w in enumerate_words(A, depth)}
    for w in table:
        if not together[w[0] - 1, w[-1] - 1]:
            table[w] = rng.randint(-3, 3)
    return LocFun(A, depth, table)


def ring_with_chord_to_middle(n):
    """The ring i -> i + 1, n -> 1 with the chord 1 -> n / 2."""
    followers = [(i + 1,) for i in range(1, n)] + [(1,)]
    followers[0] = (2, n // 2)
    return TransitionMatrix.from_followers(followers)


# ------------------------------------------------------------------- tests


def subsets(n):
    for r in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), r)


def test_cycles_within_every_subset_of_every_small_matrix():
    for n in (2, 3):
        for A in valid_matrices(n):
            for symbols in subsets(n):
                assert sft.has_cycle_within(A, symbols) == has_cycle_within(A, symbols)


def test_cycles_within_every_subset_of_random_matrices():
    rng = random.Random("components")
    acyclic = 0
    for _ in range(150):
        A = random_matrix(rng, rng.randint(2, 7))
        for symbols in subsets(A.n):
            cycle = sft.has_cycle_within(A, symbols)
            assert cycle == has_cycle_within(A, symbols), (A, symbols)
            acyclic += cycle is None
    assert acyclic > 1000


@pytest.mark.parametrize("name", sorted(BASES))
def test_cycles_within_every_subset_of_the_paper_examples(name):
    A = TransitionMatrix(BASES[name])
    for symbols in subsets(A.n):
        assert sft.has_cycle_within(A, symbols) == has_cycle_within(A, symbols)


@pytest.mark.parametrize("n", [6, 9, 40])
def test_cycles_within_rings_with_a_chord(n):
    for A in (ring_with_chord(n), ring_with_chord_to_middle(n)):
        rng = random.Random(n)
        for symbols in [range(1, n + 1), range(2, n + 1), range(1, n)] + [
            [s for s in range(1, n + 1) if rng.random() < 0.9] for _ in range(20)
        ]:
            assert sft.has_cycle_within(A, symbols) == has_cycle_within(A, symbols)


def assert_decisions_match(A, g):
    block, labels, weights = _block_weights(A, g)
    beta, heads = _forest_potential(block, weights)
    # The solver's forest, all edges under one label, is the earlier one.
    assert coboundary._forest_potential(block, weights, [0] * len(weights)) == (beta, heads)
    expected = _nonzero_cycle(block, labels, weights, beta, heads)
    found = shortest_nonzero_cycle(A, g)
    assert found == expected
    if not heads:
        b = solve_potential(A, g)
        assert coboundary_transform(b) - 1 == g
        return found, False
    with pytest.raises(NotCoboundaryError) as refusal:
        solve_potential(A, g)
    if expected is None:
        assert str(refusal.value) == "no locally constant potential exists"
        assert refusal.value.witness is None
    else:
        cycle, total = expected
        assert str(refusal.value) == "cycle %s has sum %d != 0" % (_excerpt(list(cycle)), total)
        assert refusal.value.witness == expected[0]
    return found, True


@pytest.mark.parametrize("name", sorted(REDUCIBLE))
def test_reducible_decisions_match_the_global_walk(name):
    A = TransitionMatrix(REDUCIBLE[name])
    rng = random.Random("components " + name)
    outcomes = set()
    for depth in range(2, 7):
        words = enumerate_words(A, depth)
        for lo, hi in [(-1, 1), (0, 1), (-2, 2)]:
            g = LocFun(A, depth, {w: rng.randint(lo, hi) for w in words})
            found, misfit = assert_decisions_match(A, g)
            outcomes.add((found is None, misfit))
        for _ in range(3):
            found, misfit = assert_decisions_match(A, crossing_coboundary(A, depth, rng))
            assert found is None
            outcomes.add((True, misfit))
    # A nonzero cycle, and every cycle sum 0 under a misfit potential
    # (the identity has no edge between its two loops).
    assert (False, True) in outcomes
    assert (True, True) in outcomes or name == "identity"


def test_decisions_on_every_small_reducible_matrix():
    rng = random.Random("every reducible")
    checked = 0
    for n in (2, 3):
        for A in valid_matrices(n):
            if A.irreducible:
                continue
            for depth in (2, 3):
                words = enumerate_words(A, depth)
                assert_decisions_match(A, LocFun(A, depth, {w: rng.randint(-1, 1) for w in words}))
                assert assert_decisions_match(A, crossing_coboundary(A, depth, rng))[0] is None
            checked += 1
    assert checked == 3 + 121


@pytest.mark.parametrize("name", sorted(BASES))
def test_irreducible_decisions_match_the_global_walk(name):
    A = TransitionMatrix(BASES[name])
    rng = random.Random("components " + name)
    for depth in range(1, 6):
        words = enumerate_words(A, depth)
        for lo, hi in [(-1, 1), (0, 1), (0, 0)]:
            g = LocFun(A, depth, {w: rng.randint(lo, hi) for w in words})
            assert assert_decisions_match(A, g) != (None, True)


def assert_components_match(arr):
    n, followers, _ = _graph(arr)
    comp = _components(n, followers)
    together = closure_components(arr)
    for i, j in itertools.product(range(n), repeat=2):
        assert (comp[i] == comp[j]) == together[i, j], arr.tolist()
        if arr[i, j]:
            assert comp[i] >= comp[j], arr.tolist()  # numbered as they close


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_components_on_every_01_matrix(n):
    cells = n * n
    bits = (np.arange(2**cells)[:, None] >> np.arange(cells)) & 1
    for flat in bits:
        assert_components_match(flat.reshape(n, n))


def test_components_on_seeded_random_matrices():
    rng = random.Random(20210106)
    for n in range(1, 13):
        for _ in range(60):
            density = rng.choice([0.1, 0.2, 0.3, 0.5, 0.8])
            arr = np.array([[int(rng.random() < density) for _ in range(n)] for _ in range(n)])
            assert_components_match(arr)
            p = rng.randint(1, n)
            cls = [rng.randrange(p) for _ in range(n)]
            cyclic = np.array(
                [[int(cls[j] == (cls[i] + 1) % p and rng.random() < 0.6) for j in range(n)] for i in range(n)]
            )
            assert_components_match(cyclic)


def test_components_of_a_long_path_need_no_recursion():
    n = 20000
    comp = _components(n, lambda s: (s + 1,) if s < n else ())
    assert comp == list(range(n))[::-1]


def test_depth_9_reducible_coboundary_is_decided_at_once():
    # At depth 9 the earlier walk took 53 s on a 2-vCPU VM.
    A = TransitionMatrix(REDUCIBLE["full2_into_golden"])
    g = crossing_coboundary(A, 9, random.Random(9))
    start = time.perf_counter()
    assert shortest_nonzero_cycle(A, g) is None
    assert time.perf_counter() - start < 0.1


def test_depth_9_reducible_refusal_is_quick():
    A = TransitionMatrix(REDUCIBLE["full2_into_golden"])
    g = crossing_coboundary(A, 9, random.Random(9))
    start = time.perf_counter()
    with pytest.raises(NotCoboundaryError, match="^no locally constant potential exists$"):
        solve_potential(A, g)
    assert time.perf_counter() - start < 0.1


def test_an_acyclic_symbol_set_is_answered_at_once():
    # The earlier search took 2.1 s to answer None on a 2-vCPU VM.
    A = ring_with_chord_to_middle(3200)
    start = time.perf_counter()
    assert sft.has_cycle_within(A, range(2, 3201)) is None
    assert time.perf_counter() - start < 0.1
