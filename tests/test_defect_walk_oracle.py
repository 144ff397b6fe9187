"""The defect walk against the walk-sum recursion it replaced.

`shortest_nonzero_cycle` walks, in Python integers, the min and max
defect sums of the walks from each vertex that an edge with nonzero
defect of the forest potential enters.  The two functions below are the
earlier search, kept verbatim: a NumPy min/max recursion over V x V
arrays of the walk sums to every vertex.  Run on the block graph alone,
without the forest check before it, it answers None exactly when every
cycle sums to 0.  Both must give the same (cycle, total) or None, and a
refusal of `solve_potential` must carry the same witness and message.
The two regressions at the end, one of memory and one of time, fail
with the recursion.
"""

import random
import subprocess
import sys
import time

import pytest

from sftcocycles import (
    LocFun,
    NotCoboundaryError,
    TransitionMatrix,
    enumerate_words,
    shortest_nonzero_cycle,
    solve_potential,
)
from sftcocycles.coboundary import _block_weights
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
    import numpy as np
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


def _nonzero_cycle(block, labels, w):
    # The walk-sum search of shortest_nonzero_cycle on a built block graph.
    import numpy as np
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


# ------------------------------------------------------------------- tests


def assert_matches(A, g):
    expected = _nonzero_cycle(*_block_weights(A, g))
    found = shortest_nonzero_cycle(A, g)
    assert found == expected
    if found is not None:
        assert type(found[1]) is int
        with pytest.raises(NotCoboundaryError) as info:
            solve_potential(A, g)
        assert info.value.witness == found[0]
        assert str(info.value) == "cycle %s has sum %d != 0" % (_excerpt(list(found[0])), found[1])
    return found


def perturbed(A, depth, rng, words_changed):
    # A coboundary b(sigma .) - b at the given depth, changed on a few words.
    b = LocFun(A, depth - 1, {w: rng.randint(-3, 3) for w in enumerate_words(A, depth - 1)})
    g = b.shifted() - b
    words = enumerate_words(A, depth)
    table = {w: g.value_on(w) for w in words}
    for w in rng.sample(words, words_changed):
        table[w] += rng.choice([-2, -1, 1, 3])
    return LocFun(A, depth, table)


@pytest.mark.parametrize("name", sorted(BASES))
def test_random_tables(name):
    A = TransitionMatrix(BASES[name])
    rng = random.Random("defect walk " + name)
    found = 0
    for depth in range(1, 6):
        words = enumerate_words(A, depth)
        for lo, hi in [(-2, 2), (-1, 1), (0, 1), (0, 0)] * 2:
            g = LocFun(A, depth, {w: rng.randint(lo, hi) for w in words})
            found += assert_matches(A, g) is not None
    assert found > 0


@pytest.mark.parametrize("name", sorted(BASES))
def test_perturbed_coboundaries(name):
    A = TransitionMatrix(BASES[name])
    rng = random.Random("perturbed walk " + name)
    lengths = set()
    for depth in range(2, 6):
        for words_changed in (0, 1, 2, 1, 2):
            found = assert_matches(A, perturbed(A, depth, rng, words_changed))
            if words_changed < 2:
                # Every vertex lies on a cycle, and one changed word moves its sum.
                assert (found is None) == (words_changed == 0)
            if found is not None:
                lengths.add(len(found[0]))
    assert max(lengths) >= 4


@pytest.mark.parametrize("name", sorted(REDUCIBLE))
def test_reducible_matrices(name):
    A = TransitionMatrix(REDUCIBLE[name])
    rng = random.Random("reducible walk " + name)
    outcomes = set()
    for depth in range(1, 5):
        words = enumerate_words(A, depth)
        for _ in range(12):
            g = LocFun(A, depth, {w: rng.randint(-1, 1) for w in words})
            outcomes.add(assert_matches(A, g) is None)
            assert_matches(A, perturbed(A, depth + 1, rng, 1))
    assert outcomes == {True, False}


def test_huge_values_stay_exact(full2):
    big = 10**30
    g = LocFun(full2, 2, {(1, 1): 0, (1, 2): big, (2, 1): -big + 1, (2, 2): 0})
    assert assert_matches(full2, g) == (((1, 2), (2, 1)), 1)
    g = LocFun(full2, 2, {(1, 1): big, (1, 2): big, (2, 1): -big, (2, 2): -big})
    assert assert_matches(full2, g) == (((1,),), big)  # normalized to depth 1


def ring_with_loop(n):
    # 1 -> 2 -> ... -> n -> 1, and a loop at 1.
    return TransitionMatrix.from_followers([(1, 2)] + [(i + 2,) for i in range(1, n - 1)] + [(1,)])


@pytest.mark.parametrize("n", range(3, 61))
def test_rings_with_a_loop(n):
    A = ring_with_loop(n)
    values = {1: 0, 2: 7, 3: -6}
    g = LocFun(A, 1, {(i,): values.get(i, 0) for i in range(1, n + 1)})
    assert assert_matches(A, g) == (tuple((i,) for i in range(1, n + 1)), 1)
    rng = random.Random(n)
    assert_matches(A, LocFun(A, 1, {(i,): rng.randint(-1, 1) for i in range(1, n + 1)}))
    assert_matches(A, perturbed(A, 2, rng, 1))


def test_random_sparse_graphs():
    rng = random.Random("sparse graphs")
    checked = 0
    while checked < 400:
        n = rng.randint(4, 12)
        followers = [sorted(rng.sample(range(1, n + 1), rng.randint(1, 3))) for _ in range(n)]
        try:
            A = TransitionMatrix.from_followers(followers)
        except ValueError:
            continue  # a symbol without predecessor
        depth = rng.choice([1, 1, 2])
        g = LocFun(A, depth, {w: rng.choice([0, 0, 0, 1, -1, 2]) for w in enumerate_words(A, depth)})
        assert_matches(A, g)
        checked += 1


def test_walks_of_two_sums_to_the_least_vertex():
    # The heads are 6 and 7.  From 6, the walks of three steps reach 3 with
    # two sums (6 3 6 3 and 6 7 4 3), and one step leads back to 6, so 3 lies
    # on a nonzero cycle although one of its closed walks sums to 0.
    A = TransitionMatrix.from_followers([(1, 6), (6,), (6,), (3, 5), (1, 5), (3, 7), (2, 4, 6)])
    g = LocFun(A, 1, {(i,): 2 * (i == 4) for i in range(1, 8)})
    assert assert_matches(A, g) == (((3,), (6,), (7,), (4,)), 2)


@pytest.mark.parametrize("name, depth", [("full2", 8), ("golden", 10)])
def test_two_obstructions(name, depth):
    # Two changed words: the shortest nonzero cycles may pass either, or
    # both with sums that cancel.
    A = TransitionMatrix(BASES[name])
    rng = random.Random("two obstructions %s %d" % (name, depth))
    for _ in range(3):
        assert_matches(A, perturbed(A, depth, rng, 2))


DEPTH_12_REFUSAL = """
import random, resource, time
from sftcocycles import LocFun, NotCoboundaryError, TransitionMatrix, enumerate_words, solve_potential
full2 = TransitionMatrix([[1, 1], [1, 1]])
rng = random.Random(12)
b = LocFun(full2, 11, {w: rng.randint(-3, 3) for w in enumerate_words(full2, 11)})
g = b.shifted() - b
obstruction = (1,) + (2,) * 11
g = LocFun(full2, 12, {w: g.value_on(w) + (w == obstruction) for w in enumerate_words(full2, 12)})
start = time.perf_counter()
try:
    solve_potential(full2, g)
except NotCoboundaryError as refusal:
    witness = refusal.witness
    message = str(refusal)
seconds = time.perf_counter() - start
assert witness == tuple(obstruction[i:] + obstruction[:i] for i in range(12)), witness
assert message.endswith(" has sum 1 != 0"), message
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_depth_12_refusal_in_bounded_memory():
    # A coboundary plus the indicator of 1 2^11 on the full 2-shift: 4,096
    # block vertices.  The V x V recursion needed 674 MB and 4.8 s on a
    # 2-vCPU VM.
    result = subprocess.run(
        [sys.executable, "-c", DEPTH_12_REFUSAL], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    seconds, max_rss_kb = result.stdout.split()
    assert float(seconds) < 5
    assert int(max_rss_kb) < 150 * 1024


def test_ring_of_1600_vertices():
    # The witness is the whole ring; the recursion took 44 s on a 2-vCPU VM.
    n = 1600
    A = ring_with_loop(n)
    g = LocFun(A, 1, {(i,): int(i == n) for i in range(1, n + 1)})
    start = time.perf_counter()
    found = shortest_nonzero_cycle(A, g)
    assert time.perf_counter() - start < 5
    assert found == (tuple((i,) for i in range(1, n + 1)), 1)


def test_the_refusal_quotes_an_excerpt_of_a_long_witness():
    # Quoted whole, the witness of the 1,600-vertex ring takes 13,314
    # characters; the message quotes an excerpt, the attribute stays whole.
    n = 1600
    A = ring_with_loop(n)
    g = LocFun(A, 1, {(i,): int(i == n) for i in range(1, n + 1)})
    with pytest.raises(NotCoboundaryError) as refusal:
        solve_potential(A, g)
    witness = tuple((i,) for i in range(1, n + 1))
    assert refusal.value.witness == witness
    message = str(refusal.value)
    assert message == "cycle %s has sum 1 != 0" % _excerpt(list(witness))
    assert message.startswith("cycle [(1,), (2,), ") and len(message) < 120
