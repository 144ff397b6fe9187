"""The one-walk cycle search and the lazy verdict grid, against their earlier bodies.

`has_cycle_within` now walks breadth-first once per start with one
parent pointer per symbol; it used to special-case self-loops, carry a
path tuple per symbol and compare ``(len, path)`` pairs.
`_sample_grid` now lists words one length at a time, only as far as it
samples; it used to list every word up to length 3.  The earlier
bodies are kept verbatim below, the earlier grid calling the earlier
search, and both must give identical answers.
"""

import itertools
import random
import time

import pytest

from sftcocycles import PointSpec, TransitionMatrix, enumerate_words, has_cycle_within, is_saturated
from sftcocycles import groupoid
from sftcocycles.groupoid import _sample_grid


# ------------------------------------------------------------------ oracle


def reference_has_cycle_within(A, symbols):
    allowed = A.check_symbols(symbols)
    best = None
    for start in sorted(allowed):
        # BFS with children expanded in ascending order finds, for each
        # vertex, the lexicographically least shortest path from start.
        if start in A.followers(start):
            candidate = (start,)
            if best is None or (1, candidate) < (len(best), best):
                best = candidate
            continue
        paths = {start: (start,)}
        frontier = [(start,)]
        while frontier and (best is None or len(frontier[0]) < len(best)):
            nxt = []
            for path in frontier:
                for j in A.followers(path[-1]):
                    if j not in allowed or j in paths:
                        continue
                    paths[j] = path + (j,)
                    nxt.append(path + (j,))
            for path in nxt:
                if start in A.followers(path[-1]):
                    if best is None or (len(path), path) < (len(best), best):
                        best = path
                    break
            frontier = nxt
    return best


def reference_sample_grid(A, size):
    mus = []
    for length in (1, 2, 3, 4):
        for w in enumerate_words(A, length):
            mus.append(w)
            if len(mus) == size:
                break
        if len(mus) == size:
            break
    cycles = []
    remaining = set(range(1, A.n + 1))
    while remaining:
        cyc = reference_has_cycle_within(A, remaining)
        if cyc is None:
            break
        cycles.append(cyc)
        remaining -= set(cyc)
    zs, seen = [], set()
    prefixes = [()] + enumerate_words(A, 1) + enumerate_words(A, 2) + enumerate_words(A, 3)
    for pre in prefixes:
        for cyc in cycles:
            try:
                z = PointSpec(A, pre, cyc)
            except ValueError:
                continue
            if z.canonical() in seen:
                continue
            seen.add(z.canonical())
            zs.append(z)
            if len(zs) == size:
                return zs, mus
    return zs, mus


# ------------------------------------------------------------------ corpora


def valid_matrices(n):
    """Every 0/1 n x n matrix without a zero row or column."""
    for bits in itertools.product((0, 1), repeat=n * n):
        rows = [bits[i * n : (i + 1) * n] for i in range(n)]
        if all(any(row) for row in rows) and all(any(col) for col in zip(*rows)):
            yield TransitionMatrix(rows)


def random_matrix(rng, n):
    """A random valid n x n matrix: zero rows and columns get one random entry."""
    density = rng.choice([0.1, 0.2, 0.3, 0.5, 0.8])
    rows = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if not any(rows[i]):
            rows[i][rng.randrange(n)] = 1
    for j in range(n):
        if not any(row[j] for row in rows):
            rows[rng.randrange(n)][j] = 1
    return TransitionMatrix(rows)


def ring_with_chord(n):
    """The ring i -> i + 1, n -> 1 with the chord n - 1 -> 1."""
    followers = [(i + 1,) for i in range(1, n - 1)] + [(1, n), (1,)]
    return TransitionMatrix.from_followers(followers)


def points(zs):
    return [(z.preperiod, z.period) for z in zs]


BASES = {
    "golden": [[1, 1], [1, 0]],
    "full2": [[1, 1], [1, 1]],
    "zd3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
}


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("n", [2, 3])
def test_every_small_matrix_and_symbol_set(n):
    checked = 0
    for A in valid_matrices(n):
        for r in range(n + 1):
            for symbols in itertools.combinations(range(1, n + 1), r):
                assert has_cycle_within(A, symbols) == reference_has_cycle_within(A, symbols)
                checked += 1
    assert checked == {2: 7 * 4, 3: 265 * 8}[n]


def test_seeded_random_matrices():
    rng = random.Random(20210106)
    found = 0
    for _ in range(5000):
        n = rng.randint(2, 12)
        A = random_matrix(rng, n)
        symbols = [s for s in range(1, n + 1) if rng.random() < 0.6]
        cycle = has_cycle_within(A, symbols)
        assert cycle == reference_has_cycle_within(A, symbols), (A, symbols)
        found += cycle is not None
    assert 1000 < found < 4900


@pytest.mark.parametrize("name", sorted(BASES))
def test_grids_of_the_paper_examples(name):
    A = TransitionMatrix(BASES[name])
    for size in range(1, 9):
        zs, mus = _sample_grid(A, size)
        ref_zs, ref_mus = reference_sample_grid(A, size)
        assert mus == ref_mus
        assert points(zs) == points(ref_zs)


def test_grids_of_random_matrices():
    rng = random.Random(13)
    for _ in range(200):
        A = random_matrix(rng, rng.randint(2, 6))
        size = rng.randint(1, 8)
        zs, mus = _sample_grid(A, size)
        ref_zs, ref_mus = reference_sample_grid(A, size)
        assert (points(zs), mus) == (points(ref_zs), ref_mus), A


def test_grid_lists_only_the_words_it_samples(monkeypatch):
    full40 = TransitionMatrix([[1] * 40] * 40)
    listed = []

    def counting(A, m, after=None):
        words = enumerate_words(A, m, after)
        listed.append(len(words))
        return words

    monkeypatch.setattr(groupoid, "enumerate_words", counting)
    zs, mus = _sample_grid(full40, 5)
    assert sum(listed) <= 41
    assert mus == [(1,), (2,), (3,), (4,), (5,)]
    assert points(zs) == [((), (s,)) for s in range(1, 6)]


def test_ring_with_chord_is_quick():
    A = ring_with_chord(800)
    start = time.perf_counter()
    assert has_cycle_within(A, range(1, 801)) == tuple(range(1, 800))
    assert is_saturated(A, {1})
    assert time.perf_counter() - start < 3.0
