"""The splice-lookup minimality search against the re-summing search.

`reference_search` is the search as it was before splices became
(suffix, total) lookups, kept verbatim: every (state, l) pair re-sums
its cocycle from scratch with `cocycle_sum`.  Both must return the same
least witness (k, l, point), or both None, on seeded random potentials.
"""

import random
import time

import pytest

from sftcocycles import (
    LocFun,
    MinimalityWitness,
    PointSpec,
    TransitionMatrix,
    cocycle_sum,
    enumerate_words,
    make_chi_H,
    minimality_search,
)
from sftcocycles.groupoid import _sample_grid

BASES = {
    "golden": [[1, 1], [1, 0]],
    "full2": [[1, 1], [1, 1]],
    "zd3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
}


def reference_search(A, f, z, mu, k_max=24, value_max=64):
    """Breadth-first search for a witness connecting U_mu to the orbit of z.

    Explores candidate points x = p . sigma^l(z) over paths p extending
    mu and splice positions l, exhaustively up to k <= k_max, l <= k_max
    and partial cocycle sums bounded by value_max.  Returns the witness
    least in the order (k, l, path), or None when the bounds are
    exhausted; None does not certify that no witness exists.

    The frontier is deduplicated on (last symbols, partial sum) states,
    which keeps the search polynomial while preserving the least
    witness: whether a path can be completed depends only on its state.
    """
    mu = A.check_word(mu)
    if not mu:
        raise ValueError("mu must be nonempty")
    m, K = len(mu), f.depth
    max_abs = max(abs(v) for v in f.table.values())
    budget = value_max + (K - 1) * max_abs

    z_prefix = z.window(0, k_max + K)
    fz = [cocycle_sum(f, z_prefix, l) for l in range(k_max + 1)]

    def build(p, l):
        witness = MinimalityWitness(z.shift(l).prepend(p), len(p), l)
        assert witness.verify(A, f, z, mu)
        return witness

    def check(p, l):
        k = len(p)
        if k == 0:
            if z.window(l, m) != mu or fz[l] != 0:
                return None
            return build((), l)
        if k < m and z.window(l, m - k) != mu[k:]:
            return None
        if z.symbol(l + 1) not in A.follower_set(p[-1]):
            return None
        value = cocycle_sum(f, p + z.window(l, K), k)
        if abs(value) > value_max or value != fz[l]:
            return None
        return build(p, l)

    # Forced phase: with k < |mu| the path must be a prefix of mu and the
    # spliced tail must supply the rest of mu.
    for k in range(0, min(m, k_max + 1)):
        p = mu[:k]
        for l in range(k_max + 1):
            found = check(p, l)
            if found:
                return found
    if k_max < m:
        return None

    suffix_len = max(1, K - 1)
    base_sum = (
        sum(f.table[mu[i : i + K]] for i in range(m - K + 1)) if m >= K else 0
    )
    frontier = {(mu[-suffix_len:], base_sum): mu}
    for k in range(m, k_max + 1):
        ordered = sorted(frontier.items(), key=lambda item: item[1])
        for l in range(k_max + 1):
            for _, p in ordered:
                found = check(p, l)
                if found:
                    return found
        if k == k_max:
            break
        nxt = {}
        for (suffix, total), p in ordered:
            for j in A.followers(suffix[-1]):
                window = (suffix + (j,))[-K:]
                new_total = total + (f.table[window] if k + 1 >= K else 0)
                if abs(new_total) > budget:
                    continue
                state = ((suffix + (j,))[-suffix_len:], new_total)
                if state not in nxt:
                    nxt[state] = p + (j,)
        frontier = nxt
        if not frontier:
            break
    return None



def outcome(witness):
    return None if witness is None else (witness.k, witness.l, witness.x.canonical())


@pytest.mark.parametrize("name", sorted(BASES))
def test_random_potentials_on_sample_grid(name):
    A = TransitionMatrix(BASES[name])
    rng = random.Random("search " + name)
    zs, mus = _sample_grid(A, 5)
    # Words longer than every depth below, so the forced phase runs past K.
    mus += enumerate_words(A, 4)[:2]
    results = {"forced": 0, "extended": 0, "exhausted": 0}
    for depth in (1, 2, 3):
        for lo, hi in [(-1, 1), (0, 2), (-2, 1)]:
            table = {w: rng.randint(lo, hi) for w in enumerate_words(A, depth)}
            f = LocFun(A, depth, table)
            for z in zs:
                for mu in mus:
                    for k_max, value_max in [(6, 4), (9, 8), (8, 64), (7, 1), (5, 0)]:
                        new = minimality_search(A, f, z, mu, k_max, value_max)
                        old = reference_search(A, f, z, mu, k_max, value_max)
                        assert outcome(new) == outcome(old), (table, z, mu, k_max)
                        if new is None:
                            results["exhausted"] += 1
                        else:
                            results["forced" if new.k < len(mu) else "extended"] += 1
    assert min(results.values()) > 0


@pytest.mark.parametrize("name", sorted(BASES))
def test_bounds_shorter_than_mu(name):
    # k_max below |mu| ends in the forced phase; value_max 0 leaves only
    # zero-sum splices.
    A = TransitionMatrix(BASES[name])
    rng = random.Random("short " + name)
    zs, _ = _sample_grid(A, 4)
    for depth in (1, 2, 3):
        table = {w: rng.randint(-1, 1) for w in enumerate_words(A, depth)}
        f = LocFun(A, depth, table)
        for z in zs:
            for mu in enumerate_words(A, 5)[:3]:
                for k_max in (0, 1, 3, 5):
                    for value_max in (0, 2):
                        new = minimality_search(A, f, z, mu, k_max, value_max)
                        old = reference_search(A, f, z, mu, k_max, value_max)
                        assert outcome(new) == outcome(old)


def test_exhausted_ladder_is_fast():
    # No point of U_(1) reaches 2^inf with equal sums: every path out of
    # the cylinder picks up weight chi_{1} >= 1.  Re-summing every splice
    # took several seconds at k_max = 64; the lookups take milliseconds.
    A = TransitionMatrix(BASES["full2"])
    chi = make_chi_H(A, {1})
    z = PointSpec(A, (), (2,))
    start = time.perf_counter()
    assert minimality_search(A, chi, z, (1,), k_max=64) is None
    assert time.perf_counter() - start < 2.0
