"""The one-frontier minimality search against the two-phase search.

`minimality_search` now grows one breadth-first frontier from the empty
path: the levels below |mu| are forced (the only extension is the next
symbol of mu) and only the free levels from |mu| on are pruned.  It used
to run a separate forced phase, one splice test per (k, l), and then
start its frontier at mu with the sum of the windows inside mu.  That
earlier body is kept verbatim below as `reference_search`, and both must
return the same least witness (k, l, point), or both None.
"""

import random

import pytest

from sftcocycles import LocFun, PointSpec, TransitionMatrix, enumerate_words, minimality_search
from sftcocycles.groupoid import MinimalityWitness, _check_shift, _integer


# ------------------------------------------------------------------ oracle


def reference_search(A, f, z, mu, k_max=24, value_max=64):
    k_max, value_max = _integer(k_max, "k_max", 0), _integer(value_max, "value_max", 0)
    _check_shift(A, f, z)
    mu = A.check_word(mu)
    if not mu:
        raise ValueError("mu must be nonempty")
    m, K = len(mu), f.depth
    table = f.table
    max_abs = max(abs(v) for v in table.values())
    budget = value_max + (K - 1) * max_abs

    # Every symbol of z that a splice at l <= k_max reads, and the sums
    # fz[l] = f^l(z).
    z_prefix = f.matrix.check_word(z.window(0, k_max + max(K, m)))
    fz = [0]
    for l in range(k_max):
        fz.append(fz[l] + table[z_prefix[l : l + K]])

    def splice_sum(p, l):
        # f^|p| on the cylinder of p . sigma^l(z): the windows starting in p.
        w = p + z_prefix[l : l + K]
        return sum(table[w[i : i + K]] for i in range(len(p)))

    def build(p, l):
        witness = MinimalityWitness(z.shift(l).prepend(p), len(p), l)
        if not witness.verify(A, f, z, mu):
            raise RuntimeError("minimality witness %r failed verification" % (witness,))
        return witness

    # Forced phase: with k < |mu| the path must be a prefix of mu and the
    # spliced tail must supply the rest of mu (which also makes the
    # junction admissible).
    for k in range(0, min(m, k_max + 1)):
        p = mu[:k]
        for l in range(k_max + 1):
            if (
                z_prefix[l : l + m - k] == mu[k:]
                and abs(fz[l]) <= value_max
                and splice_sum(p, l) == fz[l]
            ):
                return build(p, l)
    if k_max < m:
        return None

    suffix_len = max(1, K - 1)
    base_sum = (
        sum(table[mu[i : i + K]] for i in range(m - K + 1)) if m >= K else 0
    )
    frontier = {(mu[-suffix_len:], base_sum): mu}
    for k in range(m, k_max + 1):
        suffixes = {suffix for suffix, _ in frontier}
        for l in range(k_max + 1):
            if abs(fz[l]) > value_max:
                continue
            head = z_prefix[l]
            found = []
            for suffix in suffixes:
                if head not in A.follower_set(suffix[-1]):
                    continue
                # With K = 1 the suffix's own window is already in the sum.
                boundary = splice_sum(suffix, l) if K > 1 else 0
                p = frontier.get((suffix, fz[l] - boundary))
                if p is not None:
                    found.append(p)
            if found:
                return build(min(found), l)
        if k == k_max:
            break
        # The frontier iterates in ascending path order: paths are
        # extended in that order by ascending followers, so the first
        # path to reach a state, the one kept, is its least.
        nxt = {}
        for (suffix, total), p in frontier.items():
            for j in A.followers(suffix[-1]):
                window = (suffix + (j,))[-K:]
                new_total = total + (table[window] if k + 1 >= K else 0)
                if abs(new_total) > budget:
                    continue
                state = ((suffix + (j,))[-suffix_len:], new_total)
                if state not in nxt:
                    nxt[state] = p + (j,)
        frontier = nxt
        if not frontier:
            break
    return None


# ------------------------------------------------------------------ helpers

MATRICES = {
    "golden": [[1, 1], [1, 0]],
    "full2": [[1, 1], [1, 1]],
    "zd3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    "ring3": [[1, 1, 0], [0, 0, 1], [1, 0, 0]],
}


def outcome(witness):
    return None if witness is None else (witness.k, witness.l, witness.x.canonical())


def random_word(A, rng, length):
    word = [rng.randint(1, A.n)]
    while len(word) < length:
        word.append(rng.choice(A.followers(word[-1])))
    return tuple(word)


def random_point(A, rng):
    # A random walk after a random preperiod, closed into a period at the
    # first symbol that repeats one since the walk began.
    walk = list(random_word(A, rng, rng.randint(1, 4)))
    start = len(walk) - 1
    while True:
        nxt = rng.choice(A.followers(walk[-1]))
        if nxt in walk[start:]:
            k = walk.index(nxt, start)
            return PointSpec(A, tuple(walk[:k]), tuple(walk[k:]))
        walk.append(nxt)


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_seeded_searches_match_reference(name):
    A = TransitionMatrix(MATRICES[name])
    rng = random.Random("frontier " + name)
    tally = {"forced": 0, "free": 0, "exhausted": 0, "short": 0}
    for _ in range(2600):
        K = rng.randint(1, 4)
        lo = rng.randint(-2, 0)
        hi = lo + rng.randint(1, 3)
        f = LocFun(A, K, {w: rng.randint(lo, hi) for w in enumerate_words(A, K)})
        z = random_point(A, rng)
        mu = random_word(A, rng, rng.randint(1, 5))
        k_max, value_max = rng.randint(0, 10), rng.randint(0, 6)
        new = minimality_search(A, f, z, mu, k_max, value_max)
        old = reference_search(A, f, z, mu, k_max, value_max)
        assert outcome(new) == outcome(old), (f.table, z, mu, k_max, value_max)
        if new is None:
            tally["exhausted"] += 1
            tally["short"] += k_max < len(mu)
        else:
            tally["forced" if new.k < len(mu) else "free"] += 1
    # Witnesses at forced and at free levels, exhausted searches, and
    # searches whose k_max ends below |mu| all occur.
    assert min(tally.values()) > 0, tally


def test_forced_prefix_is_not_pruned(golden):
    # The forced prefix (2,) of mu already sums to 1, past the budget 0
    # of value_max 0, yet mu itself sums to 0 = f^0(z): pruning the
    # forced levels would lose the witness (k, l) = (4, 0).
    f = LocFun(golden, 1, {(1,): -1, (2,): 1})
    z = PointSpec(golden, (1, 1, 2), (1,))
    mu = (2, 1, 1, 2)
    witness = minimality_search(golden, f, z, mu, k_max=8, value_max=0)
    assert witness is not None and (witness.k, witness.l) == (4, 0)
    assert outcome(witness) == outcome(reference_search(golden, f, z, mu, 8, 0))
