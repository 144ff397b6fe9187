"""The one-pass canonical form of a point against the symbol-by-symbol one.

`PointSpec.canonical` reduces the period to its primitive root and
absorbs the preperiod tail that runs the period backwards.  It used to
absorb that tail one symbol at a time, rebuilding both tuples each time,
which is quadratic in the tail; it now counts the tail, then slices and
rotates once.  The earlier body is kept verbatim below as
`reference_canonical`, and both must agree on a seeded corpus of points.
"""

import random
import time

import pytest

from sftcocycles import PointSpec, TransitionMatrix
from sftcocycles.sft import _primitive_root


# ------------------------------------------------------------------ oracle


def reference_canonical(self):
    per = _primitive_root(self.period)
    pre = self.preperiod
    while pre and pre[-1] == per[-1]:
        per = (per[-1],) + per[:-1]
        pre = pre[:-1]
    return pre, per


# ------------------------------------------------------------------ corpus

MATRICES = {
    "golden": [[1, 1], [1, 0]],
    "full2": [[1, 1], [1, 1]],
    "full3": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    "zero_diag3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    # Symbol 1 lies on no cycle.
    "reducible": [[0, 1, 0], [0, 1, 0], [1, 0, 1]],
    # A 4-ring with one chord: irreducible with period 2.
    "ring_chord": [[0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
}


def random_cycle(A, rng):
    while True:  # a random walk of 1 to 5 symbols, until one closes up
        w = [rng.randint(1, A.n)]
        for _ in range(rng.randint(0, 4)):
            w.append(rng.choice(A.followers(w[-1])))
        if w[0] in A.follower_set(w[-1]):
            return tuple(w)


def random_point(A, rng):
    """A point whose preperiod often ends in a run of its own period.

    The period is a random cycle, sometimes repeated; the preperiod is
    a tail of the periodic sequence ending just before the period, after
    a random backward walk, so the absorbed part and the symbol that
    stops it both vary.
    """
    period = random_cycle(A, rng) * rng.choice((1, 1, 2, 3))
    t = rng.randint(0, 3 * len(period) + 1)
    tail = (period * (t // len(period) + 1))[-t:] if t else ()
    head = [(tail or period)[0]]
    for _ in range(rng.randint(0, 4)):
        head.append(rng.choice(A.predecessors(head[-1])))
    return PointSpec(A, tuple(reversed(head[1:])) + tail, period)


def corpus(size, seed):
    rng = random.Random(seed)
    matrices = [TransitionMatrix(rows) for rows in MATRICES.values()]
    return [random_point(matrices[i % len(matrices)], rng) for i in range(size)]


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("seed", [1, 2])
def test_canonical_matches_reference_on_a_seeded_corpus(seed):
    points = corpus(60_000, seed)
    absorbed = 0
    for z in points:
        expected = reference_canonical(z)
        assert z.canonical() == expected, z
        absorbed += len(expected[0]) < len(z.preperiod)
    # The corpus does exercise the absorption, and not only it.
    assert len(points) // 4 < absorbed < len(points)


@pytest.mark.parametrize(
    "preperiod, period, expected",
    [
        ((), (1,), ((), (1,))),
        ((1, 2, 1, 2), (1, 2), ((), (1, 2))),
        ((2,), (1, 2), ((), (2, 1))),
        ((1, 1, 2), (1, 2, 1, 2), ((1,), (1, 2))),
        ((2, 2, 1), (2, 1), ((2,), (2, 1))),
        ((1, 1, 1), (1, 1), ((), (1,))),
    ],
)
def test_canonical_small_cases(full2, preperiod, period, expected):
    z = PointSpec(full2, preperiod, period)
    assert z.canonical() == expected == reference_canonical(z)


def test_long_absorbed_preperiod_is_one_pass(full2):
    # The symbol-by-symbol form takes about 11 s here (2.75 s at 40,000).
    z = PointSpec(full2, (2,) + (1, 2) * 40_000, (1, 2))
    start = time.perf_counter()
    assert z.canonical() == ((), (2, 1))
    assert time.perf_counter() - start < 1.0
    assert PointSpec(full2, (1,) * 80_000, (1,)).canonical() == ((), (1,))
