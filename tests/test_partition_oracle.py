"""The sorted sweep of `_check_partition` against its two earlier forms.

`reference_check_partition` is `_check_partition` as it was before the
cover check walked the proper prefixes of the words, kept verbatim: it
lists every admissible word of the longest word's length.
`reference_prefix_walk` is the check as it was next, before it swept
the sorted words once, kept verbatim: it walks the set of every proper
prefix of every word in lexicographic order.  All three must accept the
same word sets, and refuse the rest with the same message; the prefix
walk also on long words, where the listing cannot run.
"""

import random
import time

import pytest

from sftcocycles import FullGroupElement, TransitionMatrix, enumerate_words
from sftcocycles.locfun import _check_partition
from sftcocycles.sft import _excerpt


def reference_check_partition(matrix, words, role):
    words = sorted(words)
    for a, b in zip(words, words[1:]):
        if b[: len(a)] == a:
            raise ValueError(
                "%s cylinders overlap: %r is a prefix of %r" % (role, a, b)
            )
    depth = max(len(w) for w in words)
    for w in enumerate_words(matrix, depth):
        if not any(w[: len(s)] == s for s in words):
            raise ValueError("%s cylinders do not cover the word %r" % (role, w))


def reference_prefix_walk(matrix, words, role):
    words = sorted(words)
    for a, b in zip(words, words[1:]):
        if b[: len(a)] == a:
            raise ValueError(
                "%s cylinders overlap: %s is a prefix of %s"
                % (role, _excerpt(a), _excerpt(b))
            )
    # Walk the words' proper prefixes in lexicographic order.  The first
    # child that is neither a word nor a proper prefix, extended by least
    # followers (every symbol has one), is the least uncovered word.
    depth = max(len(w) for w in words)
    sources, prefixes = set(words), {w[:i] for w in words for i in range(len(w))}
    stack = [()]
    while stack:
        w = stack.pop()
        if w in sources:
            continue
        if w in prefixes:
            nexts = matrix.followers(w[-1]) if w else range(1, matrix.n + 1)
            stack.extend(w + (j,) for j in reversed(nexts))
            continue
        while len(w) < depth:
            w += (matrix.followers(w[-1])[0],)
        raise ValueError("%s cylinders do not cover the word %s" % (role, _excerpt(w)))


def outcome(check, A, words):
    try:
        check(A, words, "source")
    except ValueError as exc:
        return str(exc)
    return None


def random_words(rng, A):
    """A cylinder partition, now and then with a piece dropped, added or split."""
    parts = [(i,) for i in range(1, A.n + 1)]
    for _ in range(rng.randint(0, 6)):
        w = parts.pop(rng.randrange(len(parts)))
        parts.extend(w + (j,) for j in A.followers(w[-1]))
    for _ in range(rng.choice([0, 0, 1, 2])):
        change = rng.randrange(3)
        if change == 0 and len(parts) > 1:
            parts.pop(rng.randrange(len(parts)))
        elif change == 1:
            parts.append(rng.choice(enumerate_words(A, rng.randint(1, 4))))
        else:
            w = rng.choice(parts)
            parts.append(w + (A.followers(w[-1])[-1],))
    rng.shuffle(parts)
    return parts


MATRICES = {
    "full2": [[1, 1], [1, 1]],
    "golden": [[1, 1], [1, 0]],
    "zd3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    "ring3": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
}


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_partition_check_matches_reference(name):
    A = TransitionMatrix(MATRICES[name])
    rng = random.Random("partition-" + name)
    kinds = set()
    for _ in range(400):
        words = random_words(rng, A)
        expected = outcome(reference_check_partition, A, words)
        assert outcome(_check_partition, A, words) == expected
        assert outcome(reference_prefix_walk, A, words) == expected
        kinds.add(expected and ("overlap" if "overlap" in expected else "cover"))
    # Partitions are accepted, and both kinds of refusal occur.
    assert kinds == {None, "overlap", "cover"}


def test_long_single_rule_is_refused_quickly(full2):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"source cylinders do not cover the word \(1, 1, 1"):
        FullGroupElement(full2, [((1,) * 400, (1,) * 400)])
    assert time.perf_counter() - start < 1.0


def long_words(rng, A):
    """A partition into long cylinders, now and then with a piece dropped or added.

    Each step splits the cylinder of a random piece far down a random
    path, so the words reach dozens of symbols while their number stays
    small.
    """
    parts = [(i,) for i in range(1, A.n + 1)]
    for _ in range(rng.randint(1, 4)):
        w = parts.pop(rng.randrange(len(parts)))
        for _ in range(rng.randint(1, 30)):
            nexts = A.followers(w[-1])
            keep = rng.choice(nexts)
            parts.extend(w + (j,) for j in nexts if j != keep)
            w += (keep,)
        parts.append(w)
    change = rng.choice([None, None, "drop", "add", "split"])
    if change == "drop" and len(parts) > 1:
        parts.pop(rng.randrange(len(parts)))
    elif change == "add":
        w = rng.choice(parts)
        w = w[: rng.randint(1, len(w))]
        for _ in range(rng.randint(0, 3)):
            w += (A.followers(w[-1])[0],)
        parts.append(w)
    elif change == "split":
        w = rng.choice(parts)
        parts.append(w + (A.followers(w[-1])[-1],))
    rng.shuffle(parts)
    return parts


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_sweep_matches_prefix_walk_on_long_words(name):
    A = TransitionMatrix(MATRICES[name])
    rng = random.Random("long partition-" + name)
    kinds = set()
    for _ in range(300):
        words = long_words(rng, A)
        expected = outcome(reference_prefix_walk, A, words)
        assert outcome(_check_partition, A, words) == expected
        kinds.add(expected and ("overlap" if "overlap" in expected else "cover"))
    assert kinds == {None, "overlap", "cover"}


def comb(L):
    """Sources 1^i 2 for i < L and 1^L over the full 2-shift, each fixed."""
    sources = [(1,) * i + (2,) for i in range(L)] + [(1,) * L]
    return [(w, w) for w in sources]


def test_long_comb_builds_quickly(full2):
    # Best of three builds, most of it the admissibility check of 642,400
    # symbols; the prefix walk took 1.8 s on a 2-vCPU VM.
    rules, times = comb(800), []
    for _ in range(3):
        start = time.perf_counter()
        tau = FullGroupElement(full2, rules)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.2
    assert tau.max_src == 800
    # The comb without its tooth 1^400 2 is refused at that gap.
    del rules[400]
    with pytest.raises(ValueError) as refused:
        FullGroupElement(full2, rules)
    gap = (1,) * 400 + (2,) + (1,) * 399
    assert str(refused.value) == "source cylinders do not cover the word %s" % _excerpt(gap)
