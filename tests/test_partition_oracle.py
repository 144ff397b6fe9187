"""The prefix walk of `_check_partition` against the word listing.

`reference_check_partition` is `_check_partition` as it was before the
cover check walked the proper prefixes of the words, kept verbatim: it
lists every admissible word of the longest word's length.  Both must
accept the same word sets, and refuse the rest with the same message.
"""

import random
import time

import pytest

from sftcocycles import FullGroupElement, TransitionMatrix, enumerate_words
from sftcocycles.locfun import _check_partition


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
        kinds.add(expected and ("overlap" if "overlap" in expected else "cover"))
    # Partitions are accepted, and both kinds of refusal occur.
    assert kinds == {None, "overlap", "cover"}


def test_long_single_rule_is_refused_quickly(full2):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"source cylinders do not cover the word \(1, 1, 1"):
        FullGroupElement(full2, [((1,) * 400, (1,) * 400)])
    assert time.perf_counter() - start < 1.0
