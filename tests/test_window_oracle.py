"""Point windows and window sums against their earlier forms.

``PointSpec.window`` cuts a slice of the preperiod and a slice of the
repeated period, and ``locfun._window_sum`` is a plain accumulating
loop.  The earlier forms, kept below verbatim, built a window one symbol
per generator step and summed the windows through a generator.  Both
must give the same window, or the same sum, on every case here, and the
same refusal where the earlier form refused.
"""

import random
import sys

import pytest

from sftcocycles import LocFun, PointSpec, TransitionMatrix, enumerate_words
from sftcocycles.locfun import _window_sum
from sftcocycles.sft import _integer

BASES = {
    "golden": [[1, 1], [1, 0]],
    "full2": [[1, 1], [1, 1]],
    "zd3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
}


# ------------------------------------------------- the earlier forms, verbatim


def reference_window(self, offset, length):
    """The `length` symbols of the shifted point sigma^offset(.)."""
    offset = _integer(offset, "offset", 0)
    pre, per = self.preperiod, self.period
    return tuple(
        pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]
        for i in range(offset, offset + _integer(length, "length", 0))
    )


def reference_window_sum(f, word, n):
    """f^n read off an admissible word of length at least n + depth(f) - 1."""
    K, table = f.depth, f.table
    return sum(table[word[i : i + K]] for i in range(n))


# ------------------------------------------------------------------- tests


def points(A):
    # Every point with a preperiod of at most 4 and a period of at most 3.
    pres = [w for m in range(5) for w in enumerate_words(A, m)]
    pers = [w for m in (1, 2, 3) for w in enumerate_words(A, m) if w[0] in A.follower_set(w[-1])]
    for per in pers:
        for pre in pres:
            if not pre or per[0] in A.follower_set(pre[-1]):
                yield PointSpec(A, pre, per)


def outcome(call):
    try:
        return call()
    except (ValueError, KeyError) as refusal:
        return type(refusal), str(refusal)


@pytest.mark.parametrize("name", sorted(BASES))
def test_windows_match_the_generator_form(name):
    A = TransitionMatrix(BASES[name])
    count = 0
    for z in points(A):
        for offset in list(range(11)) + [10**18]:
            for length in range(13):
                window = z.window(offset, length)
                assert type(window) is tuple
                assert window == reference_window(z, offset, length), (z, offset, length)
        count += 1
    assert count > 100


@pytest.mark.parametrize("offset, length", [(-1, 2), (0, -1), (1.5, 2), (0, True), (-1, 1.5)])
def test_windows_refuse_as_the_generator_form_did(offset, length):
    z = PointSpec(TransitionMatrix(BASES["golden"]), (2,), (1,))
    refused = outcome(lambda: z.window(offset, length))
    assert refused == outcome(lambda: reference_window(z, offset, length))
    assert refused[0] is ValueError


def test_a_window_longer_than_any_sequence_is_refused_by_name():
    z = PointSpec(TransitionMatrix(BASES["golden"]), (2,), (1,))
    with pytest.raises(ValueError) as refused:
        z.window(0, 10**5000)
    assert str(refused.value) == (
        "length must be at most %d, not <an integer of 16610 bits>" % sys.maxsize
    )


@pytest.mark.parametrize("name", sorted(BASES))
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_window_sums_match_the_generator_form(name, depth):
    A = TransitionMatrix(BASES[name])
    rng = random.Random(depth * 31 + len(name))
    for _ in range(3):
        f = LocFun(A, depth, {w: rng.randint(-5, 5) for w in enumerate_words(A, depth)})
        for m in range(9):
            for word in enumerate_words(A, m):
                # From n = -1 to the word's length: past n = m - depth + 1
                # a window runs off the word and both forms raise KeyError.
                for n in range(-1, m + 1):
                    expected = outcome(lambda: reference_window_sum(f, word, n))
                    assert outcome(lambda: _window_sum(f, word, n)) == expected, (word, n)
