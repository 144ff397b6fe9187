"""The table check of `LocFun` and `BlockCode` against its earlier listing.

``locfun._table_values`` lists the admissible words of the table's depth
until a length has more words than the table has keys, and names a
missing word with ``locfun._first_gap``, one sweep over the sorted
admissible keys.  The earlier check, kept below verbatim with the
truncating word listing it used, listed the first len(table) + 1 words
of every length instead, which cost O(depth^2) for a deep table.  Both
must give the same words and values, or the same refusal, on every
table here.  The one intended difference: a key whose symbols only
compare equal to ints, such as ``(True,)``, ``(1.0,)`` or
``(np.int64(1),)``, is no word, so a table holding one is refused.  The
earlier check quoted a missing word whole; below it quotes it through
``sft._excerpt_ends``, as the check does now, so the messages still
compare exactly.
"""

import itertools
import random
import time
from sys import maxsize

import numpy as np
import pytest

from sftcocycles import BlockCode, LocFun, TransitionMatrix, enumerate_words
from sftcocycles import sft
from sftcocycles.locfun import _table_values
from sftcocycles.sft import _excerpt, _excerpt_ends

BASES = {
    "golden": [[1, 1], [1, 0]],
    "full2": [[1, 1], [1, 1]],
    "zd3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
}


# ------------------------------------------------- the earlier check, verbatim


def _list_words(A, first, m, cap=maxsize):
    """The first `cap` (by default all) admissible m-words from `first`, m >= 1."""
    words = [(i,) for i in first]
    del words[cap:]
    for _ in range(m - 1):
        words = [w + (j,) for w in words for j in A.followers(w[-1])]
        del words[cap:]
    return words


def reference_table_values(A, m, table, name):
    """The admissible m-words in order, and the table's values on them.

    The table's keys must be exactly those words, and the first one
    missing is named.  At most len(table) + 1 words of each length are
    ever listed.  Every admissible word extends (no symbol lacks a
    follower), so the first words of one length extend to the first
    words of the next; keeping only the first len(table) + 1 lists every
    word when the table can hold them all, and otherwise words enough
    to show one missing.  A table without a key of length m misses every
    word, and is refused before any is listed, whatever the depth.
    """
    if not any(isinstance(w, tuple) and len(w) == m for w in table):
        raise ValueError("%s is missing every admissible word of length %d" % (name, m))
    words = _list_words(A, range(1, A.n + 1), m, len(table) + 1)
    try:
        values = [table[w] for w in words]
    except KeyError as missing:
        word = missing.args[0]
        raise ValueError("%s is missing the admissible word %s" % (name, _excerpt_ends(word))) from None
    if len(table) != len(words):
        extra = set(table) - set(words)
        try:
            extra = sorted(extra)
        except TypeError:  # keys of mixed types have no common order
            extra = sorted(extra, key=repr)
        raise ValueError("%s has entries for inadmissible words: %s" % (name, _excerpt(extra)))
    return words, values


# ------------------------------------------------------------------- tests


def outcome(check, A, m, table, name):
    try:
        return check(A, m, table, name)
    except ValueError as refusal:
        return str(refusal)


def assert_same(A, m, table):
    """Same (words, values) or message, under both table names; the outcome."""
    for name in ("table", "code table"):
        expected = outcome(reference_table_values, A, m, table, name)
        assert outcome(_table_values, A, m, table, name) == expected, (m, table)
    return expected


@pytest.mark.parametrize("name", sorted(BASES))
def test_the_listing_stops_past_its_cap(name):
    # All the m-words while no length has more than cap of them, else None.
    A = TransitionMatrix(BASES[name])
    for m in range(1, 7):
        for first in (range(1, A.n + 1), A.followers(A.n)):
            words = _list_words(A, first, m)
            for cap in sorted({0, 1, len(words) - 1, len(words), len(words) + 1, 10**6}):
                expected = words if len(words) <= cap else None
                assert sft._list_words(A, first, m, cap) == expected, (m, cap)


def inadmissible_tuples(A, m, rng):
    # Tuples of length m with a step the matrix forbids or a symbol out of
    # range; the second symbol is forced, so m >= 2 for the first kind.
    n = A.n
    out = [(n + 1,) * m, (0,) + (1,) * (m - 1)]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if m >= 2 and b not in A.follower_set(a):
                out.append(((a, b) + tuple(rng.randint(1, n) for _ in range(m - 2))))
    return out


def tables(A, m, rng):
    """Complete tables, tables missing words, and tables with extra keys."""
    words = enumerate_words(A, m)
    full = {w: rng.randint(-3, 3) for w in words}
    yield full
    yield dict(reversed(full.items()))  # the key order does not matter
    for k in (1, 2, 3):
        for _ in range(3):
            gone = set(rng.sample(words, min(k, len(words))))
            yield {w: v for w, v in full.items() if w not in gone}
    extras = inadmissible_tuples(A, m, rng) + [
        (1,) * (m + 1),  # too long
        (1,) * (m - 1) if m > 1 else (),  # too short
        "x",
        "1" * m,
        7,
        None,
        ("a",) * m,
        (1.5,) * m,
    ]
    for extra in extras:
        yield {**full, extra: 0}
        # A missing word is named before an extra key.
        yield {**{w: v for w, v in list(full.items())[1:]}, extra: 0}
    yield {**full, "x": 0, ("a",): 1, 3.5: 2, (m + 7,) * m: 3}
    for _ in range(4):
        keep = [w for w in words if rng.random() < 0.8]
        yield {**{w: 0 for w in keep}, **{e: 1 for e in rng.sample(extras, 2)}}


@pytest.mark.parametrize("name", sorted(BASES))
@pytest.mark.parametrize("m", range(1, 7))
def test_small_tables(name, m):
    A = TransitionMatrix(BASES[name])
    kinds = set()
    for table in tables(A, m, random.Random("%s %d" % (name, m))):
        result = assert_same(A, m, table)
        if isinstance(result, tuple):
            kinds.add("accepted")
        else:
            kinds.add("missing" if " is missing the " in result else "extra")
    assert kinds == {"accepted", "missing", "extra"}


def deep_keys(A, d, rng):
    """A few admissible words of length d: the least ones, and random ones."""
    least = []
    for first in enumerate_words(A, 1):
        word = list(first)
        while len(word) < d:
            word.append(A.followers(word[-1])[0])
        least.append(tuple(word))
    out = []
    for _ in range(3):
        word = [rng.randint(1, A.n)]
        while len(word) < d:
            word.append(rng.choice(A.followers(word[-1])))
        out.append(tuple(word))
    return least, out


@pytest.mark.parametrize("name", sorted(BASES))
@pytest.mark.parametrize("d", [10, 17, 32, 64])
def test_sparse_deep_tables(name, d):
    A = TransitionMatrix(BASES[name])
    rng = random.Random("deep %s %d" % (name, d))
    least, randoms = deep_keys(A, d, rng)
    first_words = enumerate_words(A, d)[:4] if d == 10 else []
    candidates = least + randoms + first_words + inadmissible_tuples(A, d, rng)[:2]
    seen = 0
    for size in (1, 2, 3):
        for keys in itertools.combinations(candidates, size):
            table = {w: i for i, w in enumerate(keys)}
            result = assert_same(A, d, table)
            assert isinstance(result, str) and "missing" in result
            seen += 1
    assert seen > 20


@pytest.mark.parametrize("name", sorted(BASES))
def test_coerced_keys_are_not_words(name):
    A = TransitionMatrix(BASES[name])
    for m in (1, 2, 3):
        words = enumerate_words(A, m)
        full = {w: 1 for w in words}
        for i, w in enumerate(words):
            for symbol in (True, 1.0, np.int64(w[-1])):
                if symbol != w[-1]:
                    continue
                coerced = w[:-1] + (symbol,)
                table = {**{v: 1 for v in words[:i]}, coerced: 1, **{v: 1 for v in words[i + 1 :]}}
                assert reference_table_values(A, m, table, "table") == (words, [1] * len(words))
                with pytest.raises(ValueError) as refusal:
                    _table_values(A, m, table, "table")
                assert str(refusal.value) == (
                    "table has entries for inadmissible words: %s" % _excerpt([coerced])
                )
        assert _table_values(A, m, full, "table") == (words, [1] * len(words))


@pytest.mark.parametrize("key", [(True,), (1.0,), (np.int64(1),)], ids=["bool", "float", "int64"])
def test_constructors_refuse_coerced_keys(key):
    golden = TransitionMatrix(BASES["golden"])
    message = "table has entries for inadmissible words: %s" % _excerpt([key])
    with pytest.raises(ValueError) as refusal:
        LocFun(golden, 1, {key: 0, (2,): 0})
    assert str(refusal.value) == message
    with pytest.raises(ValueError) as refusal:
        BlockCode(golden, golden, 1, {key: 1, (2,): 2})
    assert str(refusal.value) == "code " + message


def test_a_deep_table_is_refused_without_listing():
    # The earlier listing took 8.7-10.0 s on each; both now take about
    # 0.01 s on a 2-vCPU VM.
    golden = TransitionMatrix(BASES["golden"])
    d = 32000
    missing = "is missing the admissible word %s" % _excerpt_ends((1,) * (d - 1) + (2,))
    for build, name in (
        (lambda: LocFun(golden, d, {(1,) * d: 0}), "table"),
        (lambda: BlockCode(golden, golden, d, {(1,) * d: 1}), "code table"),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError) as refusal:
            build()
        assert time.perf_counter() - start < 0.5
        assert str(refusal.value) == "%s %s" % (name, missing)
