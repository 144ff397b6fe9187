"""The one-pass constructor gates and the search set-up against their earlier code.

``sft._int_rows``, the checks of ``TransitionMatrix.__init__`` and
``_set_graph``, ``locfun._table_values``, ``PointSpec.__eq__`` and
``groupoid.minimality_search`` are kept below verbatim as they were
before the gates became one C-level pass over the input, with the walk
that names a bad cell, key or symbol run only after that pass fails.
On valid and junk inputs alike, the code now must give the same object,
or the same exception type and message.
"""

import random
from itertools import accumulate, compress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sftcocycles import (
    LocFun,
    MinimalityWitness,
    PointSpec,
    TransitionMatrix,
    enumerate_words,
    minimality_search,
)
from sftcocycles.groupoid import _sample_grid
from sftcocycles.locfun import _check_shift, _first_gap, _table_values, _window_sum
from sftcocycles.sft import (
    _excerpt,
    _excerpt_ends,
    _int_rows,
    _integer,
    _integers,
    _length,
    _list_words,
)

BASES = {
    "golden": [[1, 1], [1, 0]],
    "full2": [[1, 1], [1, 1]],
    "zd3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
}
MATRICES = {name: TransitionMatrix(rows) for name, rows in BASES.items()}
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=600)


# ------------------------------------------------- the earlier code, verbatim


def reference_int_rows(M):
    """The matrix as a list of rows of Python ints, checked rectangular.

    Entries pass the integer gate, so a float, string or null entry is
    refused, naming its row and column, instead of being coerced.
    """
    if hasattr(M, "dtype"):
        if getattr(M.dtype, "kind", None) not in ("i", "u", "O"):
            raise ValueError("matrix entries must be integers, not %s" % (M.dtype,))
        M = M.tolist()
    try:
        rows = [list(row) for row in M]
    except TypeError:
        raise ValueError("matrix must be a 2-D array") from None
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows must all have the same length")
    return [
        _integers(row, lambda j: "matrix entry (%d, %d)" % (i, j + 1))
        for i, row in enumerate(rows, 1)
    ]


def reference_matrix(entries):
    """(followers, predecessors) as ``__init__`` and ``_set_graph`` built them."""
    # TransitionMatrix.__init__
    rows = reference_int_rows(entries)
    n = len(rows)
    if n == 0 or len(rows[0]) != n:
        raise ValueError("transition matrix must be a square 2-D array")
    if not all(set(row) <= {0, 1} for row in rows):
        raise ValueError("transition matrix entries must all be 0 or 1")
    symbols = range(1, n + 1)
    followers = tuple(tuple(compress(symbols, row)) for row in rows)
    # TransitionMatrix._set_graph
    n = len(followers)
    if n < 2:
        raise ValueError("alphabet must have at least two symbols")
    predecessors = [[] for _ in range(n)]
    for i, fol in enumerate(followers, 1):
        for j in fol:
            predecessors[j - 1].append(i)
    for i in range(n):
        if not followers[i]:
            raise ValueError("row %d is zero: symbol %d has no follower" % (i + 1, i + 1))
        if not predecessors[i]:
            raise ValueError("column %d is zero: symbol %d has no predecessor" % (i + 1, i + 1))
    return followers, tuple(map(tuple, predecessors))


def reference_table_values(A, m, table, name):
    """The admissible m-words in order, and the table's values on them.

    The keys must be exactly those words, tuples of ``int`` symbols.  A
    complete table costs one listing and one lookup per word.  The listing
    stops at the first length with more words than keys; then
    :func:`_first_gap` names the least word missed, in one sweep.
    """
    if not any(isinstance(w, tuple) and len(w) == m for w in table):
        raise ValueError("%s is missing every admissible word of length %d" % (name, m))
    words = _list_words(A, range(1, A.n + 1), m, len(table))
    try:
        values = None if words is None else [table[w] for w in words]
    except KeyError:
        values = None
    if values and len(table) == len(words) and {type(s) for w in table for s in w} == {int}:
        return words, values
    keys = {w for w in table if isinstance(w, tuple) and len(w) == m and A.is_admissible(w)}
    if values is None:
        gap = _first_gap(A, sorted(keys), m)
        raise ValueError("%s is missing the admissible word %s" % (name, _excerpt_ends(gap)))
    extra = [w for w in table if w not in keys]
    try:
        extra = sorted(extra)
    except TypeError:  # keys of mixed types have no common order
        extra = sorted(extra, key=repr)
    raise ValueError("%s has entries for inadmissible words: %s" % (name, _excerpt(extra)))


def reference_eq(self, other):
    if not isinstance(other, PointSpec):
        return NotImplemented
    return (
        self.matrix.same_matrix(other.matrix)
        and self.canonical() == other.canonical()
    )


def reference_search(A, f, z, mu, k_max=24, value_max=64):
    k_max, value_max = _length(k_max, "k_max", 0), _integer(value_max, "value_max", 0)
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
    fz = list(accumulate((table[z_prefix[l : l + K]] for l in range(k_max)), initial=0))

    def build(p, l):
        witness = MinimalityWitness(z.shift(l).prepend(p), len(p), l)
        if not witness.verify(A, f, z, mu):
            raise RuntimeError("minimality witness %r failed verification" % (witness,))
        return witness

    suffix_len = max(1, K - 1)
    frontier = {((), 0): ()}
    for k in range(k_max + 1):
        forced, rest = k < m, mu[k:]
        suffixes = {suffix for suffix, _ in frontier}
        for l in range(k_max + 1):
            if abs(fz[l]) > value_max:
                continue
            # Below |mu| z must supply mu[k:], which makes the junction admissible.
            if forced and z_prefix[l : l + m - k] != rest:
                continue
            head = z_prefix[l]
            found = []
            for suffix in suffixes:
                if not forced and head not in A.follower_set(suffix[-1]):
                    continue
                # With K = 1 the suffix's own window is already in the sum.
                boundary = (
                    _window_sum(f, suffix + z_prefix[l : l + K], len(suffix)) if K > 1 else 0
                )
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
            for j in (mu[k],) if forced else A.followers(suffix[-1]):
                window = (suffix + (j,))[-K:]
                new_total = total + (table[window] if k + 1 >= K else 0)
                # A forced prefix may exceed the budget and still close at |mu|.
                if not forced and abs(new_total) > budget:
                    continue
                state = ((suffix + (j,))[-suffix_len:], new_total)
                if state not in nxt:
                    nxt[state] = p + (j,)
        frontier = nxt
        if not frontier:
            break
    return None


# ------------------------------------------------------------- comparisons


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", exception type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def graph_of(entries):
    A = TransitionMatrix(entries)
    assert A.n == len(A._followers) and A._follower_sets == tuple(map(frozenset, A._followers))
    return A._followers, A._predecessors


def witness_of(fn, *args):
    result = outcome(fn, *args)
    if result[0] == "ok" and result[1] is not None:
        w = result[1]
        return ("ok", (w.k, w.l, w.x.matrix, w.x.preperiod, w.x.period))
    return result


# Matrix entries: mostly 0/1, with every kind of junk the gate refuses.
ENTRIES = st.one_of(
    st.sampled_from([0, 1]),
    st.sampled_from([2, -1, True, False, 1.0, 0.0, "1", None, np.int64(1), np.int64(0), [1]]),
)


@st.composite
def matrices(draw):
    n = draw(st.integers(0, 4))
    lengths = draw(st.one_of(st.just([n] * n), st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    clean = draw(st.booleans())
    cell = st.sampled_from([0, 1]) if clean else ENTRIES
    rows = [draw(st.lists(cell, min_size=k, max_size=k)) for k in lengths]
    form = draw(st.sampled_from(["lists", "tuples", "array", "bool-array", "float-array"]))
    if form == "tuples":
        return tuple(map(tuple, rows))
    if form.endswith("array") and clean and len(set(lengths)) <= 1:
        dtype = {"array": np.int64, "bool-array": bool, "float-array": float}[form]
        return np.array(rows, dtype=dtype).reshape(n, lengths[0] if n else 0)
    return rows


@FUZZ
@given(matrices())
def test_matrix_gates_match_reference(entries):
    assert outcome(_int_rows, entries) == outcome(reference_int_rows, entries)
    assert outcome(graph_of, entries) == outcome(reference_matrix, entries)


@pytest.mark.parametrize(
    "entries",
    [
        5, None, [1, 1], [[]], [], [[1, 1], [1]], [[1], [1, 1]], [[1, 1], [0, 0]], [[1, 0], [1, 0]],
        [[0, 0], [1, 1]], [[1]], [[1, 1, 0], [1, 1, 0], [1, 1, 0]], [[True, 1], [1, 0]],
        [[1, 1], [1, 1.5]], [[1, 1], [1, np.int64(0)]], [[1, 1], [1, "0"]], [[2, 1], [1, 1]],
    ],
    ids=repr,
)
def test_matrix_gates_match_reference_on_named_junk(entries):
    assert outcome(_int_rows, entries) == outcome(reference_int_rows, entries)
    assert outcome(graph_of, entries) == outcome(reference_matrix, entries)


# Keys that compare equal to admissible words, or that are not words at all.
BAD_KEYS = [(True,), (1.0,), (np.int64(1),), (True, 1), (1, 1.0), (9, 9), (1, 2, 1), "1", 5, ()]
VALUES = [0, 1, -3, 2**70, True, 1.5, None, np.int64(4)]


@st.composite
def tables(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    A = MATRICES[name]
    depth = draw(st.integers(1, 3))
    words = enumerate_words(A, draw(st.sampled_from([depth, depth, depth, depth - 1 or 1, depth + 1])))
    table = {w: draw(st.integers(-2, 2)) for w in words}
    for _ in range(draw(st.integers(0, 2))):
        change = draw(st.sampled_from(["drop", "add", "value", "shuffle"]))
        if change == "drop" and table:
            del table[draw(st.sampled_from(list(table)))]
        elif change == "add":
            table[draw(st.sampled_from(BAD_KEYS))] = draw(st.integers(-2, 2))
        elif change == "value" and table:
            table[draw(st.sampled_from(list(table)))] = draw(st.sampled_from(VALUES))
        elif change == "shuffle":
            items = list(table.items())
            draw(st.randoms(use_true_random=False)).shuffle(items)
            table = dict(items)
    return A, depth, table


def reference_locfun(A, depth, table):
    # LocFun.__init__ with the reference table check.
    words, values = reference_table_values(A, depth, table, "table")
    values = _integers(values, lambda i: "value on the word %s" % _excerpt(words[i]))
    return LocFun._from_table(A, depth, dict(zip(words, values)))


def table_of(f):
    return f.depth, list(f.table.items())


@FUZZ
@given(tables())
def test_table_gate_matches_reference(case):
    A, depth, table = case
    new = outcome(_table_values, A, depth, table, "table")
    old = outcome(reference_table_values, A, depth, table, "table")
    assert new == old
    new = outcome(lambda: table_of(LocFun(A, depth, table)))
    old = outcome(lambda: table_of(reference_locfun(A, depth, table)))
    assert new == old


@pytest.mark.parametrize("key", BAD_KEYS, ids=repr)
def test_table_gate_matches_reference_on_each_bad_key(key):
    A = MATRICES["golden"]
    whole = {(1, 1): 5, (1, 2): 7, (2, 1): -2}
    for depth, table in [(2, {**whole, key: 1}), (2, {key: 1, **whole})]:
        assert outcome(_table_values, A, depth, table, "table") == outcome(
            reference_table_values, A, depth, table, "table"
        )
    # A key equal to an admissible word in place of that word.
    for word in whole:
        if key == word:
            table = {(key if w == word else w): v for w, v in whole.items()}
            new = outcome(_table_values, A, 2, table, "table")
            assert new == outcome(reference_table_values, A, 2, table, "table")
            assert new[0] == "raised"


@st.composite
def point_pairs(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    A = MATRICES[name]
    rng = draw(st.randoms(use_true_random=False))

    def walk(length, start=None):
        word = [start or rng.randint(1, A.n)]
        while len(word) < length:
            word.append(rng.choice(A.followers(word[-1])))
        return tuple(word)

    def point():
        while True:
            per = walk(rng.randint(1, 4))
            if per[0] in A.follower_set(per[-1]):
                break
        pre = ()
        for _ in range(rng.randint(0, 3)):
            pre = (rng.choice(A.predecessors((pre or per)[0])),) + pre
        return PointSpec(A, pre, per)

    x = point()
    kind = draw(st.sampled_from(["same", "rotated", "doubled", "absorbed", "other", "foreign"]))
    if kind == "same":
        y = PointSpec(A, x.preperiod, x.period)
    elif kind == "rotated":  # the same point, with one period symbol moved into the preperiod
        y = PointSpec(A, x.preperiod + x.period[:1], x.period[1:] + x.period[:1])
    elif kind == "doubled":
        y = PointSpec(A, x.preperiod, x.period * 2)
    elif kind == "absorbed":
        y = x.shift(0).prepend(())
    elif kind == "other":
        y = point()
    else:
        other = MATRICES["full2" if name != "full2" else "golden"]
        y = PointSpec(other, (), (1,))
    return x, y


@FUZZ
@given(point_pairs())
def test_point_equality_matches_reference(pair):
    x, y = pair
    for a, b in ((x, y), (y, x), (x, x)):
        assert (a == b) == reference_eq(a, b)
        assert (a != b) == (reference_eq(a, b) is False)
    assert x.__eq__((1,)) is NotImplemented and reference_eq(x, (1,)) is NotImplemented


def test_point_equality_covers_equal_and_unequal_representations():
    A = MATRICES["golden"]
    x = PointSpec(A, (2,), (1,))
    assert x == PointSpec(A, (2,), (1,)) and reference_eq(x, PointSpec(A, (2,), (1,)))
    y = PointSpec(A, (2, 1), (1, 1))  # the same point, written otherwise
    assert x == y and reference_eq(x, y)
    z = PointSpec(A, (1,), (1,))
    assert x != z and not reference_eq(x, z)


def search_corpus():
    """The seeded corpus of ``test_search_oracle``: every matrix, depth and bound pair."""
    for name in sorted(BASES):
        A = MATRICES[name]
        rng = random.Random("search " + name)
        zs, mus = _sample_grid(A, 5)
        mus += enumerate_words(A, 4)[:2]
        for depth in (1, 2, 3):
            for lo, hi in [(-1, 1), (0, 2), (-2, 1)]:
                table = {w: rng.randint(lo, hi) for w in enumerate_words(A, depth)}
                f = LocFun(A, depth, table)
                for z in zs:
                    for mu in mus:
                        for k_max, value_max in [(6, 4), (9, 8), (8, 64), (7, 1), (5, 0)]:
                            yield A, f, z, mu, k_max, value_max


def test_search_returns_the_earlier_witness_on_the_search_corpus():
    count = 0
    for args in search_corpus():
        assert witness_of(minimality_search, *args) == witness_of(reference_search, *args)
        count += 1
    assert count == 3 * 9 * 5 * 7 * 5  # matrices, potentials, points, words, bounds


@FUZZ
@given(
    st.sampled_from(sorted(BASES)),
    st.sampled_from([(1,), (2, 1), (1, 2), (), (True,), (9,), None, 5, [1, 1]]),
    st.sampled_from([0, 1, 3, 12, -1, True, 2.0, None]),
    st.sampled_from([0, 2, 64, -1, False, 1.5]),
    st.sampled_from(["point", "other-point", "other-f"]),
    st.integers(0, 5),
)
def test_search_matches_reference_on_junk_arguments(name, mu, k_max, value_max, which, seed):
    A = MATRICES[name]
    rng = random.Random(seed)
    f = LocFun(A, 2, {w: rng.randint(-1, 1) for w in enumerate_words(A, 2)})
    z = _sample_grid(A, 5)[0][seed % 5]
    other = MATRICES["zd3" if name != "zd3" else "golden"]
    if which == "other-point":
        z = _sample_grid(other, 1)[0][0]
    elif which == "other-f":
        f = LocFun.constant(other, 1)
    args = (A, f, z, mu, k_max, value_max)
    assert witness_of(minimality_search, *args) == witness_of(reference_search, *args)
