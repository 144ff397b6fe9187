"""Transition matrices, admissible words, and block recodings.

A one-sided shift space is presented by a square 0/1 matrix ``A``: its
points are the infinite symbol sequences (x_1, x_2, ...) over the
alphabet {1, ..., n} with ``A(x_i, x_{i+1}) = 1`` throughout.  This
module holds the matrix wrapper with its graph-theoretic predicate
flags, word enumeration, the higher-block recoding, directed-cycle
search restricted to a symbol set, and a finite description of
eventually periodic points.  Everything else in the package builds on
these.

The matrix is kept as its transition graph: for every symbol, the
ascending tuple of its followers and of its predecessors.  The flags
are breadth-first searches over that graph, admissibility is a lookup
in per-symbol follower sets, and a dense array exists only when a
caller asks for ``entries``.

Symbols are 1-based integers and words are plain tuples of symbols, so
alphabets with more than nine letters need no special casing.  All
values are immutable after construction and all functions are pure, so
concurrent use needs no coordination.
"""

from functools import cached_property
from itertools import compress
from math import gcd

import numpy as np

__all__ = [
    "TransitionMatrix",
    "PointSpec",
    "enumerate_words",
    "higher_block",
    "has_cycle_within",
    "is_irreducible",
    "is_primitive",
]


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _entry_rows(entries):
    """The matrix as a list of rows, checked square with integer 0/1 entries.

    Only genuine integers are accepted (a Python ``int`` other than
    ``bool``, or a NumPy integer), so a float, string or null entry is
    refused, naming its row and column, instead of being coerced.
    """
    if isinstance(entries, np.ndarray):
        if entries.dtype.kind not in "iuO":
            raise ValueError(
                "transition matrix entries must be integers, not %s" % entries.dtype
            )
        entries = entries.tolist()
    try:
        rows = [list(row) for row in entries]
    except TypeError:
        raise ValueError("transition matrix must be a square 2-D array") from None
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("transition matrix must be a square 2-D array")
    for i, row in enumerate(rows, 1):
        # Checking the distinct types of a row first keeps the common
        # all-int case free of a per-entry Python call.
        kinds = set(map(type, row))
        if bool in kinds or not all(issubclass(k, (int, np.integer)) for k in kinds):
            j = next(j for j, v in enumerate(row, 1) if not _is_integer(v))
            raise ValueError(
                "matrix entry (%d, %d) is %r, not an integer" % (i, j, row[j - 1])
            )
        if not set(row) <= {0, 1}:
            raise ValueError("transition matrix entries must all be 0 or 1")
    return rows


def _graph(entries):
    """The size and the follower and predecessor lookups of a matrix.

    Accepts a :class:`TransitionMatrix` or any square nonnegative
    array-like, whose positive entries are the edges.  Each lookup maps
    a symbol to its neighbouring symbols; for an array they read one row
    of the array or of its transpose when asked, so a search that stops
    early never converts the rest.
    """
    if isinstance(entries, TransitionMatrix):
        return entries.n, entries.followers, entries.predecessors
    arr = np.asarray(entries) > 0
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("need a nonempty square matrix")
    symbols = np.arange(1, arr.shape[0] + 1)
    arr_t = arr.T
    return (
        arr.shape[0],
        lambda s: symbols[arr[s - 1]].tolist(),
        lambda s: symbols[arr_t[s - 1]].tolist(),
    )


def _bfs_levels(n, neighbours):
    """Breadth-first distances from symbol 1, for every symbol it reaches."""
    level = {1: 0}
    frontier = (1,)
    depth = 0
    while frontier and len(level) < n:
        depth += 1
        reached = set()
        for s in frontier:
            reached.update(neighbours(s))
        frontier = reached.difference(level)
        level.update(dict.fromkeys(frontier, depth))
    return level


def _strong_levels(n, followers, predecessors):
    """Forward BFS levels when the graph is strongly connected, else None."""
    level = _bfs_levels(n, followers)
    if len(level) < n or len(_bfs_levels(n, predecessors)) < n:
        return None
    return level


def _period(followers, level):
    """The period of a strongly connected graph from its BFS levels.

    The period is the gcd of level(u) + 1 - level(v) over all edges
    u -> v (Denardo, "Periods of connected networks", 1977); it is 0
    only for a single symbol without a loop.
    """
    g = 0
    at = level.__getitem__
    for u, lu in level.items():
        for lv in set(map(at, followers(u))):
            g = gcd(g, lu + 1 - lv)
        if g == 1:
            break
    return g


def is_irreducible(entries):
    """Return True iff the matrix is irreducible (its graph strongly connected).

    Takes a :class:`TransitionMatrix` or any square nonnegative
    array-like.  One breadth-first search forward and one backward from
    symbol 1, so the answer is exact and linear in the number of edges.
    By convention a single symbol is irreducible even without a loop.
    """
    return _strong_levels(*_graph(entries)) is not None


def is_primitive(entries):
    """Return True iff some power of the nonnegative matrix is positive.

    Takes a :class:`TransitionMatrix` or any square nonnegative
    array-like.  A matrix is primitive exactly when it is irreducible
    with period 1; the period comes from the breadth-first levels of the
    irreducibility search, so the cost is linear in the number of edges
    and no floating point is involved.
    """
    n, followers, predecessors = _graph(entries)
    level = _strong_levels(n, followers, predecessors)
    return level is not None and _period(followers, level) == 1


class TransitionMatrix:
    """A square 0/1 matrix presenting a one-sided shift of finite type.

    Construction validates that the matrix is square with integer 0/1
    entries and has no zero row or zero column (a stranded symbol would
    make the shift space be smaller than the alphabet suggests).  The
    matrix is stored as its transition graph, the follower and
    predecessor tuples of every symbol; :meth:`from_followers` builds it
    from the follower tuples directly.  Reducible or permutation
    matrices are representable; the predicate flags record those
    defects so callers can refuse a computation with an explanation
    instead of failing at parse time.

    Examples
    --------
    >>> A = TransitionMatrix([[1, 1], [1, 0]])
    >>> A.irreducible, A.primitive, A.permutation
    (True, True, False)
    >>> TransitionMatrix([[0, 1], [1, 0]]).primitive
    False
    >>> A.followers(2), A.predecessors(2)
    ((1,), (1,))
    """

    def __init__(self, entries):
        rows = _entry_rows(entries)
        symbols = range(1, len(rows) + 1)
        self._set_graph(
            tuple(tuple(compress(symbols, row)) for row in rows),
            tuple(tuple(compress(symbols, col)) for col in zip(*rows)),
        )

    @classmethod
    def from_followers(cls, followers):
        """Build the matrix from the follower tuple of each symbol.

        ``followers[i]`` lists the symbols that may follow symbol i + 1;
        each tuple must be strictly ascending and in range.  The same
        validation as for a dense matrix applies.
        """
        followers = tuple(tuple(fol) for fol in followers)
        n = len(followers)
        predecessors = [[] for _ in range(n)]
        for i, fol in enumerate(followers, 1):
            if not all(type(j) is int and 1 <= j <= n for j in fol) or any(
                a >= b for a, b in zip(fol, fol[1:])
            ):
                raise ValueError(
                    "followers of symbol %d must be ascending symbols in 1..%d, got %r"
                    % (i, n, fol)
                )
            for j in fol:
                predecessors[j - 1].append(i)
        self = cls.__new__(cls)
        self._set_graph(followers, tuple(map(tuple, predecessors)))
        return self

    def _set_graph(self, followers, predecessors):
        n = len(followers)
        if n < 2:
            raise ValueError("alphabet must have at least two symbols")
        for i in range(n):
            if not followers[i]:
                raise ValueError("row %d is zero: symbol %d has no follower" % (i + 1, i + 1))
            if not predecessors[i]:
                raise ValueError("column %d is zero: symbol %d has no predecessor" % (i + 1, i + 1))
        self.n = n
        self._followers = followers
        self._predecessors = predecessors
        self._follower_sets = tuple(map(frozenset, followers))

    @cached_property
    def entries(self):
        """The dense 0/1 matrix as a read-only int64 array, built on first use."""
        arr = np.zeros((self.n, self.n), dtype=np.int64)
        for i, fol in enumerate(self._followers):
            arr[i, [j - 1 for j in fol]] = 1
        arr.setflags(write=False)
        return arr

    @cached_property
    def irreducible(self):
        return is_irreducible(self)

    @cached_property
    def primitive(self):
        return is_primitive(self)

    @cached_property
    def permutation(self):
        # Within validated matrices every row has one follower iff the
        # matrix is a permutation (a doubled column would force a zero column).
        return all(len(fol) == 1 for fol in self._followers)

    def flags(self):
        return {
            "irreducible": self.irreducible,
            "primitive": self.primitive,
            "permutation": self.permutation,
        }

    def followers(self, symbol):
        """Symbols j with A(symbol, j) = 1, ascending."""
        return self._followers[symbol - 1]

    def follower_set(self, symbol):
        """Symbols j with A(symbol, j) = 1, as a frozenset for membership tests."""
        return self._follower_sets[symbol - 1]

    def predecessors(self, symbol):
        """Symbols i with A(i, symbol) = 1, ascending."""
        return self._predecessors[symbol - 1]

    def is_admissible(self, word):
        """True iff every symbol is in range and every step is allowed."""
        n, sets = self.n, self._follower_sets
        prev = None
        for s in word:
            if not (isinstance(s, int) and 1 <= s <= n):
                return False
            if prev is not None and s not in sets[prev - 1]:
                return False
            prev = s
        return True

    def check_word(self, word):
        word = tuple(word)
        if not self.is_admissible(word):
            raise ValueError("word %r is not admissible for this matrix" % (word,))
        return word

    def same_matrix(self, other):
        return self is other or (
            isinstance(other, TransitionMatrix)
            and self._followers == other._followers
        )

    def tolist(self):
        rows = []
        for fol in self._followers:
            row = [0] * self.n
            for j in fol:
                row[j - 1] = 1
            rows.append(row)
        return rows

    def __repr__(self):
        return "TransitionMatrix(%r)" % (self.tolist(),)


def enumerate_words(A, m, after=None):
    """All admissible words of length `m`, lexicographically sorted.

    With ``after`` set to a symbol, only the words that may follow it
    (those whose first symbol is a follower of ``after``).  ``m = 0``
    returns the single empty word.  The lexicographic order is what
    fixes determinism for every downstream index (the first-passage
    family and its inclusion matrix, for instance).

    Examples
    --------
    >>> A = TransitionMatrix([[1, 1], [1, 0]])
    >>> enumerate_words(A, 2)
    [(1, 1), (1, 2), (2, 1)]
    >>> enumerate_words(A, 2, after=2)
    [(1, 1), (1, 2)]
    """
    if m < 0:
        raise ValueError("word length must be nonnegative")
    if after is not None and not (isinstance(after, int) and 1 <= after <= A.n):
        raise ValueError("symbol %r out of range" % (after,))
    if m == 0:
        return [()]
    first = range(1, A.n + 1) if after is None else A.followers(after)
    words = [(i,) for i in first]
    for _ in range(m - 1):
        words = [w + (j,) for w in words for j in A.followers(w[-1])]
    return words


def higher_block(A, K):
    """The K-th higher block presentation of the shift.

    Vertices are the admissible K-words in lexicographic order; there is
    an edge from mu to nu exactly when the two words overlap in K-1
    symbols (``mu[1:] == nu[:-1]``).  Returns the new matrix together
    with the label table from new symbols to words.  ``K = 1`` returns
    `A` itself with identity labels.
    """
    if K < 1:
        raise ValueError("block length must be at least 1")
    if K == 1:
        return A, tuple((i,) for i in range(1, A.n + 1))
    words = enumerate_words(A, K)
    # In lexicographic order the K-words extending a (K-1)-word are
    # consecutive, so the followers of mu are one run of symbols: the
    # words starting with mu[1:].
    first, last = {}, {}
    for i, w in enumerate(words, 1):
        first.setdefault(w[:-1], i)
        last[w[:-1]] = i
    runs = {prefix: tuple(range(i, last[prefix] + 1)) for prefix, i in first.items()}
    return TransitionMatrix.from_followers(runs[w[1:]] for w in words), tuple(words)


def has_cycle_within(A, symbols):
    """Search for a directed cycle staying inside the symbol set.

    Returns the shortest such cycle as a word (lexicographically least
    among the shortest; the closing edge from last symbol back to first
    is admissible but not repeated), or None when the restricted graph
    is acyclic.  The full symbol set always yields a cycle, because a
    valid matrix has no zero row.
    """
    allowed = set(symbols)
    for s in allowed:
        if not (isinstance(s, int) and 1 <= s <= A.n):
            raise ValueError("symbol %r out of range" % (s,))
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


def _primitive_root(word):
    for d in range(1, len(word) + 1):
        if len(word) % d == 0 and word == word[:d] * (len(word) // d):
            return word[:d]
    return word


class PointSpec:
    """An eventually periodic point, given by a preperiod and a period.

    This is the finite stand-in for points of the shift space: the point
    is ``preperiod`` followed by infinitely many repetitions of
    ``period``.  Construction checks that the whole infinite sequence is
    admissible, including the wrap from the end of the period back to
    its start.

    Two specs describe the same point iff their canonical forms agree;
    canonicalization reduces the period to its primitive root and
    absorbs any preperiod tail that merely rotates the period.
    """

    def __init__(self, matrix, preperiod, period):
        self.matrix = matrix
        self.preperiod = matrix.check_word(preperiod)
        self.period = matrix.check_word(period)
        if not self.period:
            raise ValueError("period must be nonempty")
        head = self.period[0]
        if head not in matrix.follower_set(self.period[-1]):
            raise ValueError("period %r does not close up" % (self.period,))
        if self.preperiod and head not in matrix.follower_set(self.preperiod[-1]):
            raise ValueError("preperiod does not connect to period")

    def symbol(self, i):
        """The i-th symbol of the point, 1-based."""
        if i < 1:
            raise ValueError("positions are 1-based")
        if i <= len(self.preperiod):
            return self.preperiod[i - 1]
        return self.period[(i - len(self.preperiod) - 1) % len(self.period)]

    def window(self, offset, length):
        """The `length` symbols of the shifted point sigma^offset(.)."""
        return tuple(self.symbol(offset + 1 + i) for i in range(length))

    def shift(self, k):
        """The point shifted left k times, as a new PointSpec."""
        if k < 0:
            raise ValueError("shift offset must be nonnegative")
        if k <= len(self.preperiod):
            return PointSpec(self.matrix, self.preperiod[k:], self.period)
        r = (k - len(self.preperiod)) % len(self.period)
        return PointSpec(self.matrix, (), self.period[r:] + self.period[:r])

    def prepend(self, word):
        """The point `word` . self, validated at the splice."""
        word = tuple(word)
        return PointSpec(self.matrix, word + self.preperiod, self.period)

    def canonical(self):
        per = _primitive_root(self.period)
        pre = self.preperiod
        while pre and pre[-1] == per[-1]:
            per = (per[-1],) + per[:-1]
            pre = pre[:-1]
        return pre, per

    def __eq__(self, other):
        if not isinstance(other, PointSpec):
            return NotImplemented
        return (
            self.matrix.same_matrix(other.matrix)
            and self.canonical() == other.canonical()
        )

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        return "PointSpec(preperiod=%r, period=%r)" % (self.preperiod, self.period)
