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
in per-symbol follower sets.  ``entries``, the one place in the package
that uses NumPy, builds a dense array on each read and stores none, so
importing the package loads no NumPy.

Each derived view of the shift comes from one routine: the predecessor
tuples from the follower tuples (``TransitionMatrix._set_graph``), the
admissible words of one length, level by level (``_list_words``, behind
``enumerate_words`` and the table check of ``locfun``), and a point's
canonical form, in one pass over its preperiod (``PointSpec.canonical``).

Symbols are 1-based integers and words are plain tuples of symbols, so
alphabets with more than nine letters need no special casing.  All
values are immutable after construction and all functions are pure, so
concurrent use needs no coordination.
"""

from functools import cached_property
from itertools import compress
from math import gcd
from numbers import Integral
from sys import maxsize

__all__ = [
    "TransitionMatrix",
    "PointSpec",
    "enumerate_words",
    "higher_block",
    "has_cycle_within",
    "is_irreducible",
    "is_primitive",
]


_PLAIN_INT = frozenset({int})


def _integer(value, name, least=None):
    """`value` as a Python ``int``, if it is a genuine integer.

    This is the package's one integer gate: every count, bound, matrix
    entry, table value and ceiling passes through it, so no value is
    silently coerced.  A genuine integer is any ``numbers.Integral`` but
    ``bool``, NumPy integers included; anything else is refused with a
    ``ValueError`` naming it.  A value with a floor `least` (a count or
    a bound) is refused as "<name> must be a nonnegative integer" or
    "<name> must be an integer >= <least>", also when it is below the
    floor; a value without one (an entry of a table) as "<name> is
    <value>, not an integer".  The value is quoted by :func:`_excerpt`.
    """
    if type(value) is int and (least is None or value >= least):
        return value
    genuine = not isinstance(value, bool) and isinstance(value, Integral)
    if least is None:
        if not genuine:
            raise ValueError("%s is %s, not an integer" % (name, _excerpt(value)))
    elif not (genuine and value >= least):
        floor = "a nonnegative integer" if least == 0 else "an integer >= %d" % least
        raise ValueError("%s must be %s, not %s" % (name, floor, _excerpt(value)))
    return int(value)


_EXCERPT = 60


def _excerpt(value):
    """``repr(value)``, or its first ``_EXCERPT`` characters marked as cut.

    A refusal quotes the value it refuses, which may come from a file of
    any size; the excerpt keeps the message to one short line.  Python
    refuses to print an int of more than 4,300 digits, also inside a
    tuple or list; such a value is quoted by its size instead.
    """
    try:
        text = repr(value)
    except ValueError:
        if isinstance(value, int):
            sign = "a negative" if value < 0 else "an"
            return "<%s integer of %d bits>" % (sign, value.bit_length())
        return "<a %s holding an integer too long to print>" % type(value).__name__
    if len(text) <= _EXCERPT:
        return text
    return "%s... (%d characters, cut)" % (text[:_EXCERPT], len(text))


def _integers(values, name):
    """The values as a list of Python ints, each through :func:`_integer`.

    ``name(i)`` names the i-th value in a refusal.  The common all-``int``
    case costs one ``set(map(type, values))`` and no per-value call.
    """
    if not isinstance(values, list):
        values = list(values)
    if set(map(type, values)) <= _PLAIN_INT:
        return values
    return [v if type(v) is int else _integer(v, name(i)) for i, v in enumerate(values)]


def _int_rows(M):
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


def _graph(entries):
    """The size and the follower and predecessor lookups of a matrix.

    Accepts a :class:`TransitionMatrix` or any square matrix of
    integers, whose positive entries are the edges.  Any other matrix is
    read once through the integer gate :func:`_int_rows`, so a float,
    bool, string or null entry is refused naming its cell.  Each lookup
    maps a symbol to its neighbouring symbols as a list; for such a
    matrix they read one row, or one column, when asked, so a search
    that stops early never reads the rest.
    """
    if isinstance(entries, TransitionMatrix):
        return entries.n, entries.followers, entries.predecessors
    return _rows_graph(_int_rows(entries))


def _rows_graph(rows):
    """:func:`_graph` of a matrix already read by :func:`_int_rows`."""
    n = len(rows)
    if n == 0 or len(rows[0]) != n:
        raise ValueError("need a nonempty square matrix")
    symbols = range(1, n + 1)

    def followers(s):
        return [j for j, v in zip(symbols, rows[s - 1]) if v > 0]

    def predecessors(s):
        return [i for i, row in zip(symbols, rows) if row[s - 1] > 0]

    return n, followers, predecessors


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

    Takes a :class:`TransitionMatrix` or any square integer matrix,
    whose positive entries are the edges.  One breadth-first search
    forward and one backward from symbol 1, so the answer is exact and
    linear in the number of edges.
    By convention a single symbol is irreducible even without a loop.
    """
    return _strong_levels(*_graph(entries)) is not None


def is_primitive(entries):
    """Return True iff some power of the nonnegative matrix is positive.

    Takes a :class:`TransitionMatrix` or any square integer matrix,
    whose positive entries are the edges.  A matrix is primitive exactly
    when it is irreducible with period 1; the period comes from the
    breadth-first levels of the irreducibility search, so the cost is
    linear in the number of edges and no floating point is involved.
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
        rows = _int_rows(entries)
        n = len(rows)
        if n == 0 or len(rows[0]) != n:
            raise ValueError("transition matrix must be a square 2-D array")
        if not all(set(row) <= {0, 1} for row in rows):
            raise ValueError("transition matrix entries must all be 0 or 1")
        symbols = range(1, n + 1)
        self._set_graph(tuple(tuple(compress(symbols, row)) for row in rows))

    @classmethod
    def from_followers(cls, followers):
        """Build the matrix from the follower tuple of each symbol.

        ``followers[i]`` lists the symbols that may follow symbol i + 1;
        each tuple must be strictly ascending and in range.  The same
        validation as for a dense matrix applies.
        """
        followers = tuple(tuple(fol) for fol in followers)
        n = len(followers)
        for i, fol in enumerate(followers, 1):
            if not all(type(j) is int and 1 <= j <= n for j in fol) or any(
                a >= b for a, b in zip(fol, fol[1:])
            ):
                raise ValueError(
                    "followers of symbol %d must be ascending symbols in 1..%d, got %s"
                    % (i, n, _excerpt(fol))
                )
        return cls._from_graph(followers)

    @classmethod
    def _from_graph(cls, followers):
        # Follower tuples the package built ascending and in range, unchecked.
        self = cls.__new__(cls)
        self._set_graph(followers)
        return self

    def _set_graph(self, followers):
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
        self.n = n
        self._followers = followers
        self._predecessors = tuple(map(tuple, predecessors))
        self._follower_sets = tuple(map(frozenset, followers))

    @property
    def entries(self):
        """The dense 0/1 matrix as a new read-only int64 array, never stored.

        The package itself reads the follower tuples or ``tolist()``.  The
        one reader left is ``kgroups.random`` in ``perfbench/workloads.py``,
        and it is the only reason ``numpy`` is still a runtime dependency:
        this property and that dependency both go once the benchmark reads
        ``perron_value(A)`` instead.
        """
        import numpy as np
        arr = np.array(self.tolist(), dtype=np.int64)
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
            # ``type(s) is int`` is the symbol test of check_symbols: it
            # refuses bool, whose True would otherwise pass as symbol 1.
            if not (type(s) is int and 1 <= s <= n):
                return False
            if prev is not None and s not in sets[prev - 1]:
                return False
            prev = s
        return True

    def check_word(self, word):
        word = tuple(word)
        if not self.is_admissible(word):
            raise ValueError("word %s is not admissible for this matrix" % _excerpt(word))
        return word

    def check_symbols(self, symbols):
        """The symbols as a frozenset, each an ``int`` (not a ``bool``) in 1..n."""
        symbols = tuple(symbols)  # checked before a set could merge True into 1
        for s in symbols:
            if not (type(s) is int and 1 <= s <= self.n):
                raise ValueError("symbol %s out of range" % _excerpt(s))
        return frozenset(symbols)

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
    m = _integer(m, "m", 0)
    if after is not None:
        A.check_symbols((after,))
    if m == 0:
        return [()]
    return _list_words(A, range(1, A.n + 1) if after is None else A.followers(after), m)


def _list_words(A, first, m, cap=maxsize):
    """The first `cap` (by default all) admissible m-words from `first`, m >= 1."""
    words = [(i,) for i in first]
    del words[cap:]
    for _ in range(m - 1):
        words = [w + (j,) for w in words for j in A.followers(w[-1])]
        del words[cap:]
    return words


def higher_block(A, K):
    """The K-th higher block presentation of the shift.

    Vertices are the admissible K-words in lexicographic order; there is
    an edge from mu to nu exactly when the two words overlap in K-1
    symbols (``mu[1:] == nu[:-1]``).  Returns the new matrix together
    with the label table from new symbols to words.  ``K = 1`` returns
    `A` itself with identity labels.
    """
    K = _integer(K, "K", 1)
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
    return TransitionMatrix._from_graph(tuple(runs[w[1:]] for w in words)), tuple(words)


def has_cycle_within(A, symbols):
    """Search for a directed cycle staying inside the symbol set.

    Returns the shortest such cycle as a word, or None when the
    restricted graph is acyclic; the closing edge from last symbol back
    to first is admissible but not repeated.  Among the shortest cycles
    the answer has the least start, and among those it is
    lexicographically least.  The full symbol set always yields a cycle,
    because a valid matrix has no zero row.  One breadth-first walk per
    start costs O(|S| + E) time and O(|S|) memory, E counting the edges
    leaving S, so the whole search is O(|S| * (|S| + E)) time.
    """
    allowed = A.check_symbols(symbols)
    best = None
    for start in sorted(allowed):
        # Breadth-first order with ascending followers reaches every
        # symbol along its lexicographically least shortest path, so the
        # first symbol visited that closes up to start ends the least
        # shortest cycle through start.  Only a shorter one can win.
        parent, length = {start: None}, {start: 1}
        order = [start]
        for s in order:
            if best is not None and length[s] >= len(best):
                break
            if start in A.follower_set(s):
                cycle = []
                while s is not None:
                    cycle.append(s)
                    s = parent[s]
                best = tuple(reversed(cycle))
                break
            for j in A.followers(s):
                if j in allowed and j not in parent:
                    parent[j], length[j] = s, length[s] + 1
                    order.append(j)
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
            raise ValueError("period %s does not close up" % _excerpt(self.period))
        if self.preperiod and head not in matrix.follower_set(self.preperiod[-1]):
            raise ValueError("preperiod does not connect to period")

    def symbol(self, i):
        """The i-th symbol of the point, 1-based."""
        return self.window(_integer(i, "position", 1) - 1, 1)[0]

    def window(self, offset, length):
        """The `length` symbols of the shifted point sigma^offset(.)."""
        offset = _integer(offset, "offset", 0)
        pre, per = self.preperiod, self.period
        return tuple(
            pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]
            for i in range(offset, offset + _integer(length, "length", 0))
        )

    def shift(self, k):
        """The point shifted left k times, as a new PointSpec."""
        k = _integer(k, "k", 0)
        if k <= len(self.preperiod):
            return PointSpec._from_parts(self.matrix, self.preperiod[k:], self.period)
        r = (k - len(self.preperiod)) % len(self.period)
        return PointSpec._from_parts(self.matrix, (), self.period[r:] + self.period[:r])

    @classmethod
    def _from_parts(cls, matrix, preperiod, period):
        # A tail of an admissible point is admissible: built unchecked.
        self = cls.__new__(cls)
        self.matrix, self.preperiod, self.period = matrix, preperiod, period
        return self

    def prepend(self, word):
        """The point `word` . self, validated at the splice."""
        word = tuple(word)
        return PointSpec(self.matrix, word + self.preperiod, self.period)

    def canonical(self):
        per = _primitive_root(self.period)
        pre, p, k = self.preperiod, len(per), 0
        while k < len(pre) and pre[-1 - k] == per[-1 - k % p]:
            k += 1  # absorbed, and the period rotated one step to the right
        return pre[: len(pre) - k], per[-k % p :] + per[: -k % p]

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
