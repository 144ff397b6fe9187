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
in per-symbol follower sets.  The package depends on nothing outside
the standard library: a NumPy array from outside is read once into rows
of Python ints, and no module imports NumPy.

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

from collections import Counter
from functools import cached_property
from itertools import compress, count
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


def _require(value, kind, name):
    """`value`, if it is a `kind`; else a ``ValueError`` naming it.

    This is the package's one type gate: every public function and
    constructor passes each argument that must be one of the package's
    objects (a matrix, function, point, bisection, code or tower) through
    it at entry, before any attribute is read, so a value of the wrong
    type is refused as "<name> must be a <Kind>" instead of failing on an
    attribute it lacks.  The few entries called once per product or split
    test ``isinstance`` inline and call it on a miss only.
    """
    if isinstance(value, kind):
        return value
    raise ValueError("%s must be a %s" % (name, kind.__name__))


def _tuple(values, name):
    """`values` as a tuple; a value that is not iterable is refused by name.

    The gate of every word, symbol set and list argument.  A ``TypeError``
    raised while iterating an iterable is passed on as it is.
    """
    try:
        return tuple(values)
    except TypeError:
        try:
            iter(values)
        except TypeError:
            raise ValueError("%s must be an iterable, not %s" % (name, _excerpt(values))) from None
        raise


def _length(value, name, least):
    """:func:`_integer` of `value` with the floor `least`, and at most ``sys.maxsize``.

    The gate of a count that sets the size of what a call builds: a
    word's length, a number of levels or of search steps.  No sequence is
    longer than ``sys.maxsize``, so a larger count is refused by name at
    once, where it would fail on an index or run until memory ran out.
    """
    value = _integer(value, name, least)
    if value > maxsize:
        raise ValueError("%s must be at most %d, not %s" % (name, maxsize, _excerpt(value)))
    return value


_EXCERPT = 60


def _excerpt(value):
    """``repr(value)``, or its first ``_EXCERPT`` characters marked as cut.

    A refusal quotes the value it refuses, which may come from a file of
    any size; the excerpt keeps the message to one short line.  Python
    refuses to print an int of more than 4,300 digits, also inside a
    tuple or list; such a value is quoted by its size instead.  A value
    nested too deeply for ``repr`` is quoted by its type.
    """
    try:
        text = repr(value)
    except ValueError:
        if isinstance(value, int):
            sign = "a negative" if value < 0 else "an"
            return "<%s integer of %d bits>" % (sign, value.bit_length())
        return "<a %s holding an integer too long to print>" % type(value).__name__
    except RecursionError:
        return "<a %s nested too deeply to print>" % type(value).__name__
    if len(text) <= _EXCERPT:
        return text
    return "%s... (%d characters, cut)" % (text[:_EXCERPT], len(text))


def _excerpt_ends(word):
    """``repr(word)``, or its two ends marked as cut.

    Like :func:`_excerpt`, but a cut keeps the last ``_EXCERPT // 2``
    characters too, since a word's last symbols show where it leaves a
    table.  A word's symbols are small ints, so its repr always prints.
    """
    text = repr(word)
    if len(text) <= _EXCERPT:
        return text
    head, tail = text[:_EXCERPT], text[-(_EXCERPT // 2) :]
    return "%s...%s (%d characters, cut)" % (head, tail, len(text))


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


def _components(n, followers):
    """The strongly connected component of each symbol: s lies in ``comp[s - 1]``.

    Tarjan's algorithm (SIAM J. Comput. 1, 1972), iterative: it reads
    each edge once through ``followers`` and needs no recursion.
    """
    comp, index, low, clock = [None] * n, [0] * n, [0] * n, count(1)
    stack, label = [], 0
    for root in range(1, n + 1):
        work = [] if index[root - 1] else [(root, None)]
        while work:
            v, edges = work.pop()
            if edges is None:  # v is entered
                index[v - 1] = low[v - 1] = next(clock)
                stack.append(v)
                edges = iter(followers(v))
            for w in edges:
                if not index[w - 1]:
                    work += [(v, edges), (w, None)]
                    break
                if comp[w - 1] is None:  # w is still on the stack
                    low[v - 1] = min(low[v - 1], index[w - 1])
            else:
                if work:  # v's low passes to its parent
                    u = work[-1][0]
                    low[u - 1] = min(low[u - 1], low[v - 1])
                if low[v - 1] == index[v - 1]:
                    while comp[v - 1] is None:
                        comp[stack.pop() - 1] = label
                    label += 1
    return comp


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
        followers = tuple(
            _tuple(fol, "followers of symbol %d" % i)
            for i, fol in enumerate(_tuple(followers, "followers"), 1)
        )
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
        """The matrix as ``tolist()`` gives it: new rows on each read, never stored.

        The package itself reads the follower tuples or ``tolist()``.  This
        name stays only for the one reader left, ``kgroups.random`` in
        ``perfbench/workloads.py``; ROADMAP item 2 switches that read to
        ``perron_value(A)`` and deletes the name.
        """
        return self.tolist()

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
        if type(word) is not tuple:
            word = _tuple(word, "word")
        if not self.is_admissible(word):
            raise ValueError("word %s is not admissible for this matrix" % _excerpt(word))
        return word

    def check_symbols(self, symbols):
        """The symbols as a frozenset, each an ``int`` (not a ``bool``) in 1..n."""
        symbols = _tuple(symbols, "symbols")  # checked before a set could merge True into 1
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
    _require(A, TransitionMatrix, "A")
    m = _length(m, "m", 0)
    if after is not None:
        A.check_symbols((after,))
    if m == 0:
        return [()]
    return _list_words(A, range(1, A.n + 1) if after is None else A.followers(after), m)


def _list_words(A, first, m, cap=maxsize):
    """The admissible m-words from `first` (m >= 1); None once a length has more than `cap`."""
    words = [(i,) for i in first]
    while len(words) <= cap and len(words[0]) < m:
        words = [w + (j,) for w in words for j in A.followers(w[-1])]
    return words if len(words) <= cap else None


def higher_block(A, K):
    """The K-th higher block presentation of the shift.

    Vertices are the admissible K-words in lexicographic order; there is
    an edge from mu to nu exactly when the two words overlap in K-1
    symbols (``mu[1:] == nu[:-1]``).  Returns the new matrix together
    with the label table from new symbols to words.  ``K = 1`` returns
    `A` itself with identity labels.
    """
    _require(A, TransitionMatrix, "A")
    K = _length(K, "K", 1)
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


def _cyclic(A, allowed):
    """The symbols of the set `allowed` that lie on a cycle inside it, ascending.

    A symbol does exactly when its strong component in the set has two
    symbols or a loop; one pass of :func:`_components` finds them in
    O(n + E) time, E counting the edges leaving the set.
    """
    comp = _components(A.n, lambda s: allowed.intersection(A.followers(s)) if s in allowed else ())
    size = Counter(comp)
    return sorted(s for s in allowed if size[comp[s - 1]] > 1 or s in A.follower_set(s))


def has_cycle_within(A, symbols):
    """Search for a directed cycle staying inside the symbol set.

    Returns the shortest such cycle as a word, or None when the
    restricted graph is acyclic; the closing edge from last symbol back
    to first is admissible but not repeated.  Among the shortest cycles
    the answer has the least start, and among those it is
    lexicographically least.  The full symbol set always yields a cycle,
    because a valid matrix has no zero row.  Only a start whose strong
    component in S has two symbols or a loop lies on a cycle: finding the
    components takes O(n + E) time, E counting the edges leaving S, and
    one breadth-first walk per such start O(|S| + E) time and O(|S|) memory.
    """
    allowed = _require(A, TransitionMatrix, "A").check_symbols(symbols)
    best = None
    for start in _cyclic(A, allowed):
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
        self.matrix = _require(matrix, TransitionMatrix, "matrix")
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
        length = _length(length, "length", 0)
        pre, per = self.preperiod, self.period
        head = pre[offset : offset + length]
        need = length - len(head)
        if not need:
            return head
        # The rest reads the period from the phase where the window leaves
        # the preperiod, through as many repetitions as it spans.
        start = max(offset - len(pre), 0) % len(per)
        return head + (per * -(-(start + need) // len(per)))[start : start + need]

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
        word = _tuple(word, "word")
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
