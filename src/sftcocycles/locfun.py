"""Integer-valued locally constant functions on a shift space.

A continuous integer function on a shift space depends on only finitely
many leading coordinates, so it is a total table over the admissible
words of some depth K.  This module provides that table type with a
canonical minimal-depth normal form, the ergodic sums f^n along words,
the unit coboundary transform b -> 1 - b + b(sigma .), indicator
functions of symbol sets and cylinders, evaluation at eventually
periodic points, sliding block codes, continuous-full-group elements,
and the transfer of a potential across an orbit equivalence.

Normalization makes function equality decidable: two functions are
equal iff their normalized tables coincide.  Everything here is pure
and immutable.
"""

from itertools import chain

from .sft import (
    _PLAIN_INT,
    PointSpec,
    TransitionMatrix,
    _excerpt,
    _excerpt_ends,
    _graph,
    _integer,
    _integers,
    _length,
    _list_words,
    _require,
    _tuple,
    enumerate_words,
)

__all__ = [
    "LocFun",
    "BlockCode",
    "FullGroupElement",
    "TransferIdentityError",
    "make_chi_H",
    "cocycle_sum",
    "coboundary_transform",
    "psi_transfer",
]


class TransferIdentityError(ValueError):
    """The supplied (k1, l1) pair fails the orbit-equivalence identity.

    ``witness`` holds a cylinder word on which the two sides disagree.
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class LocFun:
    """A locally constant integer function, stored as a depth-K table.

    Parameters
    ----------
    matrix : TransitionMatrix
        The shift the function lives on.
    depth : int
        Number of leading coordinates the table reads, at least 1.
    table : dict
        Total mapping from every admissible `depth`-word to an integer.

    The constructor checks tables from outside the package: the table
    must be a dict, the depth and every value genuine integers, and
    anything else is refused with a ``ValueError`` naming it, and so is a
    table whose keys are not exactly the admissible words.  A function the package derives
    from ones it holds (sums, shifts, indicators, coboundaries,
    transfers) is tabulated once over the admissible words, unchecked.
    Either way the table is normalized to the minimal depth representing
    the same function, so equality of functions is equality of tables.

    Examples
    --------
    >>> A = TransitionMatrix([[1, 1], [1, 0]])
    >>> f = LocFun(A, 2, {(1, 1): 5, (1, 2): 5, (2, 1): 5})
    >>> f.depth, f.is_constant()
    (1, True)
    """

    def __init__(self, matrix, depth, table):
        _require(matrix, TransitionMatrix, "matrix")
        depth = _length(depth, "depth", 1)
        words, values = _table_values(matrix, depth, _require(table, dict, "table"), "table")
        values = _integers(values, lambda i: "value on the word %s" % _excerpt(words[i]))
        depth, cleaned = _normalize(depth, dict(zip(words, values)))
        self.matrix = matrix
        self.depth = depth
        self.table = cleaned

    @classmethod
    def _tabulate(cls, matrix, depth, value):
        # The derived function w -> value(w) on the admissible depth-words,
        # listed once; its values are integers by construction.
        return cls._from_table(
            matrix, depth, {w: value(w) for w in enumerate_words(matrix, depth)}
        )

    @classmethod
    def _from_table(cls, matrix, depth, table):
        # A table the package built over the admissible depth-words in
        # lexicographic order (as _normalize needs), normalized unchecked.
        self = cls.__new__(cls)
        self.matrix = matrix
        self.depth, self.table = _normalize(depth, table)
        return self

    @classmethod
    def constant(cls, matrix, value):
        _require(matrix, TransitionMatrix, "matrix")
        return cls(matrix, 1, {(i,): value for i in range(1, matrix.n + 1)})

    @classmethod
    def indicator_cylinder(cls, matrix, mu):
        """The indicator of the cylinder set of the word `mu`."""
        mu = _require(matrix, TransitionMatrix, "matrix").check_word(mu)
        if not mu:
            return cls.constant(matrix, 1)
        return cls._tabulate(matrix, len(mu), lambda w: 1 if w == mu else 0)

    def value_on(self, word):
        """The constant value on the cylinder of `word` (len >= depth)."""
        try:
            if len(word) >= self.depth:
                key = tuple(word[: self.depth])
                # A bool equals 1 and would find the entry of an int word.
                if set(map(type, key)) <= _PLAIN_INT:
                    return self.table[key]
                raise KeyError(key)
        except (TypeError, KeyError):
            # Not a word, or one that is not admissible: refuse it by name.
            self.matrix.check_word(word)
            raise
        raise ValueError(
            "word of length %d does not determine a depth-%d function" % (len(word), self.depth)
        )

    def eval_point(self, point, offset=0):
        """Value of the function at sigma^offset of an eventually periodic point."""
        _check_shift(self.matrix, self, point)
        return self.value_on(point.window(offset, self.depth))

    def shifted(self):
        """The composition with the shift, f(sigma .), depth at most K+1."""
        return LocFun._tabulate(self.matrix, self.depth + 1, lambda w: self.table[w[1:]])

    def values(self):
        return sorted(set(self.table.values()))

    def is_constant(self):
        return len(set(self.table.values())) == 1

    def min_value(self):
        return min(self.table.values())

    def max_value(self):
        return max(self.table.values())

    def base_normalized(self):
        """Shift by a constant so the lexicographically least word maps to 0."""
        least = min(self.table)
        return self + (-self.table[least])

    def _binary(self, other, op):
        if isinstance(other, int):
            other = LocFun.constant(self.matrix, other)
        if not isinstance(other, LocFun):
            return NotImplemented
        if not self.matrix.same_matrix(other.matrix):
            raise ValueError("functions live on different shift spaces")
        left, right, j, k = self.table, other.table, self.depth, other.depth
        return LocFun._tabulate(self.matrix, max(j, k), lambda w: op(left[w[:j]], right[w[:k]]))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __neg__(self):
        return LocFun._tabulate(self.matrix, self.depth, lambda w: -self.table[w])

    def __rmul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        scalar = _integer(scalar, "scalar")  # refuses a bool, as f + True does
        return LocFun._tabulate(self.matrix, self.depth, lambda w: scalar * self.table[w])

    def __eq__(self, other):
        if not isinstance(other, LocFun):
            return NotImplemented
        return (
            self.matrix.same_matrix(other.matrix)
            and self.depth == other.depth
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.depth, tuple(sorted(self.table.items()))))

    def __repr__(self):
        items = ", ".join("%r: %d" % (w, v) for w, v in sorted(self.table.items()))
        return "LocFun(depth=%d, {%s})" % (self.depth, items)

    def as_dict(self):
        return {
            "depth": self.depth,
            "values": {
                ",".join(str(s) for s in w): v for w, v in sorted(self.table.items())
            },
        }


def _check_shift(A, f, *points):
    """Refuse an A, f or point z of the wrong type, or an f or z off the shift A."""
    # Once per membership split: the gate is called on a miss only.
    if not (isinstance(A, TransitionMatrix) and isinstance(f, LocFun)):
        _require(A, TransitionMatrix, "A")
        _require(f, LocFun, "f")
    if not A.same_matrix(f.matrix):
        raise ValueError("f must live on the shift A")
    for z in points:
        _check_point(A, z)


def _check_point(A, z):
    """Refuse a z that is not a point of the shift A."""
    if not A.same_matrix(_require(z, PointSpec, "z").matrix):
        raise ValueError("z must be a point of the shift A")


def _table_values(A, m, table, name):
    """The admissible m-words in order, and the table's values on them.

    The keys must be exactly those words, tuples of ``int`` symbols.  A
    complete table passes one gate: one listing of the words, one lookup
    per word, a count of the keys and one C-level pass,
    ``set(map(type, ...))``, over the symbols of all keys.  The listing
    stops at the first length with more words than keys.  Only a table
    that fails the gate is walked key by key, to refuse it by name: a
    table without a single m-tuple key first, then the least admissible
    word missed, named by :func:`_first_gap` in one sweep, then the keys
    that are not admissible words.
    """
    words = _list_words(A, range(1, A.n + 1), m, len(table))
    try:
        values = None if words is None else [table[w] for w in words]
    except KeyError:
        values = None
    if (
        values
        and len(table) == len(words)
        and set(map(type, chain.from_iterable(table))) <= _PLAIN_INT
    ):
        return words, values
    if not any(isinstance(w, tuple) and len(w) == m for w in table):
        raise ValueError("%s is missing every admissible word of length %d" % (name, m))
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


def _normalize(depth, table):
    # In lexicographic order each cylinder is a run of neighbours, so the
    # function reads one symbol past the longest prefix that two
    # neighbouring words with different values share.
    need, prev, before = 1, (), None
    for w, v in table.items():
        if v != before and w[:need] == prev[:need]:
            need += 1
            while w[need - 1] == prev[need - 1]:
                need += 1
            if need == depth:
                return depth, table
        prev, before = w, v
    return need, (table if need == depth else {w[:need]: v for w, v in table.items()})


def make_chi_H(A, H):
    """The depth-1 indicator of the symbol set H (1 on H, 0 elsewhere)."""
    H = _require(A, TransitionMatrix, "A").check_symbols(H)
    return LocFun._tabulate(A, 1, lambda w: 1 if w[0] in H else 0)


def cocycle_sum(f, word, n):
    """The ergodic sum f^n on the cylinder of `word`.

    This is sum(f(sigma^i x) for i < n) for any point x starting with
    `word`; the i-th term reads symbols i+1 .. i+K of the word, so the
    word must have length at least n + depth(f) - 1.  ``n = 0`` returns
    0.

    Examples
    --------
    >>> A = TransitionMatrix([[1, 1], [1, 0]])
    >>> f = LocFun(A, 2, {(1, 1): 2, (1, 2): -1, (2, 1): 0})
    >>> cocycle_sum(f, (1, 1, 2, 1, 1), 3)
    1
    """
    _require(f, LocFun, "f")
    n = _length(n, "n", 0)
    word = f.matrix.check_word(word)
    if n == 0:
        return 0
    if len(word) < n + f.depth - 1:
        raise ValueError(
            "word of length %d is too short for f^%d at depth %d"
            % (len(word), n, f.depth)
        )
    return _window_sum(f, word, n)


def _window_sum(f, word, n):
    """f^n read off an admissible word of length at least n + depth(f) - 1."""
    K, table, total = f.depth, f.table, 0
    for i in range(n):
        total += table[word[i : i + K]]
    return total


def coboundary_transform(b):
    """The unit coboundary 1 - b + b(sigma .) attached to the potential b."""
    K, table = _require(b, LocFun, "b").depth, b.table
    return LocFun._tabulate(b.matrix, K + 1, lambda w: 1 - table[w[:K]] + table[w[1:]])


class BlockCode:
    """A sliding block code between two shift spaces.

    The code reads a window of `window` source symbols and emits one
    target symbol, so it sends admissible source words of length
    m + window - 1 to admissible target words of length m; the
    constructor checks that one-step compatibility, which propagates to
    all lengths.  Sliding codes commute with the shifts.  Inverses, when
    they exist, are supplied by the caller as a second code; deciding
    invertibility is out of scope here.  The window and every table
    value must be genuine integers, and the table's keys exactly the
    admissible source words; anything else is refused with a
    ``ValueError`` naming it.
    """

    def __init__(self, source, target, window, table):
        _require(source, TransitionMatrix, "source")
        _require(target, TransitionMatrix, "target")
        window = _length(window, "window", 1)
        words, values = _table_values(source, window, _require(table, dict, "table"), "code table")
        values = _integers(
            values, lambda i: "code value on the source word %s" % _excerpt(words[i])
        )
        for s in values:
            if not 1 <= s <= target.n:
                raise ValueError("code emits out-of-range symbol %d" % s)
        self.source = source
        self.target = target
        self.window = window
        self.table = dict(zip(words, values))
        for w in enumerate_words(source, window + 1):
            a, b = self.table[w[:window]], self.table[w[1:]]
            if b not in target._follower_sets[a - 1]:
                raise ValueError(
                    "code image of %s is not admissible in the target" % _excerpt(w)
                )

    def input_length(self, m):
        return m + self.window - 1

    def image_prefix(self, word, m):
        """First m symbols of the image of any point starting with `word`."""
        if len(word) < self.input_length(m):
            raise ValueError("need %d source symbols, got %d" % (self.input_length(m), len(word)))
        return tuple(self.table[tuple(word[i : i + self.window])] for i in range(m))

    def apply(self, word):
        return self.image_prefix(word, len(word) - self.window + 1)


class FullGroupElement:
    """A homeomorphism of the shift given by finitely many prefix swaps.

    The element is a finite list of rules (src, dst): a point starting
    with src is sent to dst followed by the same tail.  Sources must
    partition the space, targets must partition it too, and the last
    symbols of src and dst must have the same follower set, so every
    admissible tail of src is an admissible tail of dst and the result
    is a homeomorphism moving each point only within its orbit.  These
    are exactly the finite descriptions of continuous-full-group
    elements, and they are not sliding codes in general.
    """

    def __init__(self, matrix, rules):
        _require(matrix, TransitionMatrix, "matrix")
        rules = _tuple(rules, "rules")
        self.matrix = matrix
        self.source = matrix
        self.target = matrix
        cleaned = []
        for rule in rules:
            try:
                src, dst = (tuple(word) for word in rule)
            except (TypeError, ValueError):
                raise ValueError(
                    "rule %s is not a (src, dst) pair of words" % _excerpt(rule)
                ) from None
            src, dst = matrix.check_word(src), matrix.check_word(dst)
            if not src or not dst:
                raise ValueError("rule words must be nonempty")
            if matrix.followers(src[-1]) != matrix.followers(dst[-1]):
                raise ValueError(
                    "rule %s -> %s does not preserve the follower set"
                    % (_excerpt(src), _excerpt(dst))
                )
            cleaned.append((src, dst))
        if not cleaned:
            raise ValueError("a full-group element needs at least one rule")
        self.rules = tuple(sorted(cleaned))
        _check_partition(matrix, [src for src, _ in self.rules], "source")
        _check_partition(matrix, [dst for _, dst in self.rules], "target")
        self.max_src = max(len(src) for src, _ in self.rules)
        self.max_dst = max(len(dst) for _, dst in self.rules)

    def rule_for(self, word):
        for src, dst in self.rules:
            if tuple(word[: len(src)]) == src:
                return src, dst
        raise ValueError("word %s too short to select a rule" % _excerpt(tuple(word)))

    def input_length(self, m):
        return self.max_src + m

    def image_prefix(self, word, m):
        if len(word) < self.input_length(m):
            raise ValueError("need %d source symbols, got %d" % (self.input_length(m), len(word)))
        src, dst = self.rule_for(word)
        out = dst + tuple(word[len(src) :])
        return out[:m]

    def apply_point(self, point):
        _check_point(self.matrix, point)
        pre = point.window(0, self.max_src)
        src, dst = self.rule_for(pre)
        shifted = point.shift(len(src))
        return shifted.prepend(dst)

    def _runs(self, depth):
        # Each admissible depth-word (depth >= max_src) with its rule, in
        # lexicographic order: each sorted source's cylinder is one run.
        for src, dst in self.rules:
            for tail in enumerate_words(self.matrix, depth - len(src), after=src[-1]):
                yield src + tail, src, dst

    def cocycle_function(self):
        """The cocycle d = |src| - |dst|: sigma^|dst|(tau x) = sigma^|src|(x)."""
        table = {w: len(src) - len(dst) for w, src, dst in self._runs(self.max_src)}
        return LocFun._from_table(self.matrix, self.max_src, table)

    def coe_pair(self):
        """Minimal (k1, l1) with sigma^k1(tau(sigma x)) = sigma^l1(tau x).

        Both sides are a rewritten prefix followed by a shifted tail of
        x, so matching the tail offsets gives the smallest nonnegative
        exponents cylinder by cylinder.
        """
        depth = 1 + self.max_src
        k_table, l_table = {}, {}
        for w, src, dst in self._runs(depth):
            src2, dst2 = self.rule_for(w[1:])
            delta = 1 + len(src2) - len(src)
            if delta >= 0:
                l_table[w] = len(dst) + delta
                k_table[w] = len(dst2)
            else:
                l_table[w] = len(dst)
                k_table[w] = len(dst2) - delta
        return (
            LocFun._from_table(self.matrix, depth, k_table),
            LocFun._from_table(self.matrix, depth, l_table),
        )


def _check_partition(matrix, words, role):
    words = sorted(words)
    for a, b in zip(words, words[1:]):
        if b[: len(a)] == a:
            pair = (role, _excerpt(a), _excerpt(b))
            raise ValueError("%s cylinders overlap: %s is a prefix of %s" % pair)
    gap = _first_gap(matrix, words, max(len(w) for w in words))
    if gap is not None:
        raise ValueError("%s cylinders do not cover the word %s" % (role, _excerpt(gap)))


def _first_gap(matrix, words, depth):
    """The least admissible depth-word outside the cylinders of `words`, or None.

    Sorted prefix-free admissible words, at most `depth` long, tile in turn:
    each is the gap (the least uncovered word) extended by least followers,
    and the next gap is the next sibling of its deepest symbol with one.
    """
    follow, gap = _graph(matrix)[1], (1,)
    for w in words:
        k = len(gap)
        if w[:k] != gap or any(b != follow(a)[0] for a, b in zip(w[k - 1 :], w[k:])):
            break
        for j in range(len(w) - 1, -1, -1):
            siblings = follow(w[j - 1]) if j else range(1, matrix.n + 1)
            if w[j] != siblings[-1]:
                gap = w[:j] + (siblings[siblings.index(w[j]) + 1],)
                break
        else:
            return None
    gap = list(gap)
    while len(gap) < depth:
        gap.append(follow(gap[-1])[0])
    return tuple(gap)


def _tail_form(h, word, drop):
    # sigma^drop of the image of a point starting with `word`, written as
    # (explicit symbols, offset into the point's own tail).
    src, dst = h.rule_for(word)
    return dst[drop:], len(src) + max(0, drop - len(dst))


def _verify_full_group_identity(h, k1, l1):
    # Both sides of the identity are a stream: an explicit word followed
    # by the point's own tail from some offset.  The rules, the offsets
    # and k1, l1 read only the first `depth` symbols, so each
    # depth-cylinder is checked on its own.  Unequal net offsets fail at
    # once.  With an equal net offset t both streams read w at index
    # t + j as their j-th symbol, so only the first m symbols can differ.
    # An explicit word is nonempty only at an offset that is a source
    # length (plus one on the left), so for m > 0 the longer stream's
    # offset t + m is at most 1 + max_src <= depth: the compared symbols
    # lie in the cylinder, and no longer word can change its verdict.
    # The cylinders come lazily, so a refusal lists no word past its own.
    depth = max(k1.depth, l1.depth, 1 + h.max_src)
    for cyl, src, dst in h._runs(depth):
        kv, lv = k1.value_on(cyl), l1.value_on(cyl)
        left_word, left_off = _tail_form(h, cyl[1:], kv)
        left_off += 1
        right_word, right_off = dst[lv:], len(src) + max(0, lv - len(dst))
        m = max(len(left_word), len(right_word))
        if left_off - len(left_word) != right_off - len(right_word) or (
            (left_word + cyl[left_off : left_off + m])[:m]
            != (right_word + cyl[right_off : right_off + m])[:m]
        ):
            raise TransferIdentityError(
                "orbit-equivalence identity fails on the cylinder %s" % _excerpt(cyl),
                witness=cyl,
            )


def _verify_block_code_identity(h, k1, l1):
    # A sliding code commutes with the shift, so the identity collapses
    # to l1 = k1 + 1 cylinder by cylinder.
    depth = max(k1.depth, l1.depth)
    for w in enumerate_words(h.source, depth):
        if l1.value_on(w) != k1.value_on(w) + 1:
            raise TransferIdentityError(
                "orbit-equivalence identity fails on the cylinder %s "
                "(a sliding code needs l1 = k1 + 1)" % _excerpt(w),
                witness=w,
            )


def psi_transfer(g, h, k1, l1):
    """Transfer the potential g on the target shift back across h.

    Given the orbit-equivalence data (k1, l1) for h, the transferred
    function evaluates, at a point x, the inclusive sums of g along the
    image orbit::

        sum(g(sigma^i(h x)) for i in 0..l1(x))
        - sum(g(sigma^j(h(sigma x))) for j in 0..k1(x))

    Once (k1, l1) pass the identity sigma^k1(h sigma x) = sigma^l1(h x),
    the last terms of the two sums cancel, and the rest reads neither k1
    nor l1.  For a sliding code, which commutes with the shift, it is
    g o h, of depth g.depth + window - 1.  For a full-group element it is
    g + G - G(sigma .) with G(x) = g^|dst|(h x) - g^|src|(x), of depth
    max_src + g.depth (G reads one symbol less).

    Raises
    ------
    TransferIdentityError
        If (k1, l1) fail the orbit-equivalence identity for h; the
        offending cylinder word is attached as ``witness``.

    Examples
    --------
    The transfer of the constant 1 is the unit coboundary 1 - d + d(sigma .)
    of the element's cocycle d = |src| - |dst|:

    >>> A = TransitionMatrix([[1, 1], [1, 1]])
    >>> tau = FullGroupElement(A, [((1, 1), (1,)), ((1, 2), (2, 1)), ((2,), (2, 2))])
    >>> k1, l1 = tau.coe_pair()
    >>> one = LocFun.constant(A, 1)
    >>> psi_transfer(one, tau, k1, l1) == coboundary_transform(tau.cocycle_function())
    True
    """
    if not isinstance(h, (BlockCode, FullGroupElement)):
        raise TypeError("h must be a BlockCode or a FullGroupElement")
    A = h.source
    if not _require(g, LocFun, "g").matrix.same_matrix(h.target):
        raise ValueError("g must live on the target shift of h")
    for fn, name in ((k1, "k1"), (l1, "l1")):
        if not _require(fn, LocFun, name).matrix.same_matrix(A):
            raise ValueError("%s must live on the source shift of h" % name)
        if fn.min_value() < 0:
            raise ValueError("%s must take nonnegative values" % name)
    if isinstance(h, FullGroupElement):
        _verify_full_group_identity(h, k1, l1)
        return _full_group_transfer(g, h)
    _verify_block_code_identity(h, k1, l1)
    depth = h.input_length(g.depth)
    return LocFun._tabulate(A, depth, lambda w: g.table[h.apply(w)])


def _full_group_transfer(g, h):
    # G(x) = g^|dst|(h x) - g^|src|(x) sums g up to where h x and x
    # reach the same tail, so the transfer is g + G - G(sigma .).
    A, K = h.matrix, g.depth
    G = {}
    for w, src, dst in h._runs(h.max_src + K - 1):
        G[w] = _window_sum(g, dst + w[len(src) :], len(dst)) - _window_sum(g, w, len(src))
    return LocFun._tabulate(A, h.max_src + K, lambda w: g.table[w[:K]] + G[w[:-1]] - G[w[1:]])
