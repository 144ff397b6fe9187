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

from .sft import TransitionMatrix, enumerate_words

__all__ = [
    "LocFun",
    "BlockCode",
    "FullGroupElement",
    "TransferIdentityError",
    "make_chi_H",
    "cocycle_sum",
    "coboundary_transform",
    "eval_on_point",
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

    The constructor normalizes to the minimal depth representing the
    same function, so equality of functions is equality of tables.

    Examples
    --------
    >>> A = TransitionMatrix([[1, 1], [1, 0]])
    >>> f = LocFun(A, 2, {(1, 1): 5, (1, 2): 5, (2, 1): 5})
    >>> f.depth, f.is_constant()
    (1, True)
    """

    def __init__(self, matrix, depth, table):
        if not isinstance(matrix, TransitionMatrix):
            raise ValueError("matrix must be a TransitionMatrix")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        words = enumerate_words(matrix, depth)
        cleaned = {}
        for w in words:
            if w not in table:
                raise ValueError("table is missing the admissible word %r" % (w,))
            cleaned[w] = int(table[w])
        if len(table) != len(words):
            extra = set(table) - set(words)
            raise ValueError("table has entries for inadmissible words: %r" % (sorted(extra),))
        depth, cleaned = _normalize(depth, cleaned)
        self.matrix = matrix
        self.depth = depth
        self.table = cleaned

    @classmethod
    def constant(cls, matrix, value):
        return cls(matrix, 1, {(i,): value for i in range(1, matrix.n + 1)})

    @classmethod
    def indicator_cylinder(cls, matrix, mu):
        """The indicator of the cylinder set of the word `mu`."""
        mu = matrix.check_word(mu)
        if not mu:
            return cls.constant(matrix, 1)
        table = {w: (1 if w == mu else 0) for w in enumerate_words(matrix, len(mu))}
        return cls(matrix, len(mu), table)

    def value_on(self, word):
        """The constant value on the cylinder of `word` (len >= depth)."""
        if len(word) < self.depth:
            raise ValueError(
                "word of length %d does not determine a depth-%d function"
                % (len(word), self.depth)
            )
        return self.table[tuple(word[: self.depth])]

    def eval_point(self, point, offset=0):
        return self.value_on(point.window(offset, self.depth))

    def shifted(self):
        """The composition with the shift, f(sigma .), depth at most K+1."""
        table = {}
        for w in enumerate_words(self.matrix, self.depth + 1):
            table[w] = self.table[w[1:]]
        return LocFun(self.matrix, self.depth + 1, table)

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

    def _lift(self, depth):
        if depth == self.depth:
            return self.table
        return {
            w: self.table[w[: self.depth]]
            for w in enumerate_words(self.matrix, depth)
        }

    def _binary(self, other, op):
        if isinstance(other, int):
            other = LocFun.constant(self.matrix, other)
        if not isinstance(other, LocFun):
            return NotImplemented
        if not self.matrix.same_matrix(other.matrix):
            raise ValueError("functions live on different shift spaces")
        depth = max(self.depth, other.depth)
        left, right = self._lift(depth), other._lift(depth)
        return LocFun(self.matrix, depth, {w: op(left[w], right[w]) for w in left})

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __neg__(self):
        return LocFun(self.matrix, self.depth, {w: -v for w, v in self.table.items()})

    def __rmul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return LocFun(self.matrix, self.depth, {w: scalar * v for w, v in self.table.items()})

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


def _normalize(depth, table):
    # Drop the last coordinate while every (depth-1)-cylinder is constant.
    while depth > 1:
        reduced = {}
        ok = True
        for w, v in table.items():
            p = w[:-1]
            if p in reduced and reduced[p] != v:
                ok = False
                break
            reduced[p] = v
        if not ok:
            break
        depth, table = depth - 1, reduced
    return depth, table


def make_chi_H(A, H):
    """The depth-1 indicator of the symbol set H (1 on H, 0 elsewhere)."""
    H = set(H)
    for s in H:
        if not (isinstance(s, int) and 1 <= s <= A.n):
            raise ValueError("symbol %r out of range" % (s,))
    return LocFun(A, 1, {(i,): (1 if i in H else 0) for i in range(1, A.n + 1)})


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
    if n < 0:
        raise ValueError("cocycle exponent must be nonnegative")
    word = f.matrix.check_word(word)
    if n == 0:
        return 0
    if len(word) < n + f.depth - 1:
        raise ValueError(
            "word of length %d is too short for f^%d at depth %d"
            % (len(word), n, f.depth)
        )
    return sum(f.table[word[i : i + f.depth]] for i in range(n))


def coboundary_transform(b):
    """The unit coboundary 1 - b + b(sigma .) attached to the potential b."""
    one = LocFun.constant(b.matrix, 1)
    return one - b + b.shifted()


def eval_on_point(f, point, shift_offset=0):
    """Value of f at sigma^shift_offset of an eventually periodic point."""
    if shift_offset < 0:
        raise ValueError("shift offset must be nonnegative")
    return f.eval_point(point, shift_offset)


class BlockCode:
    """A sliding block code between two shift spaces.

    The code reads a window of `window` source symbols and emits one
    target symbol, so it sends admissible source words of length
    m + window - 1 to admissible target words of length m; the
    constructor checks that one-step compatibility, which propagates to
    all lengths.  Sliding codes commute with the shifts.  Inverses, when
    they exist, are supplied by the caller as a second code; deciding
    invertibility is out of scope here.
    """

    def __init__(self, source, target, window, table):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.source = source
        self.target = target
        self.window = window
        words = enumerate_words(source, window)
        self.table = {}
        for w in words:
            if w not in table:
                raise ValueError("code table is missing the source word %r" % (w,))
            s = int(table[w])
            if not 1 <= s <= target.n:
                raise ValueError("code emits out-of-range symbol %d" % s)
            self.table[w] = s
        for w in enumerate_words(source, window + 1):
            a, b = self.table[w[:window]], self.table[w[1:]]
            if b not in target.follower_set(a):
                raise ValueError(
                    "code image of %r is not admissible in the target" % (w,)
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
        self.matrix = matrix
        self.source = matrix
        self.target = matrix
        cleaned = []
        for src, dst in rules:
            src, dst = matrix.check_word(src), matrix.check_word(dst)
            if not src or not dst:
                raise ValueError("rule words must be nonempty")
            if matrix.followers(src[-1]) != matrix.followers(dst[-1]):
                raise ValueError(
                    "rule %r -> %r does not preserve the follower set" % (src, dst)
                )
            cleaned.append((src, dst))
        self.rules = tuple(sorted(cleaned))
        _check_partition(matrix, [src for src, _ in self.rules], "source")
        _check_partition(matrix, [dst for _, dst in self.rules], "target")
        self.max_src = max(len(src) for src, _ in self.rules)
        self.max_dst = max(len(dst) for _, dst in self.rules)

    def rule_for(self, word):
        for src, dst in self.rules:
            if tuple(word[: len(src)]) == src:
                return src, dst
        raise ValueError("word %r too short to select a rule" % (tuple(word),))

    def input_length(self, m):
        return self.max_src + m

    def image_prefix(self, word, m):
        if len(word) < self.input_length(m):
            raise ValueError("need %d source symbols, got %d" % (self.input_length(m), len(word)))
        src, dst = self.rule_for(word)
        out = dst + tuple(word[len(src) :])
        return out[:m]

    def apply_point(self, point):
        pre = point.window(0, self.max_src)
        src, dst = self.rule_for(pre)
        shifted = point.shift(len(src))
        return shifted.prepend(dst)

    def orbit_data(self):
        """The (k, l) pair with sigma^k(tau x) = sigma^l(x): k=|dst|, l=|src|."""
        depth = self.max_src
        k_table, l_table = {}, {}
        for w in enumerate_words(self.matrix, depth):
            src, dst = self.rule_for(w)
            k_table[w] = len(dst)
            l_table[w] = len(src)
        return LocFun(self.matrix, depth, k_table), LocFun(self.matrix, depth, l_table)

    def cocycle_function(self):
        """d = l - k, the cocycle of the full-group element."""
        k_fn, l_fn = self.orbit_data()
        return l_fn - k_fn

    def coe_pair(self):
        """Minimal (k1, l1) with sigma^k1(tau(sigma x)) = sigma^l1(tau x).

        Both sides are a rewritten prefix followed by a shifted tail of
        x, so matching the tail offsets gives the smallest nonnegative
        exponents cylinder by cylinder.
        """
        depth = 1 + self.max_src
        k_table, l_table = {}, {}
        for w in enumerate_words(self.matrix, depth):
            src, dst = self.rule_for(w)
            src2, dst2 = self.rule_for(w[1:])
            delta = 1 + len(src2) - len(src)
            if delta >= 0:
                l_table[w] = len(dst) + delta
                k_table[w] = len(dst2)
            else:
                l_table[w] = len(dst)
                k_table[w] = len(dst2) - delta
        return LocFun(self.matrix, depth, k_table), LocFun(self.matrix, depth, l_table)


def _check_partition(matrix, words, role):
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


def _tail_form(h, word, drop):
    # sigma^drop of the image of a point starting with `word`, written as
    # (explicit symbols, offset into the point's own tail).
    src, dst = h.rule_for(word)
    if drop <= len(dst):
        return dst[drop:], len(src)
    return (), len(src) + (drop - len(dst))


def _verify_full_group_identity(h, k1, l1):
    A = h.matrix
    depth = max(k1.depth, l1.depth, 1 + h.max_src)
    check_len = depth + h.max_dst + max(k1.max_value(), l1.max_value()) + 1
    for w in enumerate_words(A, check_len):
        cyl = w[:depth]
        kv, lv = k1.value_on(cyl), l1.value_on(cyl)
        left_word, left_off = _tail_form(h, w[1:], kv)
        left_off += 1
        right_word, right_off = _tail_form(h, w, lv)
        stream_left = left_word + w[left_off:]
        stream_right = right_word + w[right_off:]
        common = min(len(stream_left), len(stream_right))
        if stream_left[:common] != stream_right[:common] or (
            left_off - len(left_word) != right_off - len(right_word)
        ):
            raise TransferIdentityError(
                "orbit-equivalence identity fails on the cylinder %r" % (cyl,),
                witness=cyl,
            )


def _verify_block_code_identity(h, k1, l1):
    # A sliding code commutes with the shift, so the identity collapses
    # to l1 = k1 + 1 cylinder by cylinder.
    depth = max(k1.depth, l1.depth)
    for w in enumerate_words(h.source, depth):
        if l1.value_on(w) != k1.value_on(w) + 1:
            raise TransferIdentityError(
                "orbit-equivalence identity fails on the cylinder %r "
                "(a sliding code needs l1 = k1 + 1)" % (w,),
                witness=w,
            )


def psi_transfer(g, h, k1, l1):
    """Transfer the potential g on the target shift back across h.

    Given the orbit-equivalence data (k1, l1) for h, the transferred
    function evaluates, at a point x, the inclusive sums of g along the
    image orbit::

        sum(g(sigma^i(h x)) for i in 0..l1(x))
        - sum(g(sigma^j(h(sigma x))) for j in 0..k1(x))

    Both sums include their upper endpoint.  The output depth is the
    exact number of source coordinates the right-hand side can read,
    and the result is normalized afterwards.

    Raises
    ------
    TransferIdentityError
        If (k1, l1) fail the orbit-equivalence identity for h; the
        offending cylinder word is attached as ``witness``.
    """
    A = h.source
    if not g.matrix.same_matrix(h.target):
        raise ValueError("g must live on the target shift of h")
    for fn, name in ((k1, "k1"), (l1, "l1")):
        if not fn.matrix.same_matrix(A):
            raise ValueError("%s must live on the source shift of h" % name)
        if fn.min_value() < 0:
            raise ValueError("%s must take nonnegative values" % name)
    if isinstance(h, FullGroupElement):
        _verify_full_group_identity(h, k1, l1)
    elif isinstance(h, BlockCode):
        _verify_block_code_identity(h, k1, l1)
    else:
        raise TypeError("h must be a BlockCode or a FullGroupElement")

    need_right = h.input_length(l1.max_value() + g.depth)
    need_left = 1 + h.input_length(k1.max_value() + g.depth)
    depth = max(k1.depth, l1.depth, need_right, need_left)
    table = {}
    for w in enumerate_words(A, depth):
        kv, lv = k1.value_on(w), l1.value_on(w)
        hx = h.image_prefix(w, lv + g.depth)
        hsx = h.image_prefix(w[1:], kv + g.depth)
        plus = sum(g.table[hx[i : i + g.depth]] for i in range(lv + 1))
        minus = sum(g.table[hsx[j : j + g.depth]] for j in range(kv + 1))
        table[w] = plus - minus
    return LocFun(A, depth, table)
