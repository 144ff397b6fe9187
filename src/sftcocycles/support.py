"""Support algebras: saturation, first-passage families, inclusion matrices.

For a set H of symbols, the fixed-point algebra of the gauge action
weighted by the indicator of H is approximately finite exactly when H
is saturated, i.e. every cycle of the transition graph meets H --
equivalently, only finitely many words carry each H-weight.  The
finite-dimensional filtration is then governed by the family Sigma_H of
first-passage words into H (one hit of H, at the end) and by the M x M
0/1 matrix recording which of those words concatenate admissibly.  This
module computes the family, the matrix, and the weighted word census
behind the saturation criterion; the matrix's primitivity (simplicity of
the algebra) is ``is_primitive(inclusion_matrix(A, H).matrix)`` and its
dimension vectors are those of ``dimension_report``.

The family is ordered lexicographically, which pins the matrix down up
to the permutation relating it to any ad-hoc numbering.
"""

from .sft import TransitionMatrix, _cyclic, _integer, _length, _require, _tuple, has_cycle_within

__all__ = [
    "NotSaturatedError",
    "SigmaFamily",
    "InclusionMatrix",
    "CensusResult",
    "is_saturated",
    "sigma_family",
    "inclusion_matrix",
    "weight_word_census",
]


class NotSaturatedError(ValueError):
    """Raised when a computation needs a saturated symbol set.

    ``witness`` carries a cycle avoiding the set, when one was found.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def is_saturated(A, H):
    """True iff every cycle of the transition graph meets H.

    The complement test is exact: H fails to be saturated exactly when
    some directed cycle stays inside the complement of H, that is when
    some strong component of the complement has two symbols or a loop.
    One component pass answers in O(n + E) time, with no witness search
    (:func:`has_cycle_within` names the witness).  The empty set is
    never saturated for a valid matrix (a cycle always exists).
    """
    H = _require(A, TransitionMatrix, "A").check_symbols(H)
    return not _cyclic(A, set(range(1, A.n + 1)) - H)


def _avoiding_cycle(A, H):
    """H checked as a symbol set, and the cycle of A inside its complement, or None.

    The cycle is :func:`has_cycle_within`'s: the least of the shortest.
    """
    H = _require(A, TransitionMatrix, "A").check_symbols(H)
    return H, has_cycle_within(A, set(range(1, A.n + 1)) - H)


class SigmaFamily:
    """The lexicographically ordered family of first-passage words into H.

    Each word starts anywhere, runs through the complement of H, and
    ends at its first H-symbol, so it carries H-weight exactly 1; a
    symbol already in H contributes the one-letter word.  For each start
    symbol the corresponding cylinders partition that symbol's cylinder,
    so the whole family partitions the shift space.
    """

    __slots__ = ("matrix", "H", "words")

    def __init__(self, matrix, H, words):
        self.matrix = matrix
        self.H = H
        self.words = _tuple(words, "words")

    @property
    def size(self):
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def __repr__(self):
        return "SigmaFamily(H=%r, words=%r)" % (sorted(self.H), list(self.words))


def sigma_family(A, H):
    """Enumerate the first-passage family Sigma_H, sorted lexicographically.

    Raises
    ------
    NotSaturatedError
        If some cycle avoids H; the family would be infinite.
    ValueError
        If H is empty (the support algebra for the empty set is the full
        Cuntz-Krieger algebra, not an AF situation).
    """
    H, cycle = _avoiding_cycle(A, H)
    if not H:
        raise ValueError("empty symbol sets have no first-passage family")
    if cycle is not None:
        raise NotSaturatedError(
            "H=%r is not saturated: the cycle %r avoids it" % (sorted(H), cycle),
            witness=cycle,
        )
    words = []
    for i in range(1, A.n + 1):
        if i in H:
            words.append((i,))
            continue
        stack = [(i,)]
        while stack:
            w = stack.pop()
            for j in A._followers[w[-1] - 1]:
                if j in H:
                    words.append(w + (j,))
                else:
                    stack.append(w + (j,))
    return SigmaFamily(A, H, sorted(words))


class InclusionMatrix:
    """The 0/1 concatenability matrix of a first-passage family.

    ``matrix`` is a tuple of row tuples.  Entry (m, n) is 1 exactly when
    the m-th family word followed by the n-th is admissible, i.e. when
    the transition from the last symbol of the one to the first symbol
    of the other is allowed.  This is the incidence data of the
    canonical finite-dimensional filtration of the support algebra.
    """

    __slots__ = ("family", "matrix")

    def __init__(self, family, matrix):
        self.family = family
        self.matrix = matrix

    @property
    def size(self):
        return self.family.size

    def tolist(self):
        return [list(row) for row in self.matrix]

    def __repr__(self):
        return "InclusionMatrix(%r)" % (self.tolist(),)


def inclusion_matrix(A, H):
    """Build the inclusion matrix over the lexicographic Sigma_H order."""
    family = sigma_family(A, H)
    firsts = [w[0] for w in family.words]
    # A row depends only on the last symbol of its word, a symbol of H:
    # it marks the words whose first symbol may follow that symbol.
    rows = {}
    for s in family.H:
        fol = A._follower_sets[s - 1]
        rows[s] = tuple([1 if f in fol else 0 for f in firsts])
    return InclusionMatrix(family, tuple(rows[w[-1]] for w in family.words))


class CensusResult:
    """Count of bounded-length words with a prescribed H-weight."""

    __slots__ = ("count", "stabilized", "by_length")

    def __init__(self, count, stabilized, by_length):
        self.count = count
        self.stabilized = stabilized
        self.by_length = _tuple(by_length, "by_length")

    def __repr__(self):
        return "CensusResult(count=%d, stabilized=%r)" % (self.count, self.stabilized)


def weight_word_census(A, H, n, len_cap):
    """Count the admissible words of length <= len_cap with H-weight n.

    Dynamic programming over (length, last symbol, weight), so the cap
    can be generous.  ``stabilized`` reports that no word of weight n
    appeared at the last two lengths; with a cap of at least
    (N+1)(n+1) + 2 this window is conclusive, since in a saturated graph
    every longer word already exceeds the weight.
    """
    H = _require(A, TransitionMatrix, "A").check_symbols(H)
    n, len_cap = _integer(n, "n", 1), _length(len_cap, "len_cap", 1)
    weight_cap = n + 1  # weights above n collapse into one bucket
    state = {}
    for i in range(1, A.n + 1):
        w = min(1 if i in H else 0, weight_cap)
        state[(i, w)] = state.get((i, w), 0) + 1
    by_length = [sum(c for (i, w), c in state.items() if w == n)]
    for _ in range(len_cap - 1):
        nxt = {}
        for (i, w), c in state.items():
            for j in A._followers[i - 1]:
                wj = min(w + (1 if j in H else 0), weight_cap)
                nxt[(j, wj)] = nxt.get((j, wj), 0) + c
        state = nxt
        by_length.append(sum(c for (i, w), c in state.items() if w == n))
    stabilized = len(by_length) >= 2 and by_length[-1] == 0 and by_length[-2] == 0
    return CensusResult(sum(by_length), stabilized, by_length)

