"""Discrete suspensions: tower matrices, return-time decoding, corners.

A positive integer ceiling over the shift splits each symbol j into
f_j tower levels j_0, ..., j_{f_j - 1}: inside a tower the only move is
one level up, and from the top level the point drops to the ground
level of any symbol the base shift allows.  The resulting 0/1 matrix is
the suspended matrix of the shift by the ceiling.  Ceilings that read
more than one coordinate are first pushed through the higher-block
recoding, after which they depend on the first coordinate only.

Decoding inverts the construction on finite windows: the ground-level
visits of a suspended word spell out the base word, and the level of
the first symbol is the phase offset.  The full decoding map lives on
two-sided infinite sequences; only this one-sided finite-window
restriction is implemented, which is all the finite checks need.
"""

from .sft import TransitionMatrix, higher_block
from .locfun import LocFun

__all__ = [
    "SuspendedMatrix",
    "suspended_matrix",
    "reduce_to_first_coordinate",
    "encode_word",
    "decode_return_times",
    "corner_partition_check",
]


class SuspendedMatrix:
    """The tower presentation of a shift with a first-coordinate ceiling.

    ``labels`` lists the vertices (base symbol, level) in row order:
    levels grouped within symbols, symbols ascending.  ``matrix`` is the
    suspended 0/1 matrix as a full TransitionMatrix, so its flags are
    available for reports.
    """

    __slots__ = ("base", "ceilings", "labels", "index", "matrix")

    def __init__(self, base, ceilings):
        ceilings = tuple(int(c) for c in ceilings)
        if len(ceilings) != base.n:
            raise ValueError("need one ceiling per symbol")
        if any(c < 1 for c in ceilings):
            raise ValueError("ceiling values must be positive integers")
        labels = []
        for j in range(1, base.n + 1):
            for t in range(ceilings[j - 1]):
                labels.append((j, t))
        index = {lab: i for i, lab in enumerate(labels)}
        followers = []
        for j, t in labels:
            if t < ceilings[j - 1] - 1:
                followers.append((index[(j, t + 1)] + 1,))
            else:
                followers.append(tuple(index[(k, 0)] + 1 for k in base.followers(j)))
        self.base = base
        self.ceilings = ceilings
        self.labels = tuple(labels)
        self.index = index
        self.matrix = TransitionMatrix.from_followers(followers)

    @property
    def size(self):
        return len(self.labels)

    def symbol_of(self, j, t):
        """The 1-based suspended symbol for tower j, level t."""
        return self.index[(j, t)] + 1

    def label(self, symbol):
        return self.labels[symbol - 1]

    def label_strings(self):
        return ["%d_%d" % lab for lab in self.labels]

    def __repr__(self):
        return "SuspendedMatrix(ceilings=%r)" % (list(self.ceilings),)


def suspended_matrix(A, ceilings):
    """Suspend the shift by a first-coordinate ceiling (one value per symbol).

    A ceiling of all ones returns a relabeled copy of the base matrix.
    """
    return SuspendedMatrix(A, ceilings)


def reduce_to_first_coordinate(A, f):
    """Recode so the ceiling reads the first coordinate only.

    For a depth-K ceiling, the K-block presentation turns f into the
    assignment w -> f(w) on block symbols.  Returns the block matrix,
    the depth-1 ceiling on it, and the label table back to K-words.
    Depth-1 input is returned unchanged (up to the trivial labels).
    """
    if f.min_value() < 1:
        raise ValueError("a ceiling function must be positive")
    block, labels = higher_block(A, f.depth)
    table = {(i + 1,): f.table[w] for i, w in enumerate(labels)}
    return block, LocFun(block, 1, table), labels


def encode_word(S, word):
    """Expand a base word into the suspended shift, tower by tower."""
    word = S.base.check_word(word)
    out = []
    for j in word:
        for t in range(S.ceilings[j - 1]):
            out.append(S.symbol_of(j, t))
    return tuple(out)


def decode_return_times(S, word):
    """Read a suspended window back as (base word, phase offset).

    The offset is the level of the first symbol; the decoded word lists
    the base symbols at the successive ground-level visits inside the
    window.  A window that never visits ground level determines no base
    symbol and is rejected.
    """
    word = S.matrix.check_word(word)
    if not word:
        raise ValueError("cannot decode an empty window")
    offset = S.label(word[0])[1]
    decoded = tuple(S.label(s)[0] for s in word if S.label(s)[1] == 0)
    if not decoded:
        raise ValueError("window contains no ground-level visit")
    return decoded, offset


def corner_partition_check(A, ceilings):
    """Check the ground-corner identity of the suspension combinatorially.

    Verifies that, in the suspended matrix, each tower is a forced
    corridor (every non-top level has exactly one follower, the next
    level, and is that level's only predecessor) and that the top level
    of tower j opens exactly onto the ground levels the base matrix
    allows.  That makes the tower cylinders pairwise disjoint with union
    the ground-level set, and each tower path the unique path between
    its endpoints.  Always true for a correctly built suspension; False
    flags a construction bug.
    """
    S = SuspendedMatrix(A, ceilings)
    M = S.matrix
    for j in range(1, A.n + 1):
        top = S.ceilings[j - 1] - 1
        for t in range(top):
            here, up = S.symbol_of(j, t), S.symbol_of(j, t + 1)
            if M.followers(here) != (up,) or M.predecessors(up) != (here,):
                return False
        expected = {S.symbol_of(k, 0) for k in A.followers(j)}
        if set(M.followers(S.symbol_of(j, top))) != expected:
            return False
    return True
