"""Bisection calculus for the shift groupoid and its cocycle subgroupoids.

The basic compact open subsets of the groupoid of a one-sided shift are
indexed by pairs of words (mu, nu): such a bisection collects the
triples (mu.w, |mu|-|nu|, nu.w) over all tails w, and stands in for the
partial isometry S_mu S_nu*.  We keep bisections in the end-matched
normal form (equal last symbols), which makes nonemptiness automatic
and is closed under composition and inversion; arbitrary pairs are
admitted at the boundary and canonicalized into a disjoint union.

Given an integer potential f, the cocycle subgroupoid keeps the triples
whose cocycle sums match.  Because that subgroupoid is clopen, every
bisection splits into finitely many cylinder pieces lying entirely
inside or entirely outside; ``membership_split`` computes that
partition, and the fixed-generator predicate, expectation support,
and minimality search are built on top of it.
"""

from itertools import chain, islice

from .sft import (
    PointSpec,
    TransitionMatrix,
    _excerpt,
    _integer,
    _length,
    _list_words,
    _require,
    _tuple,
    enumerate_words,
    has_cycle_within,
    is_primitive,
)
from .coboundary import classify_potential
from .locfun import _check_shift, _window_sum
from .support import _avoiding_cycle, inclusion_matrix

__all__ = [
    "Bisection",
    "MembershipSplit",
    "MinimalityWitness",
    "MinimalityVerdict",
    "canonicalize",
    "compose",
    "invert",
    "membership_split",
    "generator_fixed",
    "expectation_support",
    "minimality_search",
    "minimality_verdict",
]


class Bisection:
    """An end-matched pair of nonempty words (mu, nu).

    The pair encodes the compact open bisection {(mu.w, |mu|-|nu|, nu.w)}
    of the shift groupoid.  End-matched means the last symbols agree, so
    the two words have the same follower set and the bisection is
    nonempty whenever both words are admissible.
    """

    __slots__ = ("mu", "nu")

    def __init__(self, mu, nu):
        if type(mu) is not tuple:
            mu = _tuple(mu, "mu")
        if type(nu) is not tuple:
            nu = _tuple(nu, "nu")
        if not mu or not nu:
            raise ValueError("bisection words must be nonempty")
        if mu[-1] != nu[-1]:
            raise ValueError(
                "bisection (%s, %s) is not end-matched" % (_excerpt(mu), _excerpt(nu))
            )
        self.mu = mu
        self.nu = nu

    @property
    def lag(self):
        return len(self.mu) - len(self.nu)

    def is_diagonal(self):
        return self.mu == self.nu

    def as_dict(self):
        return {"mu": list(self.mu), "nu": list(self.nu)}

    def __eq__(self, other):
        if not isinstance(other, Bisection):
            return NotImplemented
        return self.mu == other.mu and self.nu == other.nu

    def __hash__(self):
        return hash((self.mu, self.nu))

    def __repr__(self):
        return "Bisection(%r, %r)" % (self.mu, self.nu)


def canonicalize(A, mu, nu):
    """Rewrite the pair (mu, nu) as a disjoint list of end-matched bisections.

    If the last symbols already agree the bisection is returned as is;
    otherwise it is refined over the common followers of the two last
    symbols.  The empty list means the pair carries no groupoid points
    at all (the product S_mu S_nu* is zero).
    """
    _require(A, TransitionMatrix, "A")
    mu, nu = A.check_word(mu), A.check_word(nu)
    if not mu or not nu:
        raise ValueError("bisection words must be nonempty")
    if mu[-1] == nu[-1]:
        return [Bisection(mu, nu)]
    common = sorted(set(A.followers(mu[-1])) & set(A.followers(nu[-1])))
    return [Bisection(mu + (j,), nu + (j,)) for j in common]


def compose(z1, z2):
    """The product bisection, or None when the product is empty.

    With z1 = (mu, nu) and z2 = (xi, eta): when xi extends nu by w the
    product is (mu.w, eta); when nu extends xi by w it is (mu, eta.w).
    Incomparable middle words meet in no groupoid point.  End-matching
    and admissibility of the result are automatic, because the added
    piece w sits inside an already admissible word whose junction
    symbol equals the matched last symbol.
    """
    # Products are swept by the ten thousand: the gate is called on a miss only.
    if not (isinstance(z1, Bisection) and isinstance(z2, Bisection)):
        _require(z1, Bisection, "z1")
        _require(z2, Bisection, "z2")
    mu, nu = z1.mu, z1.nu
    xi, eta = z2.mu, z2.nu
    if xi[: len(nu)] == nu:
        return _end_matched(mu + xi[len(nu) :], eta)
    if nu[: len(xi)] == xi:
        return _end_matched(mu, eta + nu[len(xi) :])
    return None


def _end_matched(mu, nu):
    # A Bisection from nonempty word tuples already known to be
    # end-matched, skipping the constructor's checks.
    z = object.__new__(Bisection)
    z.mu = mu
    z.nu = nu
    return z


def invert(z):
    """The inverse bisection (nu, mu); involutive."""
    _require(z, Bisection, "z")
    return Bisection(z.nu, z.mu)


class MembershipSplit:
    """A finite partition of a bisection into inside and outside pieces.

    Every inside piece lies wholly in the cocycle subgroupoid and every
    outside piece misses it entirely; together the pieces' cylinders
    partition the domain of the split bisection.
    """

    __slots__ = ("inside", "outside")

    def __init__(self, inside, outside):
        self.inside = _tuple(inside, "inside")
        self.outside = _tuple(outside, "outside")

    @classmethod
    def _from_pieces(cls, inside, outside):
        # Pieces the package built, one split per membership test: unchecked.
        self = cls.__new__(cls)
        self.inside, self.outside = tuple(inside), tuple(outside)
        return self

    def all_inside(self):
        return not self.outside

    def as_dict(self):
        return {
            "inside": [z.as_dict() for z in self.inside],
            "outside": [z.as_dict() for z in self.outside],
        }

    def __repr__(self):
        return "MembershipSplit(inside=%r, outside=%r)" % (
            list(self.inside),
            list(self.outside),
        )


def membership_split(A, f, z):
    """Split an end-matched bisection along the cocycle subgroupoid of f.

    The bisection is refined by all common tail extensions w of length
    depth(f) - 1 into pieces (mu.w, nu.w); each piece is inside exactly
    when the cocycle sums at the exponents (|mu|, |nu|) agree on it.
    Membership of any triple of the piece is decided at those exponents:
    for any larger matching exponent pair the two extra cocycle legs run
    along the same tail and cancel, so the condition telescopes down to
    (|mu|, |nu|).  (The reduction is exercised against a brute-force
    membership oracle in the tests.)

    Each sum is a fixed part, the windows inside its word, plus a
    boundary part, the windows that start in the word's last K - 1
    symbols and read into w.  The fixed parts are summed once per call.
    When mu and nu end in the same K - 1 symbols the boundary parts
    cancel and every piece takes the fixed parts' verdict; otherwise
    only the boundary parts are summed per tail.  So a call checks mu
    and nu once, lists its tails without checking them again, and costs
    O(|mu| + |nu|) table lookups, plus O(K) per piece when the suffixes
    differ, and one new piece per tail either way.
    """
    _check_shift(A, f)
    if not isinstance(z, Bisection):  # the gate, called on a miss only
        _require(z, Bisection, "z")
    return _split(A, f, A.check_word(z.mu), A.check_word(z.nu))


def _split(A, f, mu, nu):
    # The split of an end-matched pair (mu, nu) of admissible words, for
    # f on A, with nothing checked again.
    K = f.depth
    fixed_mu = _window_sum(f, mu, len(mu) - K + 1)
    fixed_nu = _window_sum(f, nu, len(nu) - K + 1)
    # The boundary windows start in these suffixes (the whole word when
    # it is shorter than K - 1).
    s_mu, s_nu = mu[max(0, len(mu) - K + 1) :], nu[max(0, len(nu) - K + 1) :]
    tails = _list_words(A, A._followers[mu[-1] - 1], K - 1) if K > 1 else [()]
    pieces = []
    for w in tails:
        # End-matched as (mu, nu) is: built as _end_matched builds it.
        piece = object.__new__(Bisection)
        piece.mu, piece.nu = mu + w, nu + w
        pieces.append(piece)
    if s_mu == s_nu:
        if fixed_mu == fixed_nu:
            return MembershipSplit._from_pieces(pieces, ())
        return MembershipSplit._from_pieces((), pieces)
    inside, outside = [], []
    for w, piece in zip(tails, pieces):
        boundary_mu = _window_sum(f, s_mu + w, len(s_mu))
        boundary_nu = _window_sum(f, s_nu + w, len(s_nu))
        if fixed_mu + boundary_mu == fixed_nu + boundary_nu:
            inside.append(piece)
        else:
            outside.append(piece)
    return MembershipSplit._from_pieces(inside, outside)


def _split_pair(A, f, mu, nu):
    # The membership splits of the canonical pieces of (mu, nu), joined
    # into one split of the pair; canonicalize checks mu and nu once.
    _check_shift(A, f)
    inside, outside = [], []
    for piece in canonicalize(A, mu, nu):
        split = _split(A, f, piece.mu, piece.nu)
        inside.extend(split.inside)
        outside.extend(split.outside)
    return MembershipSplit._from_pieces(inside, outside)


def generator_fixed(A, f, mu, nu):
    """Whether S_mu S_nu* is fixed by the gauge action with potential f.

    True iff every canonical piece of the bisection (mu, nu) splits with
    empty outside part.  A pair with no common follower is vacuously
    fixed (the product is the zero operator).
    """
    return _split_pair(A, f, mu, nu).all_inside()


def expectation_support(A, f, mu, nu):
    """The clopen part of the mu-cylinder where the membership condition holds.

    Returned as the sorted list of cylinder words (the mu-sides of the
    inside pieces over all canonical pieces); this is the support of the
    range projection of the averaged generator.
    """
    return sorted(p.mu for p in _split_pair(A, f, mu, nu).inside)


class MinimalityWitness:
    """A verified connection of the cylinder of mu to the orbit of z.

    Holds a point x in the cylinder of mu together with exponents k, l
    such that sigma^k(x) = sigma^l(z) with equal cocycle sums f^k(x) =
    f^l(z).
    """

    __slots__ = ("x", "k", "l")

    def __init__(self, x, k, l):
        self.x = _require(x, PointSpec, "x")
        self.k = _integer(k, "k", 0)
        self.l = _integer(l, "l", 0)

    def verify(self, A, f, z, mu):
        """Whether x starts with mu, sigma^k(x) = sigma^l(z) and f^k(x) = f^l(z).

        x and z are points, so admissible, and their windows are summed
        without checking them again; f and z must live on the shift A.
        """
        _check_shift(A, f, z)
        mu = _tuple(mu, "mu")
        if self.x.window(0, len(mu)) != mu:
            return False
        if self.x.shift(self.k) != z.shift(self.l):
            return False
        K, k, l = f.depth, self.k, self.l
        # An empty sum is 0 without reading a window.
        fk = _window_sum(f, self.x.window(0, k + K - 1), k) if k else 0
        return fk == (_window_sum(f, z.window(0, l + K - 1), l) if l else 0)

    def as_dict(self):
        return {
            "x": {
                "preperiod": list(self.x.preperiod),
                "period": list(self.x.period),
            },
            "k": self.k,
            "l": self.l,
        }

    def __repr__(self):
        return "MinimalityWitness(x=%r, k=%d, l=%d)" % (self.x, self.k, self.l)


# The default search bounds of minimality_search and minimality_verdict
# (and of the CLI's --k-max and --value-max).
_K_MAX, _VALUE_MAX = 24, 64


def minimality_search(A, f, z, mu, k_max=_K_MAX, value_max=_VALUE_MAX):
    """Breadth-first search for a witness connecting U_mu to the orbit of z.

    Explores candidate points x = p . sigma^l(z) over paths p and splice
    positions l, exhaustively up to k = |p| <= k_max, l <= k_max and
    partial cocycle sums bounded by value_max.  Returns the witness
    least in the order (k, l, path), or None when the bounds are
    exhausted; None does not certify that no witness exists.  Both
    bounds must be nonnegative integers.

    One frontier grows from the empty path, a level per k.  Below |mu| a
    level is forced to the prefix mu[:k], and a splice at l needs z to
    supply mu[k:] from position l on; from |mu| on any follower extends
    a path, a splice needs an admissible junction, and only these free
    extensions are pruned by value_max.  The frontier is deduplicated on
    (last symbols, partial sum) states, which keeps the search
    polynomial while preserving the least witness: whether a path can be
    completed depends only on its state.  A state's sum already covers
    the windows inside its path, so a splice adds only the at most K - 1
    windows that start in the suffix and read into z, and each
    (suffix, l) pair is one dictionary lookup of the state whose sum
    completes f^l(z).  The cost is
    O(k_max * (states * n + k_max * suffixes * K)) table lookups, for at
    most `states` frontier states over `suffixes` distinct suffixes at
    any length, depth K and alphabet size n.  f and z must live on the
    shift A.
    """
    k_max, value_max = _length(k_max, "k_max", 0), _integer(value_max, "value_max", 0)
    _check_shift(A, f, z)
    mu = A.check_word(mu)
    if not mu:
        raise ValueError("mu must be nonempty")
    m, K = len(mu), f.depth
    table, fol, sets = f.table, A._followers, A._follower_sets
    budget = value_max + (K - 1) * max(map(abs, table.values()))

    # Every symbol of z that a splice at l <= k_max reads, and the sums
    # fz[l] = f^l(z), summed as far as the splices read them.
    z_prefix = f.matrix.check_word(z.window(0, k_max + max(K, m)))
    fz = [0]

    suffix_len = max(1, K - 1)
    frontier = {((), 0): ()}
    for k in range(k_max + 1):
        forced, rest = k < m, mu[k:]
        suffixes = {suffix for suffix, _ in frontier}
        for l in range(k_max + 1):
            if not k and l:  # the first level reads each l first
                fz.append(fz[-1] + table[z_prefix[l - 1 : l - 1 + K]])
            target = fz[l]
            if abs(target) > value_max:
                continue
            # Below |mu| z must supply mu[k:], which makes the junction admissible.
            if forced and z_prefix[l : l + m - k] != rest:
                continue
            head, read = z_prefix[l], z_prefix[l : l + K]
            found = []
            for suffix in suffixes:
                if not forced and head not in sets[suffix[-1] - 1]:
                    continue
                # With K = 1 the suffix's own window is already in the sum,
                # and the empty suffix of k = 0 has no window.
                boundary = _window_sum(f, suffix + read, len(suffix)) if K > 1 and suffix else 0
                p = frontier.get((suffix, target - boundary))
                if p is not None:
                    found.append(p)
            if found:
                p = min(found)
                witness = MinimalityWitness(z.shift(l).prepend(p), len(p), l)
                if not witness.verify(A, f, z, mu):
                    raise RuntimeError("minimality witness %r failed verification" % (witness,))
                return witness
        if k == k_max:
            break
        # The frontier iterates in ascending path order: paths are
        # extended in that order by ascending followers, so the first
        # path to reach a state, the one kept, is its least.
        nxt = {}
        for (suffix, total), p in frontier.items():
            for j in (mu[k],) if forced else fol[suffix[-1] - 1]:
                longer = suffix + (j,)
                new_total = total + (table[longer[-K:]] if k + 1 >= K else 0)
                # A forced prefix may exceed the budget and still close at |mu|.
                if not forced and abs(new_total) > budget:
                    continue
                state = (longer[-suffix_len:], new_total)
                if state not in nxt:
                    nxt[state] = p + (j,)
        frontier = nxt
        if not frontier:
            break
    return None


class MinimalityVerdict:
    """Outcome of the three-valued minimality decision.

    ``kind`` is one of "minimal", "nonminimal", "unknown"; ``certified``
    says whether the verdict rests on a structural argument rather than
    on bounded search evidence.  For nonminimal verdicts ``evidence``
    lists the (z, mu) pairs that defeated (or exhausted) the search.
    """

    __slots__ = ("kind", "certified", "reason", "evidence")

    def __init__(self, kind, certified, reason, evidence=()):
        self.kind = kind
        self.certified = certified
        self.reason = reason
        self.evidence = _tuple(evidence, "evidence")

    def as_dict(self):
        return {
            "verdict": self.kind,
            "certified": self.certified,
            "reason": self.reason,
            "evidence": [
                {
                    "z": {"preperiod": list(z.preperiod), "period": list(z.period)},
                    "mu": list(mu),
                }
                for z, mu in self.evidence
            ],
        }

    def __repr__(self):
        return "MinimalityVerdict(%r, certified=%r)" % (self.kind, self.certified)


# The verdict's fallback grid: up to this many points z and cylinders mu.
_GRID_SIZE = 5


def _sample_grid(A, size):
    words = chain.from_iterable(enumerate_words(A, m) for m in (1, 2, 3, 4))
    mus = list(islice(words, size))
    cycles = []
    remaining = set(range(1, A.n + 1))
    while remaining:
        cyc = has_cycle_within(A, remaining)
        if cyc is None:
            break
        cycles.append(cyc)
        remaining -= set(cyc)
    zs = {}  # the first point of each canonical form, in order
    for m in range(4):
        for pre in enumerate_words(A, m):
            for cyc in cycles:
                if pre and cyc[0] not in A._follower_sets[pre[-1] - 1]:
                    continue
                z = PointSpec(A, pre, cyc)
                zs.setdefault(z.canonical(), z)
                if len(zs) == size:
                    return list(zs.values()), mus
    return list(zs.values()), mus


def minimality_verdict(A, f, k_max=_K_MAX, value_max=_VALUE_MAX):
    """Decide minimality of the potential f, exactly where a class applies.

    Exact verdicts: the zero potential is minimal over an irreducible
    non-permutation matrix; a unit coboundary (detected by the potential
    solver) is minimal when the matrix is primitive; a symbol-set
    indicator is minimal when the set is saturated with primitive
    inclusion matrix, and certified non-minimal when a cycle avoids the
    set (the periodic orbit of that cycle is invariant and unreachable
    from cylinders that meet the set).  Otherwise a deterministic grid
    of (z, mu) pairs is searched: exhausted pairs are reported as
    uncertified non-minimality evidence, and full success on the sample
    returns "unknown".  Both search bounds must be nonnegative integers,
    and f must live on the shift A.
    """
    k_max, value_max = _length(k_max, "k_max", 0), _integer(value_max, "value_max", 0)
    _check_shift(A, f)
    if not A.irreducible:
        raise ValueError("minimality verdict requires an irreducible matrix")
    if A.permutation:
        raise ValueError("minimality verdict requires a non-permutation matrix")

    if f.is_constant() and f.min_value() == 0:
        return MinimalityVerdict(
            "minimal", True, "zero potential: the full groupoid of an irreducible shift is minimal"
        )
    cls = classify_potential(A, f)
    if cls.coboundary_b is not None and A.primitive:
        return MinimalityVerdict(
            "minimal", True, "unit coboundary over a primitive matrix"
        )
    if cls.chi_H is not None and cls.chi_H and len(cls.chi_H) < A.n:
        H, cycle = _avoiding_cycle(A, cls.chi_H)
        if cycle is not None:
            z = PointSpec(A, (), cycle)
            mu = (min(H),)
            return MinimalityVerdict(
                "nonminimal",
                True,
                "the cycle %r avoids the support: its periodic orbit is invariant "
                "and carries cocycle sum 0, while every path from the cylinder of "
                "%r picks up positive weight" % (cycle, mu),
                evidence=[(z, mu)],
            )
        if is_primitive(inclusion_matrix(A, H).matrix):
            return MinimalityVerdict(
                "minimal", True, "saturated support with primitive inclusion matrix"
            )

    zs, mus = _sample_grid(A, _GRID_SIZE)
    exhausted = []
    for z in zs:
        for mu in mus:
            if minimality_search(A, f, z, mu, k_max=k_max, value_max=value_max) is None:
                exhausted.append((z, mu))
    if exhausted:
        return MinimalityVerdict(
            "nonminimal",
            False,
            "search bounds k_max=%d, value_max=%d exhausted on %d grid pair(s)"
            % (k_max, value_max, len(exhausted)),
            evidence=exhausted,
        )
    return MinimalityVerdict(
        "unknown",
        False,
        "all %d sampled (z, mu) pairs admit witnesses; no structural class applies"
        % (len(zs) * len(mus)),
    )
