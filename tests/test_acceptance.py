"""Acceptance suite: one test per release criterion, each printing a
pass line (run with `pytest -v` or `pytest -s` to see them).

Every expected value asserted here was produced by an independent
route first: brute-force enumeration, an exponent-scanning membership
oracle, telescoping sums, or sympy's exact normal forms.
"""

import math
import random
import time

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from sftcocycles import (
    Bisection,
    LocFun,
    PointSpec,
    TransitionMatrix,
    ck_k_groups,
    coboundary_transform,
    cocycle_sum,
    compose,
    corner_partition_check,
    cycle_sums,
    decode_return_times,
    dimension_report,
    encode_word,
    enumerate_words,
    generator_fixed,
    has_cycle_within,
    inclusion_matrix,
    invert,
    is_primitive,
    is_saturated,
    make_chi_H,
    membership_split,
    minimality_search,
    minimality_verdict,
    sigma_family,
    smith_normal_form,
    solve_potential,
    suspended_matrix,
)
from sftcocycles.groupoid import _sample_grid

from conftest import count_in, end_matched_bisections

GOLDEN = TransitionMatrix([[1, 1], [1, 0]])
FULL2 = TransitionMatrix([[1, 1], [1, 1]])
ZERO_DIAG3 = TransitionMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def _report(number, text):
    print("ACCEPTANCE %02d PASS: %s" % (number, text))


def test_criterion_01_golden_mean_support_regression():
    start = time.perf_counter()
    assert is_saturated(GOLDEN, {1})
    family = sigma_family(GOLDEN, {1})
    assert family.words == ((1,), (2, 1))
    inc = inclusion_matrix(GOLDEN, {1})
    assert inc.tolist() == [[1, 1], [1, 1]]
    assert is_primitive(inc.matrix)
    report = dimension_report(inc.matrix, 4)
    assert report["uhf_factor"] == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "golden mean H={1}: family, inclusion matrix, UHF factor 2 in %.3fs" % elapsed)


def test_criterion_02_zero_diagonal_support_regression():
    family = sigma_family(ZERO_DIAG3, {1, 2})
    assert family.words == ((1,), (2,), (3, 1), (3, 2))
    inc = inclusion_matrix(ZERO_DIAG3, {1, 2})
    assert inc.tolist() == [
        [0, 1, 1, 1],
        [1, 0, 1, 1],
        [0, 1, 1, 1],
        [1, 0, 1, 1],
    ]
    assert is_primitive(inc.matrix)
    _report(2, "zero-diagonal 3x3 H={1,2}: family and 4x4 inclusion matrix, primitive")


def test_criterion_03_full_shift_nonminimal_regression():
    assert not is_saturated(FULL2, {1})
    assert has_cycle_within(FULL2, {2}) == (2,)
    verdict = minimality_verdict(FULL2, make_chi_H(FULL2, {1}))
    assert verdict.kind == "nonminimal" and verdict.certified
    assert verdict.evidence == ((PointSpec(FULL2, (), (2,)), (1,)),)
    _report(3, "full 2-shift H={1}: witness cycle (2), certified non-minimality at (2^inf, (1))")


def test_criterion_04_cocycle_additivity_randomized():
    rng = random.Random(20240811)
    for A in (GOLDEN, FULL2):
        for _ in range(1000):
            depth = rng.randint(1, 3)
            f = LocFun(
                A, depth, {w: rng.randint(-5, 5) for w in enumerate_words(A, depth)}
            )
            n, k = rng.randint(0, 6), rng.randint(0, 6)
            length = n + k + depth - 1 + rng.randint(0, 3)
            word = [rng.randint(1, A.n)]
            while len(word) < max(length, 1):
                word.append(rng.choice(A.followers(word[-1])))
            w = tuple(word)
            assert cocycle_sum(f, w, n + k) == cocycle_sum(f, w, n) + cocycle_sum(
                f, w[n:], k
            )
    _report(4, "cocycle additivity f^(n+k) = f^n + f^k(sigma^n .) on 1000 random instances per matrix")


def test_criterion_05_groupoid_axiom_suite():
    for A in (GOLDEN, FULL2):
        zs = end_matched_bisections(A, 4)
        # involution and diagonal units
        for z in zs:
            assert invert(invert(z)) == z
            left, right = compose(z, invert(z)), compose(invert(z), z)
            assert left is not None and left.is_diagonal()
            assert right is not None and right.is_diagonal()
        # associativity: a product is nonempty exactly when the adjacent
        # words are prefix-comparable, and comparability with a word
        # survives extending it, so a triple with z1.z2 empty has both
        # sides empty; the same filter prunes z3 soundly.  Every triple
        # with a nonempty inner product is checked, plus a sample of the
        # vacuous ones.
        def comparable(a, b):
            return a[: len(b)] == b or b[: len(a)] == a

        words = sorted({z.mu for z in zs})
        by_comparable_mu = {
            w: [z for z in zs if comparable(z.mu, w)] for w in words
        }
        for z1 in zs:
            for z2 in by_comparable_mu[z1.nu]:
                z12 = compose(z1, z2)
                assert z12 is not None
                for z3 in by_comparable_mu[z2.nu]:
                    z23 = compose(z2, z3)
                    left = compose(z12, z3)
                    right = compose(z1, z23) if z23 is not None else None
                    assert left == right
        rng = random.Random(55)
        vacuous = 0
        while vacuous < 500:
            z1, z2, z3 = rng.choice(zs), rng.choice(zs), rng.choice(zs)
            if compose(z1, z2) is not None:
                continue
            z23 = compose(z2, z3)
            assert z23 is None or compose(z1, z23) is None
            vacuous += 1
        # membership splits partition the bisection cylinder by cylinder
        f = LocFun(A, 2, {w: (w[0] - w[1]) % 3 for w in enumerate_words(A, 2)})
        for z in zs:
            split = membership_split(A, f, z)
            pieces = list(split.inside) + list(split.outside)
            exts = enumerate_words(A, f.depth - 1, after=z.mu[-1])
            assert sorted(p.mu for p in pieces) == sorted(z.mu + w for w in exts)
            assert len({p.mu for p in pieces}) == len(pieces)
    _report(5, "groupoid axioms and split partitions on all end-matched bisections up to length 4")


def test_criterion_06_fixed_generator_weight_oracle():
    for A in (GOLDEN, FULL2):
        words = [w for m in range(1, 6) for w in enumerate_words(A, m)]
        subsets = [{1}, {2}, {1, 2}]
        for H in subsets:
            chi = make_chi_H(A, H)
            mismatches = 0
            for mu in words:
                for nu in words:
                    if not set(A.followers(mu[-1])) & set(A.followers(nu[-1])):
                        continue  # zero product: no oracle statement
                    expected = count_in(mu, H) == count_in(nu, H)
                    if generator_fixed(A, chi, mu, nu) != expected:
                        mismatches += 1
            assert mismatches == 0
    _report(6, "fixed-generator predicate equals the weight-count criterion on all pairs up to length 5")


def test_criterion_07_coboundary_round_trip():
    rng = random.Random(7117)
    for A in (GOLDEN, FULL2):
        for _ in range(100):
            depth = rng.randint(1, 3)
            b = LocFun(
                A, depth, {w: rng.randint(-5, 5) for w in enumerate_words(A, depth)}
            )
            g = b.shifted() - b
            assert all(total == 0 for _, total in cycle_sums(A, g))
            assert solve_potential(A, g) == b.base_normalized()
    _report(7, "200 random potentials: zero cycle sums and exact recovery up to base normalization")


def test_criterion_08_coboundary_minimality_witnesses():
    for A in (GOLDEN, FULL2):
        b = LocFun(A, 2, {w: (w[0] + 2 * w[1]) % 3 for w in enumerate_words(A, 2)})
        f = coboundary_transform(b)
        zs, mus = _sample_grid(A, 5)
        assert len(zs) == 5 and len(mus) == 5
        for z in zs:
            for mu in mus:
                witness = minimality_search(A, f, z, mu)
                assert witness is not None
                assert witness.verify(A, f, z, mu)
    _report(8, "unit-coboundary witnesses found and verified on a 5x5 grid per primitive matrix")


def test_criterion_09_suspension_checks():
    S1 = suspended_matrix(GOLDEN, (1, 1))
    assert S1.matrix.tolist() == GOLDEN.tolist()
    S = suspended_matrix(GOLDEN, (2, 1))
    assert S.label_strings() == ["1_0", "1_1", "2_0"]
    assert S.matrix.tolist() == [[0, 1, 0], [1, 0, 1], [1, 0, 0]]
    assert corner_partition_check(GOLDEN, (2, 1))
    assert corner_partition_check(FULL2, (2, 2))
    for A, ceilings in ((GOLDEN, (2, 1)), (FULL2, (2, 2))):
        T = suspended_matrix(A, ceilings)
        f = LocFun(A, 1, {(i,): ceilings[i - 1] for i in range(1, A.n + 1)})
        for length in range(1, 9):
            for u in enumerate_words(A, length):
                w = encode_word(T, u)
                assert decode_return_times(T, w) == (u, 0)
                ground = [i for i, s in enumerate(w) if T.label(s)[1] == 0]
                for k in range(1, length):
                    assert ground[k] == cocycle_sum(f, u, k)
    _report(9, "suspension: identity ceiling, golden-mean tower, corners, decode/encode, return times")


def test_criterion_10_smith_form_self_verification():
    rng = random.Random(60901)
    for _ in range(1000):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        D, U, V = smith_normal_form(M)  # raises if U.M.V != D
        diag = [D[i][i] for i in range(min(n, m))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    for n in range(2, 7):
        A = TransitionMatrix([[1] * n for _ in range(n)])
        groups = ck_k_groups(A)
        M = sympy.eye(n) - sympy.Matrix([[1] * n] * n).T
        oracle = sympy_snf(M)
        diag = [abs(oracle[i, i]) for i in range(n)]
        assert groups["K0"]["torsion"] == sorted(d for d in diag if d > 1)
        assert groups["K0"]["rank"] == sum(1 for d in diag if d == 0)
        assert groups["K0"] == {"rank": 0, "torsion": [] if n == 2 else [n - 1]}
        assert groups["K1"] == {"rank": 0}
    _report(10, "Smith form self-verified on 1000 random matrices; full n-shift torsion matches sympy")
