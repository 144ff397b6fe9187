import random

import pytest

from sftcocycles import (
    Bisection,
    LocFun,
    MinimalityWitness,
    PointSpec,
    TransitionMatrix,
    canonicalize,
    coboundary_transform,
    compose,
    enumerate_words,
    expectation_support,
    generator_fixed,
    invert,
    make_chi_H,
    membership_split,
    minimality_search,
    minimality_verdict,
)

from conftest import brute_membership, count_in, end_matched_bisections, tail_from


def test_bisection_requires_end_matching():
    Bisection((1, 2), (2,))  # matching last symbols
    with pytest.raises(ValueError):
        Bisection((1,), (2,))
    with pytest.raises(ValueError):
        Bisection((), (1,))


def test_canonicalize(golden, full2):
    assert canonicalize(golden, (1, 2), (1, 2)) == [Bisection((1, 2), (1, 2))]
    assert canonicalize(golden, (1,), (2,)) == [Bisection((1, 1), (2, 1))]
    assert canonicalize(full2, (1,), (2,)) == [
        Bisection((1, 1), (2, 1)),
        Bisection((1, 2), (2, 2)),
    ]
    with pytest.raises(ValueError):
        canonicalize(golden, (2, 2), (1,))


def test_compose_examples(golden):
    z = Bisection((1, 2), (2, 1, 2))
    assert compose(z, Bisection((2, 1, 2), (1, 2))) == Bisection((1, 2), (1, 2))
    assert compose(
        Bisection((1, 1), (2, 1)), Bisection((2, 1, 1), (1, 1))
    ) == Bisection((1, 1, 1), (1, 1))
    assert compose(Bisection((1, 1), (2, 1)), Bisection((1, 2), (2, 2))) is None


def test_invert_laws(golden):
    for z in end_matched_bisections(golden, 3):
        assert invert(invert(z)) == z
        left = compose(z, invert(z))
        right = compose(invert(z), z)
        assert left is not None and left.is_diagonal()
        assert right is not None and right.is_diagonal()
    diag = Bisection((1, 2), (1, 2))
    assert invert(diag) == diag


def _assoc_check(z1, z2, z3):
    z12 = compose(z1, z2)
    z23 = compose(z2, z3)
    left = compose(z12, z3) if z12 is not None else None
    right = compose(z1, z23) if z23 is not None else None
    assert left == right, (z1, z2, z3)


def test_associativity_small_exhaustive(golden):
    zs = end_matched_bisections(golden, 3)
    for z1 in zs:
        for z2 in zs:
            for z3 in zs:
                _assoc_check(z1, z2, z3)


def test_membership_split_af_case(golden, full2):
    # constant potential 1 keeps exactly the lag-zero bisections
    for A in (golden, full2):
        one = LocFun.constant(A, 1)
        for z in end_matched_bisections(A, 3):
            split = membership_split(A, one, z)
            if z.lag == 0:
                assert split.inside == (z,) and split.outside == ()
            else:
                assert split.outside == (z,) and split.inside == ()


def test_membership_split_chi_counts(golden, full2):
    for A in (golden, full2):
        for H in ({1}, {2}, {1, 2}):
            chi = make_chi_H(A, H)
            for z in end_matched_bisections(A, 3):
                split = membership_split(A, chi, z)
                expected_inside = count_in(z.mu, H) == count_in(z.nu, H)
                assert split.all_inside() == expected_inside
                assert len(split.inside) + len(split.outside) == 1


def test_membership_split_depth_two_example(golden):
    f = LocFun(golden, 2, {(1, 1): 1, (1, 2): 0, (2, 1): 1})
    split = membership_split(golden, f, Bisection((1,), (2, 1)))
    assert split.inside == ()
    assert set(split.outside) == {
        Bisection((1, 1), (2, 1, 1)),
        Bisection((1, 2), (2, 1, 2)),
    }


def test_membership_split_partitions(golden, full2):
    f_tables = {
        2: lambda w: (w[0] - w[1]) % 3,
        3: lambda w: (w[0] + 2 * w[1] + w[2]) % 4 - 1,
    }
    for A in (golden, full2):
        for depth, rule in f_tables.items():
            f = LocFun(A, depth, {w: rule(w) for w in enumerate_words(A, depth)})
            for z in end_matched_bisections(A, 4):
                split = membership_split(A, f, z)
                pieces = list(split.inside) + list(split.outside)
                exts = enumerate_words(A, f.depth - 1, after=z.mu[-1])
                assert len(pieces) == len(exts)
                mus = sorted(p.mu for p in pieces)
                assert mus == sorted(z.mu + w for w in exts)
                assert sorted(p.nu for p in pieces) == sorted(z.nu + w for w in exts)
                # equal length, pairwise distinct => pairwise disjoint cylinders
                assert len(set(mus)) == len(mus)


def test_membership_reduction_matches_brute_force(golden, full2):
    # the split decides membership at the exponent pair (|mu|, |nu|); an
    # exponent scan on sampled points must agree, at every matching pair
    rng = random.Random(5)
    for A in (golden, full2):
        f = LocFun(
            A, 2, {w: ((w[0] * 2 + w[1]) % 3) - 1 for w in enumerate_words(A, 2)}
        )
        for z in rng.sample(end_matched_bisections(A, 3), 20):
            split = membership_split(A, f, z)
            for piece, is_inside in [(p, True) for p in split.inside] + [
                (p, False) for p in split.outside
            ]:
                tail = tail_from(A, min(A.followers(piece.mu[-1])))
                x = tail.prepend(piece.mu)
                zz = tail.prepend(piece.nu)
                exists, truths = brute_membership(
                    A, f, x, piece.lag, zz, len(piece.mu) + len(piece.nu) + 8
                )
                assert truths, "no matching exponents found"
                assert exists == is_inside
                assert all(t == truths[0] for t in truths)


def test_closure_under_composition_and_inverse(golden, full2):
    for A in (golden, full2):
        f = coboundary_transform(make_chi_H(A, {1}))
        fully_inside = [
            z
            for z in end_matched_bisections(A, 3)
            if membership_split(A, f, z).all_inside()
        ]
        for z in fully_inside:
            assert membership_split(A, f, invert(z)).all_inside()
        for z1 in fully_inside:
            for z2 in fully_inside:
                z12 = compose(z1, z2)
                if z12 is not None:
                    assert membership_split(A, f, z12).all_inside()


def test_diagonal_absorption(golden, full2):
    rng = random.Random(9)
    for A in (golden, full2):
        for depth in (1, 2, 3):
            f = LocFun(
                A, depth, {w: rng.randint(-4, 4) for w in enumerate_words(A, depth)}
            )
            for mu in enumerate_words(A, 2) + enumerate_words(A, 3):
                split = membership_split(A, f, Bisection(mu, mu))
                assert split.all_inside()


def test_separating_potentials(golden, full2):
    # distinct words are always told apart by b = 0 or b = chi of the mu-cylinder
    for A in (golden, full2):
        for z in end_matched_bisections(A, 4):
            if z.mu == z.nu:
                continue
            separated = False
            for b in (LocFun.constant(A, 0), LocFun.indicator_cylinder(A, z.mu)):
                split = membership_split(A, coboundary_transform(b), z)
                if split.outside:
                    separated = True
                    break
            assert separated, z


def test_generator_fixed_examples(golden, full2):
    zero = LocFun.constant(golden, 0)
    for z in end_matched_bisections(golden, 3):
        assert generator_fixed(golden, zero, z.mu, z.nu)
    chi = make_chi_H(golden, {1})
    assert not generator_fixed(golden, chi, (1,), (2,))
    assert generator_fixed(golden, chi, (1, 2), (2, 1))
    one = LocFun.constant(full2, 1)
    assert generator_fixed(full2, one, (1, 2), (2, 2))
    assert not generator_fixed(full2, one, (1, 2), (2,))


def test_expectation_support(golden, full2):
    chi = make_chi_H(full2, {1})
    # equal H-weight: the whole canonical domain survives
    assert expectation_support(full2, chi, (1, 2), (2, 1)) == [(1, 2, 1), (1, 2, 2)]
    # different H-weight: empty support
    assert expectation_support(full2, chi, (1,), (2,)) == []
    f = LocFun(golden, 2, {(1, 1): 1, (1, 2): 0, (2, 1): 1})
    assert expectation_support(golden, f, (1,), (2, 1)) == []


def test_minimality_search_zero_potential(golden, full2):
    for A in (golden, full2):
        zero = LocFun.constant(A, 0)
        z = PointSpec(A, (), (1,))
        for mu in enumerate_words(A, 2):
            witness = minimality_search(A, zero, z, mu)
            assert witness is not None
            assert witness.verify(A, zero, z, mu)


def test_minimality_search_not_found_full_shift(full2):
    chi = make_chi_H(full2, {1})
    z = PointSpec(full2, (), (2,))
    assert minimality_search(full2, chi, z, (1,)) is None
    # tighter and looser bounds agree
    assert minimality_search(full2, chi, z, (1,), k_max=6, value_max=8) is None


def test_minimality_search_coboundary_found(golden, full2):
    for A in (golden, full2):
        b = LocFun.indicator_cylinder(A, (1,))
        f = coboundary_transform(b)
        z = PointSpec(A, (), (1,))
        for mu in enumerate_words(A, 2):
            witness = minimality_search(A, f, z, mu)
            assert witness is not None and witness.verify(A, f, z, mu)


def test_minimality_search_deterministic(full2):
    f = coboundary_transform(make_chi_H(full2, {1}))
    z = PointSpec(full2, (), (2,))
    first = minimality_search(full2, f, z, (1, 2))
    second = minimality_search(full2, f, z, (1, 2))
    assert (first.x, first.k, first.l) == (second.x, second.k, second.l)


def test_minimality_verdict_classes(golden, full2):
    assert minimality_verdict(golden, LocFun.constant(golden, 0)).kind == "minimal"
    verdict = minimality_verdict(golden, LocFun.constant(golden, 1))
    assert verdict.kind == "minimal" and verdict.certified
    verdict = minimality_verdict(golden, make_chi_H(golden, {1}))
    assert verdict.kind == "minimal" and verdict.certified
    verdict = minimality_verdict(full2, make_chi_H(full2, {1}))
    assert verdict.kind == "nonminimal" and verdict.certified
    assert verdict.evidence == ((PointSpec(full2, (), (2,)), (1,)),)


def test_minimality_verdict_requires_irreducible():
    from sftcocycles import TransitionMatrix

    reducible = TransitionMatrix([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="irreducible"):
        minimality_verdict(reducible, LocFun.constant(reducible, 0))
    swap = TransitionMatrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="permutation"):
        minimality_verdict(swap, LocFun.constant(swap, 0))


def test_minimality_verdict_deep_general_potential(full2):
    # A general depth-6 potential: the classifier's refusal path must
    # not enumerate the simple cycles of the 64-vertex block graph.
    rng = random.Random(6)
    f = LocFun(full2, 6, {w: rng.randint(-2, 2) for w in enumerate_words(full2, 6)})
    verdict = minimality_verdict(full2, f)
    assert verdict.kind == "unknown" and not verdict.certified


@pytest.mark.parametrize(
    "bounds",
    [{"k_max": -1}, {"value_max": -5}, {"k_max": True}, {"k_max": 6.0}, {"value_max": None}],
)
def test_minimality_bounds_must_be_nonnegative_integers(full2, bounds):
    chi = make_chi_H(full2, {1})
    z = PointSpec(full2, (), (2,))
    with pytest.raises(ValueError, match="nonnegative integer"):
        minimality_search(full2, chi, z, (1,), **bounds)
    with pytest.raises(ValueError, match="nonnegative integer"):
        minimality_verdict(full2, chi, **bounds)


def test_minimality_witness_is_certified_without_assert(full2, monkeypatch):
    # The certificate is checked by an explicit test, so it survives -O.
    monkeypatch.setattr(MinimalityWitness, "verify", lambda *args: False)
    one = LocFun.constant(full2, 1)
    with pytest.raises(RuntimeError, match="failed verification"):
        minimality_search(full2, one, PointSpec(full2, (), (2,)), (1,))


def test_tampered_witness_fails_verification(full2):
    # Each tampering breaks exactly one of the three checks.
    f = coboundary_transform(LocFun.indicator_cylinder(full2, (1,)))
    z, mu = PointSpec(full2, (), (2,)), (1, 2)
    witness = minimality_search(full2, f, z, mu)
    x, k, l = witness.x, witness.k, witness.l
    assert (x, k, l) == (PointSpec(full2, (1,), (2,)), 1, 0)
    assert witness.verify(full2, f, z, mu)
    # x = 2 2 2 ... lies outside the cylinder of mu; the zero potential
    # keeps the sums equal, and sigma(x) = z keeps the tails.
    zero = LocFun.constant(full2, 0)
    assert not MinimalityWitness(PointSpec(full2, (), (2,)), k, l).verify(full2, zero, z, mu)
    # l + 1: sigma(z) = z keeps the tails, but f^1(z) = 1 != f^1(x) = 0.
    assert not MinimalityWitness(x, k, l + 1).verify(full2, f, z, mu)
    # The constant 1 sums to k = 1 along x and to l = 0 along z.
    assert not witness.verify(full2, LocFun.constant(full2, 1), z, mu)


def test_potential_and_point_must_live_on_the_shift(golden, full2):
    # chi_{1} of the full 2-shift is not a function on the golden mean
    # shift: it has a value on the word 2 2, which golden does not admit.
    foreign = make_chi_H(full2, {1})
    with pytest.raises(ValueError, match="f must live on the shift A"):
        minimality_verdict(golden, foreign)
    with pytest.raises(ValueError, match="f must live on the shift A"):
        minimality_search(golden, foreign, PointSpec(golden, (), (1,)), (1,))
    chi = make_chi_H(golden, {1})
    with pytest.raises(ValueError, match="z must be a point of the shift A"):
        minimality_search(golden, chi, PointSpec(full2, (), (1,)), (1,))
    with pytest.raises(ValueError, match="f must live on the shift A"):
        membership_split(golden, foreign, Bisection((1,), (2, 1)))
    with pytest.raises(ValueError, match="f must live on the shift A"):
        generator_fixed(golden, foreign, (1,), (2, 1))
    with pytest.raises(ValueError, match="f must live on the shift A"):
        expectation_support(golden, foreign, (1,), (2, 1))
    # An equal matrix built separately is the same shift.
    twin = TransitionMatrix([[1, 1], [1, 0]])
    assert minimality_search(twin, chi, PointSpec(golden, (), (1,)), (1,)) is not None
    assert generator_fixed(twin, chi, (1,), (1,))


def test_found_search_checks_each_word_once(full2, monkeypatch):
    # mu, the prefix of z and the spliced x are checked; verify reads
    # windows of points already checked and checks none again.
    f = coboundary_transform(LocFun.indicator_cylinder(full2, (1,)))
    z, mu = PointSpec(full2, (), (2,)), (1, 2)
    checked = []
    check_word = TransitionMatrix.check_word
    monkeypatch.setattr(TransitionMatrix, "check_word", lambda A, w: checked.append(w) or check_word(A, w))
    witness = minimality_search(full2, f, z, mu)
    assert witness is not None and len(checked) == 4
    checked.clear()
    assert witness.verify(full2, f, z, mu) and checked == []


def test_verify_refuses_a_function_of_another_shift(full2, golden):
    f = coboundary_transform(LocFun.indicator_cylinder(full2, (1,)))
    z, mu = PointSpec(full2, (), (2,)), (1, 2)
    witness = minimality_search(full2, f, z, mu)
    with pytest.raises(ValueError, match="f must live on the shift A"):
        witness.verify(full2, LocFun.constant(golden, 1), z, mu)
