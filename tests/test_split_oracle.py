"""The per-call membership split against the per-piece cocycle sums.

`reference_split` is `membership_split` as it was before the fixed and
boundary parts of the two cocycle sums were separated, kept verbatim:
it sums f^|mu| on mu.w and f^|nu| on nu.w for every tail w.  Both must
return the same inside and outside pieces in the same order, and
`generator_fixed` and `expectation_support`, which are built on the
split, must agree with the same functions built on the reference.
"""

import random
import re

import pytest

from sftcocycles import (
    Bisection,
    LocFun,
    TransitionMatrix,
    canonicalize,
    cocycle_sum,
    enumerate_words,
    expectation_support,
    generator_fixed,
    membership_split,
)
from sftcocycles.groupoid import MembershipSplit, _check_shift

from conftest import end_matched_bisections, words_up_to


def reference_split(A, f, z):
    _check_shift(A, f)
    A.check_word(z.mu)
    A.check_word(z.nu)
    inside, outside = [], []
    for w in enumerate_words(A, f.depth - 1, after=z.mu[-1]):
        piece = Bisection(z.mu + w, z.nu + w)
        if cocycle_sum(f, piece.mu, len(z.mu)) == cocycle_sum(f, piece.nu, len(z.nu)):
            inside.append(piece)
        else:
            outside.append(piece)
    return MembershipSplit(inside, outside)


def reference_generator_fixed(A, f, mu, nu):
    return all(
        reference_split(A, f, piece).all_inside()
        for piece in canonicalize(A, mu, nu)
    )


def reference_expectation_support(A, f, mu, nu):
    words = []
    for piece in canonicalize(A, mu, nu):
        split = reference_split(A, f, piece)
        words.extend(p.mu for p in split.inside)
    return sorted(words)


MATRICES = {
    "golden": [[1, 1], [1, 0]],
    "full2": [[1, 1], [1, 1]],
    "zd3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
}


def pieces(split):
    return (
        [(p.mu, p.nu) for p in split.inside],
        [(p.mu, p.nu) for p in split.outside],
    )


def seeded_potentials(A, depth, rng, count):
    # Few distinct values, so that inside and outside pieces both occur.
    words = enumerate_words(A, depth)
    return [
        LocFun(A, depth, {w: rng.randint(-1, 1) for w in words})
        for _ in range(count)
    ]


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_splits_match_reference(name, depth):
    A = TransitionMatrix(MATRICES[name])
    rng = random.Random("%s-%d" % (name, depth))
    bisections = end_matched_bisections(A, 4 if A.n == 2 else 3)
    short = differing = mixed = 0
    tail = depth - 1
    for f in seeded_potentials(A, depth, rng, 4):
        for z in bisections:
            split = membership_split(A, f, z)
            assert pieces(split) == pieces(reference_split(A, f, z))
            if min(len(z.mu), len(z.nu)) < tail:
                short += 1
            elif z.mu[len(z.mu) - tail :] != z.nu[len(z.nu) - tail :]:
                differing += 1
            mixed += bool(split.inside) and bool(split.outside)
    if depth <= 2:
        # End-matched words share their last K - 1 <= 1 symbols, so every
        # piece of a split takes the same verdict.
        assert mixed == 0
    else:
        # Words shorter than K - 1, unequal last K - 1 symbols, and
        # pieces on both sides of one split all occur.
        assert short and differing and mixed


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_generator_fixed_and_expectation_match_reference(name, depth):
    A = TransitionMatrix(MATRICES[name])
    rng = random.Random("fixed-%s-%d" % (name, depth))
    words = words_up_to(A, 3)
    fixed = 0
    for f in seeded_potentials(A, depth, rng, 3):
        for mu in words:
            for nu in words:
                flag = generator_fixed(A, f, mu, nu)
                assert flag == reference_generator_fixed(A, f, mu, nu)
                assert expectation_support(A, f, mu, nu) == reference_expectation_support(
                    A, f, mu, nu
                )
                fixed += flag
    assert 0 < fixed < 3 * len(words) ** 2


@pytest.mark.parametrize(
    "mu, nu",
    [((2, 2), (1, 2)), ((1, 2), (2, 2)), ((3,), (3,)), ((0,), (1, 0))],
)
def test_inadmissible_bisections_are_refused_alike(golden, mu, nu):
    f = LocFun(golden, 2, {(1, 1): 1, (1, 2): 0, (2, 1): -1})
    z = Bisection(mu, nu)
    with pytest.raises(ValueError) as expected:
        reference_split(golden, f, z)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        membership_split(golden, f, z)
