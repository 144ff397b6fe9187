"""Derived functions tabulated once, against the constructor path they replaced.

Every function the package derives from functions it holds (sums,
negation, scalar multiples, shifts, indicators, unit coboundaries,
full-group cocycles, transfers, recoded ceilings and solved potentials)
is now tabulated once over the admissible words, with no second pass
through the checks for outside tables.  The bodies below are the
earlier ones, kept verbatim and still built through ``LocFun(...)``;
where an earlier body called another replaced method (``self._lift``,
``b.shifted()``, ``one - b``, ``.base_normalized()``), it calls that
method's reference here.  Both must give an equal depth and table.
"""

import itertools
import random

import pytest

from sftcocycles import (
    BlockCode,
    FullGroupElement,
    LocFun,
    TransitionMatrix,
    coboundary_transform,
    enumerate_words,
    higher_block,
    make_chi_H,
    psi_transfer,
    reduce_to_first_coordinate,
)
from sftcocycles.coboundary import _block_weights, _forest_potential, _potential

from test_coboundary_oracle import BASES, REDUCIBLE, seeded_potentials
from test_transfer_oracle import GOLDEN_ELEMENTS, MATRICES, random_element


# ------------------------------------------------------------------ oracle


def reference_lift(self, depth):
    if depth == self.depth:
        return self.table
    return {
        w: self.table[w[: self.depth]]
        for w in enumerate_words(self.matrix, depth)
    }


def reference_binary(self, other, op):
    if isinstance(other, int):
        other = LocFun.constant(self.matrix, other)
    if not isinstance(other, LocFun):
        return NotImplemented
    if not self.matrix.same_matrix(other.matrix):
        raise ValueError("functions live on different shift spaces")
    depth = max(self.depth, other.depth)
    left, right = reference_lift(self, depth), reference_lift(other, depth)
    return LocFun(self.matrix, depth, {w: op(left[w], right[w]) for w in left})


def reference_add(self, other):
    return reference_binary(self, other, lambda a, b: a + b)


def reference_sub(self, other):
    return reference_binary(self, other, lambda a, b: a - b)


def reference_rsub(self, other):
    return reference_binary(self, other, lambda a, b: b - a)


def reference_neg(self):
    return LocFun(self.matrix, self.depth, {w: -v for w, v in self.table.items()})


def reference_rmul(self, scalar):
    return LocFun(self.matrix, self.depth, {w: scalar * v for w, v in self.table.items()})


def reference_shifted(self):
    table = {}
    for w in enumerate_words(self.matrix, self.depth + 1):
        table[w] = self.table[w[1:]]
    return LocFun(self.matrix, self.depth + 1, table)


def reference_indicator_cylinder(matrix, mu):
    mu = matrix.check_word(mu)
    if not mu:
        return LocFun.constant(matrix, 1)
    table = {w: (1 if w == mu else 0) for w in enumerate_words(matrix, len(mu))}
    return LocFun(matrix, len(mu), table)


def reference_make_chi_H(A, H):
    H = A.check_symbols(H)
    return LocFun(A, 1, {(i,): (1 if i in H else 0) for i in range(1, A.n + 1)})


def reference_coboundary_transform(b):
    one = LocFun.constant(b.matrix, 1)
    return reference_add(reference_sub(one, b), reference_shifted(b))


def reference_cocycle_function(self):
    table = {}
    for w in enumerate_words(self.matrix, self.max_src):
        src, dst = self.rule_for(w)
        table[w] = len(src) - len(dst)
    return LocFun(self.matrix, self.max_src, table)


def reference_coe_pair(self):
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


def reference_sliding_transfer(g, h):
    A = h.source
    depth = h.input_length(g.depth)
    return LocFun(A, depth, {w: g.table[h.apply(w)] for w in enumerate_words(A, depth)})


def reference_full_group_transfer(g, h):
    A, K = h.matrix, g.depth

    def ergodic_sum(word, n):
        return sum(g.table[word[i : i + K]] for i in range(n))

    G = {}
    for w in enumerate_words(A, h.max_src + K - 1):
        src, dst = h.rule_for(w)
        G[w] = ergodic_sum(dst + w[len(src) :], len(dst)) - ergodic_sum(w, len(src))
    depth = h.max_src + K
    table = {w: g.table[w[:K]] + G[w[:-1]] - G[w[1:]] for w in enumerate_words(A, depth)}
    return LocFun(A, depth, table)


def reference_reduce_to_first_coordinate(A, f):
    if f.min_value() < 1:
        raise ValueError("a ceiling function must be positive")
    block, labels = higher_block(A, f.depth)
    table = {(i + 1,): f.table[w] for i, w in enumerate(labels)}
    return block, LocFun(block, 1, table), labels


def reference_base_normalized(self):
    least = min(self.table)
    return reference_add(self, -self.table[least])


def reference_potential(A, g):
    block, labels, weights = _block_weights(A, g)
    beta, heads = _forest_potential(block, weights, [0] * len(weights))
    if heads:
        return None, (block, labels, weights)
    b = reference_base_normalized(LocFun(A, g.depth, dict(zip(labels, beta))))
    return (b if reference_sub(reference_coboundary_transform(b), 1) == g else None), None


# ------------------------------------------------------------------- tests


def assert_same(got, expected):
    """Equal shift, depth and table, and every value a Python int."""
    assert got.matrix.same_matrix(expected.matrix)
    assert (got.depth, got.table) == (expected.depth, expected.table)
    assert all(type(v) is int for v in got.table.values())


def seeded_functions(A, rng):
    for depth in range(1, 5):
        words = enumerate_words(A, depth)
        for lo, hi in [(-3, 3), (0, 1), (2, 2)]:
            yield LocFun(A, depth, {w: rng.randint(lo, hi) for w in words})
        # A function of fewer coordinates, listed at a larger depth.
        yield LocFun(A, depth, {w: w[0] * rng.randint(-1, 1) for w in words})


@pytest.mark.parametrize("name", sorted(BASES))
def test_arithmetic_matches_reference(name):
    A = TransitionMatrix(BASES[name])
    rng = random.Random("tabulate " + name)
    functions = list(seeded_functions(A, rng))
    for f in functions:
        g = rng.choice(functions)
        assert_same(f + g, reference_add(f, g))
        assert_same(f - g, reference_sub(f, g))
        assert_same(f + 3, reference_add(f, 3))
        assert_same(2 - f, reference_rsub(f, 2))
        assert_same(-f, reference_neg(f))
        for scalar in (-2, 0, 1, 3):
            assert_same(scalar * f, reference_rmul(f, scalar))
        assert_same(f.shifted(), reference_shifted(f))
        assert_same(coboundary_transform(f), reference_coboundary_transform(f))
        ceiling = f - f.min_value() + 1
        got = reduce_to_first_coordinate(A, ceiling)
        expected = reference_reduce_to_first_coordinate(A, ceiling)
        assert got[0].same_matrix(expected[0]) and got[2] == expected[2]
        assert_same(got[1], expected[1])


@pytest.mark.parametrize("name", sorted(BASES))
def test_indicators_match_reference(name):
    A = TransitionMatrix(BASES[name])
    for length in range(5):
        for mu in enumerate_words(A, length):
            got = LocFun.indicator_cylinder(A, mu)
            assert_same(got, reference_indicator_cylinder(A, mu))
    for size in range(A.n + 1):
        for H in itertools.combinations(range(1, A.n + 1), size):
            assert_same(make_chi_H(A, H), reference_make_chi_H(A, H))


def element_transfers_match(rng, tau):
    d = tau.cocycle_function()
    assert_same(d, reference_cocycle_function(tau))
    k1, l1 = tau.coe_pair()
    k_ref, l_ref = reference_coe_pair(tau)
    assert_same(k1, k_ref)
    assert_same(l1, l_ref)
    for depth in (1, 2, 3):
        words = enumerate_words(tau.matrix, depth)
        g = LocFun(tau.matrix, depth, {w: rng.randint(-3, 3) for w in words})
        assert_same(psi_transfer(g, tau, k1, l1), reference_full_group_transfer(g, tau))


@pytest.mark.parametrize("name, extra", [("full2", 2), ("golden", 3), ("zd3", 2)])
def test_random_elements_match_reference(name, extra):
    A = TransitionMatrix(MATRICES[name])
    rng = random.Random("tabulate-" + name)
    elements = 0
    while elements < 10:
        tau = random_element(rng, A, rng.randint(A.n, A.n + extra))
        if tau is None:
            continue
        elements += 1
        element_transfers_match(rng, tau)


@pytest.mark.parametrize("rules", GOLDEN_ELEMENTS)
def test_golden_elements_match_reference(golden, rules):
    element_transfers_match(random.Random(len(rules)), FullGroupElement(golden, rules))


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_sliding_code_transfers_match_reference(name, window):
    A = TransitionMatrix(MATRICES[name])
    full2 = TransitionMatrix(MATRICES["full2"])
    rng = random.Random("tabulate-sliding-%s-%d" % (name, window))
    for _ in range(4):
        h = BlockCode(A, full2, window, {w: rng.randint(1, 2) for w in enumerate_words(A, window)})
        k1 = LocFun(A, 1, {(i,): rng.randint(0, 2) for i in range(1, A.n + 1)})
        for depth in (1, 2, 3):
            words = enumerate_words(full2, depth)
            g = LocFun(full2, depth, {w: rng.randint(-3, 3) for w in words})
            assert_same(psi_transfer(g, h, k1, k1 + 1), reference_sliding_transfer(g, h))


def potentials_match(A, f):
    for g in (f, f - 1):
        b, graph = _potential(A, g)
        b_ref, graph_ref = reference_potential(A, g)
        assert (b is None, graph is None) == (b_ref is None, graph_ref is None)
        if b is not None:
            assert_same(b, b_ref)


@pytest.mark.parametrize("name", sorted(BASES))
def test_seeded_potentials_match_reference(name):
    A = TransitionMatrix(BASES[name])
    for f in seeded_potentials(A, random.Random("one pass " + name)):
        potentials_match(A, f)


@pytest.mark.parametrize("name", sorted(REDUCIBLE))
def test_reducible_potentials_match_reference(name):
    A = TransitionMatrix(REDUCIBLE[name])
    for values in itertools.product(range(-1, 3), repeat=A.n):
        potentials_match(A, LocFun(A, 1, {(i,): v for i, v in enumerate(values, 1)}))
    for f in seeded_potentials(A, random.Random("one pass " + name)):
        potentials_match(A, f)
