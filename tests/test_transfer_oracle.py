"""The per-cylinder transfer check and table against the per-word ones.

`reference_verify` is `_verify_full_group_identity` as it was before the
rules, offsets and (k1, l1) values were computed once per cylinder,
kept verbatim.  Both must accept the same (h, k1, l1) data, and refuse
the rest with the same message and witness cylinder.

`reference_table` is the table loop of `psi_transfer` as it was before
each value was computed once per deciding prefix, kept verbatim: it
evaluates both orbit sums on every word of the output depth.  The
transfer is now built from its closed forms, g o h for a sliding code
and g + G - G(sigma .) for a full-group element, and is checked against
`reference_table`: the transferred functions must be equal, for
full-group elements and for sliding codes.  Where the reference cannot
list its words, the closed form is checked against the orbit sums at
sample points.
"""

import random
import time

import pytest

from sftcocycles import (
    BlockCode,
    FullGroupElement,
    LocFun,
    TransferIdentityError,
    TransitionMatrix,
    coboundary_transform,
    enumerate_words,
    psi_transfer,
    solve_potential,
)
from sftcocycles.locfun import _tail_form, _verify_full_group_identity


def reference_verify(h, k1, l1):
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


def reference_table(g, h, k1, l1):
    A = h.source
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


def outcome(verify, h, k1, l1):
    try:
        verify(h, k1, l1)
    except TransferIdentityError as exc:
        return str(exc), exc.witness
    return None


def random_element(rng, A, pieces):
    """Two random cylinder partitions paired by last symbol, or None."""

    def partition():
        parts = [(i,) for i in range(1, A.n + 1)]
        while len(parts) < pieces:
            w = parts.pop(rng.randrange(len(parts)))
            parts.extend(w + (j,) for j in A.followers(w[-1]))
        return parts

    src, dst = partition(), partition()
    rng.shuffle(dst)
    # Pair each source with an unused target of the same follower set.
    rules = []
    for s in src:
        for d in dst:
            if A.followers(d[-1]) == A.followers(s[-1]):
                dst.remove(d)
                rules.append((s, d))
                break
        else:
            return None
    return FullGroupElement(A, rules)


def perturbations(rng, A, k1, l1):
    """(k1, l1) itself, shifted together, and nonnegative changes.

    One-sided changes move the net tail offset; lowering both values,
    by one or down to zero on one side, keeps the offset and may break
    the explicit prefix instead.
    """
    depth = max(k1.depth, l1.depth) + rng.randint(0, 1)
    words = enumerate_words(A, depth)

    def indicator(chosen):
        return LocFun(A, depth, {w: int(w in chosen) for w in words})

    bumps = [
        indicator(rng.sample(words, rng.randint(1, min(3, len(words)))))
        for _ in range(3)
    ]
    least = {w: min(k1.value_on(w), l1.value_on(w)) for w in words}
    lowerable = [w for w in words if least[w] >= 1]
    drops = [
        indicator(rng.sample(lowerable, min(1, len(lowerable)))),
        LocFun(A, depth, least),
    ]
    one = LocFun.constant(A, 1)
    return [
        (k1, l1),
        (k1 + one, l1 + one),
        (k1 + bumps[2], l1 + bumps[2]),
        (k1 - drops[0], l1 - drops[0]),
        (k1 - drops[1], l1 - drops[1]),
        (k1, l1 + bumps[0]),
        (k1 + bumps[1], l1),
        (k1 + one, l1),
    ]


def random_potential(rng, A, depth):
    return LocFun(A, depth, {w: rng.randint(-3, 3) for w in enumerate_words(A, depth)})


def transfers_match(rng, h, k1, l1):
    """Whether psi_transfer equals the reference on random potentials.

    Returns False, without comparing, when (k1, l1) fail the identity.
    """
    for depth in (1, 2, 3):
        g = random_potential(rng, h.target, depth)
        try:
            t = psi_transfer(g, h, k1, l1)
        except TransferIdentityError:
            return False
        assert t == reference_table(g, h, k1, l1)
    return True


MATRICES = {
    "full2": [[1, 1], [1, 1]],
    "golden": [[1, 1], [1, 0]],
    "zd3": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
}

GOLDEN_ELEMENTS = [
    [((1,), (1,)), ((2,), (2,))],
    # swaps the cylinders of 1 1 and 2 1
    [((1, 1), (2, 1)), ((1, 2), (1, 2)), ((2, 1), (1, 1))],
    # 1 1 1 <-> 2 1 and 1 1 2 <-> 1 2
    [((1, 1, 1), (2, 1)), ((1, 1, 2), (1, 2)), ((1, 2), (1, 1, 2)), ((2, 1), (1, 1, 1))],
]


@pytest.mark.parametrize("name, extra", [("full2", 2), ("golden", 3), ("zd3", 2)])
def test_random_elements_match_reference(name, extra):
    A = TransitionMatrix(MATRICES[name])
    rng = random.Random(name)
    outcomes = []
    while len(outcomes) < 14:
        tau = random_element(rng, A, rng.randint(A.n, A.n + extra))
        if tau is None:
            continue
        k1, l1 = tau.coe_pair()
        results = []
        for k, l in perturbations(rng, A, k1, l1):
            expected = outcome(reference_verify, tau, k, l)
            assert outcome(_verify_full_group_identity, tau, k, l) == expected
            results.append(expected is None)
        outcomes.append(results)
    # The unperturbed and shifted pairs pass, the one-sided changes fail,
    # and some lowered pairs fail with equal offsets.
    assert all(r[:3] == [True] * 3 and r[5:] == [False] * 3 for r in outcomes)
    assert not all(r[3] and r[4] for r in outcomes)


@pytest.mark.parametrize("rules", GOLDEN_ELEMENTS)
def test_golden_elements_match_reference(golden, rules):
    tau = FullGroupElement(golden, rules)
    k1, l1 = tau.coe_pair()
    rng = random.Random(len(rules))
    results = []
    for k, l in perturbations(rng, golden, k1, l1):
        expected = outcome(reference_verify, tau, k, l)
        assert outcome(_verify_full_group_identity, tau, k, l) == expected
        results.append(expected)
    assert results[:3] == [None] * 3
    assert results[-1] is not None


@pytest.mark.parametrize("name, extra", [("full2", 2), ("golden", 3), ("zd3", 2)])
def test_random_element_transfers_match_reference(name, extra):
    A = TransitionMatrix(MATRICES[name])
    rng = random.Random("table-" + name)
    compared = 0
    elements = 0
    while elements < 10:
        tau = random_element(rng, A, rng.randint(A.n, A.n + extra))
        if tau is None:
            continue
        elements += 1
        k1, l1 = tau.coe_pair()
        for k, l in perturbations(rng, A, k1, l1):
            compared += transfers_match(rng, tau, k, l)
    # The unperturbed and the two raised pairs pass on every element.
    assert compared >= 30


@pytest.mark.parametrize("rules", GOLDEN_ELEMENTS)
def test_golden_element_transfers_match_reference(golden, rules):
    tau = FullGroupElement(golden, rules)
    k1, l1 = tau.coe_pair()
    rng = random.Random("table-%d" % len(rules))
    results = [transfers_match(rng, tau, k, l) for k, l in perturbations(rng, golden, k1, l1)]
    assert results[:3] == [True] * 3


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_sliding_code_transfers_match_reference(name, window):
    # Every sequence is admissible in the full 2-shift, so any table
    # into it is a sliding code; the identity only asks l1 = k1 + 1.
    A = TransitionMatrix(MATRICES[name])
    full2 = TransitionMatrix(MATRICES["full2"])
    rng = random.Random("sliding-%s-%d" % (name, window))
    for _ in range(4):
        table = {w: rng.randint(1, 2) for w in enumerate_words(A, window)}
        h = BlockCode(A, full2, window, table)
        depth = rng.randint(1, 2)
        k1 = LocFun(A, depth, {w: rng.randint(0, 2) for w in enumerate_words(A, depth)})
        assert transfers_match(rng, h, k1, k1 + 1)
        assert not transfers_match(rng, h, k1, k1)


def test_higher_block_code_transfer_matches_reference(golden):
    labels = enumerate_words(golden, 2)
    index = {w: i + 1 for i, w in enumerate(labels)}
    block = TransitionMatrix([[int(a[1:] == b[:1]) for b in labels] for a in labels])
    h = BlockCode(golden, block, 2, index)
    rng = random.Random("higher-block")
    zero = LocFun.constant(golden, 0)
    assert transfers_match(rng, h, zero, zero + 1)


def orbit_sums(g, h, k1, l1, word):
    """Both inclusive orbit sums of the transfer, at a point starting with `word`."""
    kv, lv = k1.value_on(word), l1.value_on(word)
    hx = h.image_prefix(word, lv + g.depth)
    hsx = h.image_prefix(word[1:], kv + g.depth)
    plus = sum(g.table[hx[i : i + g.depth]] for i in range(lv + 1))
    minus = sum(g.table[hsx[j : j + g.depth]] for j in range(kv + 1))
    return plus - minus


def test_thirteen_rule_transfer_matches_orbit_sums(full2):
    # Sources 2, 12, 112, ..., 1^11 2 and 1^12 with shuffled targets: the
    # reference would list words of length max_src + max(l1) + g.depth.
    rng = random.Random("thirteen")
    sources = [(1,) * i + (2,) for i in range(12)] + [(1,) * 12]
    targets = list(sources)
    rng.shuffle(targets)
    tau = FullGroupElement(full2, list(zip(sources, targets)))
    k1, l1 = tau.coe_pair()
    g = random_potential(rng, full2, 2)
    start = time.perf_counter()
    t = psi_transfer(g, tau, k1, l1)
    assert time.perf_counter() - start < 2.0
    assert t.depth <= tau.max_src + g.depth
    for _ in range(200):
        ones = (1,) * rng.randint(0, 14)
        word = ones + tuple(rng.randint(1, 2) for _ in range(80 - len(ones)))
        assert t.value_on(word) == orbit_sums(g, tau, k1, l1, word)
    b = solve_potential(full2, t - g)
    assert b.shifted() - b == t - g
    one = LocFun.constant(full2, 1)
    assert psi_transfer(one, tau, k1, l1) == coboundary_transform(tau.cocycle_function())
