import random

import numpy as np
import pytest

from sftcocycles import (
    BlockCode,
    FullGroupElement,
    LocFun,
    PointSpec,
    TransferIdentityError,
    coboundary_transform,
    cocycle_sum,
    enumerate_words,
    higher_block,
    make_chi_H,
    psi_transfer,
)
from sftcocycles import locfun

from conftest import count_in


def random_locfun(A, rng, max_depth=3, lo=-5, hi=5):
    depth = rng.randint(1, max_depth)
    table = {w: rng.randint(lo, hi) for w in enumerate_words(A, depth)}
    return LocFun(A, depth, table)


def random_word(A, rng, length):
    w = [rng.randint(1, A.n)]
    while len(w) < length:
        w.append(rng.choice(A.followers(w[-1])))
    return tuple(w)


def test_table_must_be_total_and_admissible(golden):
    with pytest.raises(ValueError, match="missing"):
        LocFun(golden, 2, {(1, 1): 0, (1, 2): 0})
    with pytest.raises(ValueError, match="inadmissible"):
        LocFun(golden, 2, {(1, 1): 0, (1, 2): 0, (2, 1): 0, (2, 2): 0})


def test_normalization_minimal_depth(golden):
    f = LocFun(golden, 3, {w: 7 for w in enumerate_words(golden, 3)})
    assert f.depth == 1 and f.is_constant()
    g = LocFun(golden, 2, {(1, 1): 1, (1, 2): 0, (2, 1): 1})
    assert g.depth == 2  # depends on the second coordinate


def test_normalization_preserves_evaluation(golden, full2):
    rng = random.Random(7)
    for A in (golden, full2):
        for _ in range(50):
            depth = rng.randint(2, 4)
            table = {w: rng.randint(-3, 3) for w in enumerate_words(A, depth)}
            f = LocFun(A, depth, table)
            for w in enumerate_words(A, depth + 1):
                assert f.value_on(w) == table[w[:depth]]


def test_chi_H_examples(golden):
    assert make_chi_H(golden, {1, 2}).is_constant()
    assert make_chi_H(golden, {1, 2}).table == {(1,): 1, (2,): 1}
    assert make_chi_H(golden, set()).table == {(1,): 0, (2,): 0}
    assert make_chi_H(golden, {1}).table == {(1,): 1, (2,): 0}


def test_cocycle_sum_examples(golden, full2):
    one = LocFun.constant(full2, 1)
    for n in range(5):
        assert cocycle_sum(one, (1, 2, 1, 2, 1), n) == n
    # weighted count of symbols in H along the first 3 coordinates
    chi = make_chi_H(full2, {1})
    assert cocycle_sum(chi, (1, 2, 1, 1), 3) == 2
    f = LocFun(golden, 2, {(1, 1): 2, (1, 2): -1, (2, 1): 0})
    assert cocycle_sum(f, (1, 1, 2, 1, 1), 3) == 2 + (-1) + 0
    assert cocycle_sum(f, (1, 1), 0) == 0
    with pytest.raises(ValueError, match="too short"):
        cocycle_sum(f, (1, 1, 2), 3)


def test_cocycle_additivity(golden, full2):
    rng = random.Random(42)
    for A in (golden, full2):
        for _ in range(200):
            f = random_locfun(A, rng)
            n, k = rng.randint(0, 5), rng.randint(0, 5)
            w = random_word(A, rng, n + k + f.depth - 1 + rng.randint(0, 2))
            assert cocycle_sum(f, w, n + k) == cocycle_sum(f, w, n) + cocycle_sum(
                f, w[n:], k
            )


def test_chi_cocycle_counts_symbols(golden, full2):
    rng = random.Random(3)
    for A in (golden, full2):
        for H in ({1}, {2}, {1, 2}):
            chi = make_chi_H(A, H)
            for _ in range(100):
                w = random_word(A, rng, rng.randint(1, 9))
                k = rng.randint(0, len(w))
                assert cocycle_sum(chi, w, k) == count_in(w[:k], H)


def test_coboundary_transform_examples(golden, full2):
    assert coboundary_transform(LocFun.constant(golden, 9)) == LocFun.constant(golden, 1)
    b = make_chi_H(full2, {1})
    assert coboundary_transform(b).table == {
        (1, 1): 1,
        (1, 2): 0,
        (2, 1): 2,
        (2, 2): 1,
    }
    b = make_chi_H(golden, {1})
    assert coboundary_transform(b).table == {(1, 1): 1, (1, 2): 0, (2, 1): 2}


def test_coboundary_transform_cycle_sums(golden, full2):
    # along a closed cycle the potential telescopes away, leaving the length
    rng = random.Random(11)
    cycles = {golden: [(1,), (1, 2)], full2: [(1,), (2,), (1, 2)]}
    for A, cycs in cycles.items():
        for _ in range(25):
            b = random_locfun(A, rng)
            f = coboundary_transform(b)
            for cyc in cycs:
                p = len(cyc)
                unrolled = cyc * (p + f.depth)
                assert cocycle_sum(f, unrolled, p) == p


def test_eval_on_point(golden, full2):
    c = LocFun.constant(golden, 4)
    p = PointSpec(golden, (2,), (1,))
    assert c.eval_point(p, 0) == 4
    chi = make_chi_H(full2, {1})
    q = PointSpec(full2, (2,), (1,))
    assert chi.eval_point(q, 0) == 0
    assert chi.eval_point(q, 1) == 1
    f = LocFun(golden, 2, {(1, 1): 5, (1, 2): 7, (2, 1): -2})
    alternating = PointSpec(golden, (), (1, 2))
    values = [f.eval_point(alternating, i) for i in range(4)]
    assert values == [7, -2, 7, -2]


def test_eval_point_refuses_a_negative_offset(golden):
    p = PointSpec(golden, (2,), (1,))
    with pytest.raises(ValueError, match="offset must be a nonnegative integer"):
        LocFun.constant(golden, 4).eval_point(p, -1)


def test_locfun_arithmetic(golden):
    f = make_chi_H(golden, {1})
    g = LocFun(golden, 2, {(1, 1): 1, (1, 2): 2, (2, 1): 3})
    assert (f + g) - g == f
    assert (3 * f).table == {(1,): 3, (2,): 0}
    assert (np.int64(2) * f).table == {(1,): 2, (2,): 0}
    assert (1 - f).table == {(1,): 0, (2,): 1}
    assert f.shifted().value_on((2, 1)) == 1
    assert f.base_normalized().table == {(1,): 0, (2,): -1}


@pytest.mark.parametrize("flag", [True, False])
def test_bool_scalar_is_refused(golden, flag):
    # As f + True is: a bool is not an integer scalar.
    f = make_chi_H(golden, {1})
    with pytest.raises(ValueError, match="scalar is %r, not an integer" % flag):
        flag * f
    with pytest.raises(ValueError, match="value on the word"):
        f + flag


def identity_code(A):
    return BlockCode(A, A, 1, {(i,): i for i in range(1, A.n + 1)})


def two_block_code(A):
    block, labels = higher_block(A, 2)
    index = {w: i + 1 for i, w in enumerate(labels)}
    return BlockCode(A, block, 2, {w: index[w] for w in labels}), block, index


def test_block_code_validation(golden):
    with pytest.raises(ValueError, match="missing"):
        BlockCode(golden, golden, 1, {(1,): 1})
    # sending both symbols to 2 breaks admissibility (2 -> 2 forbidden)
    with pytest.raises(ValueError, match="not admissible"):
        BlockCode(golden, golden, 1, {(1,): 2, (2,): 2})


@pytest.mark.parametrize(
    "table, message",
    [
        ({(1,): 1.7, (2,): 2}, r"source word \(1,\) is 1.7"),
        ({(1,): 1, (2,): True}, r"source word \(2,\) is True"),
        ({(1,): "1", (2,): 2}, r"source word \(1,\) is '1'"),
        ({(1,): None, (2,): 2}, r"source word \(1,\) is None"),
    ],
)
def test_block_code_values_must_be_integers(golden, table, message):
    with pytest.raises(ValueError, match=message):
        BlockCode(golden, golden, 1, table)


@pytest.mark.parametrize("window", [1.5, 1.0, True, "1", None])
def test_block_code_window_must_be_an_integer(golden, window):
    with pytest.raises(ValueError, match="window must be an integer"):
        BlockCode(golden, golden, window, {(1,): 1, (2,): 2})


def test_block_code_table_keys_are_the_source_words(golden, full2):
    with pytest.raises(ValueError, match="inadmissible"):
        BlockCode(golden, golden, 1, {(1,): 1, (2,): 2, (3,): 1})
    # A deep window with a small table is refused at its first missing
    # word, without listing the 2**64 source words.
    with pytest.raises(ValueError, match=r"missing the admissible word \(1, 1, .*, 2\)"):
        BlockCode(full2, full2, 64, {(1,) * 64: 1})
    # Without a key of the table's length every word is missing, so even
    # a depth far beyond any listing is refused at once.
    with pytest.raises(ValueError, match="missing every admissible word of length 1000000000"):
        LocFun(full2, 10**9, {(1,): 0})


def test_block_code_accepts_numpy_integers(golden):
    code = BlockCode(golden, golden, np.int64(1), {(1,): np.int64(1), (2,): np.int32(2)})
    assert type(code.window) is int
    assert code.table == {(1,): 1, (2,): 2}
    assert all(type(s) is int for s in code.table.values())


def test_block_code_apply(golden):
    code, block, index = two_block_code(golden)
    assert code.apply((1, 1, 2, 1)) == (
        index[(1, 1)],
        index[(1, 2)],
        index[(2, 1)],
    )
    assert block.is_admissible(code.apply((1, 1, 2, 1, 1)))


def test_psi_transfer_identity(golden):
    g = LocFun(golden, 2, {(1, 1): 3, (1, 2): -2, (2, 1): 5})
    k1 = LocFun.constant(golden, 0)
    l1 = LocFun.constant(golden, 1)
    assert psi_transfer(g, identity_code(golden), k1, l1) == g


def test_psi_transfer_conjugacy_is_composition(golden, full2):
    # telescoping collapses the transferred function to g after the code
    for A in (golden, full2):
        code, block, index = two_block_code(A)
        g = LocFun(
            block, 1, {(s,): (2 * s - 3) for s in range(1, block.n + 1)}
        )
        k1 = LocFun.constant(A, 0)
        l1 = LocFun.constant(A, 1)
        transferred = psi_transfer(g, code, k1, l1)
        composed = LocFun(
            A, 2, {w: g.table[(index[w],)] for w in enumerate_words(A, 2)}
        )
        assert transferred == composed


def example_full_group_element(full2):
    # swaps the cylinder structure: 11w -> 1w, 12w -> 21w, 2w -> 22w
    return FullGroupElement(
        full2, [((1, 1), (1,)), ((1, 2), (2, 1)), ((2,), (2, 2))]
    )


def test_full_group_element_validation(full2, golden):
    with pytest.raises(ValueError, match="cover"):
        FullGroupElement(full2, [((1,), (1,))])
    with pytest.raises(ValueError, match="overlap"):
        FullGroupElement(full2, [((1,), (1,)), ((1, 2), (2, 1)), ((2,), (2,))])
    with pytest.raises(ValueError, match="follower"):
        FullGroupElement(golden, [((1,), (2,)), ((2,), (1,))])


@pytest.mark.parametrize("rule", [[(1,)], ((1,), (1,), (2,)), 5, ((1,), 2)])
def test_full_group_rule_must_be_a_pair_of_words(full2, rule):
    with pytest.raises(ValueError, match=r"rule .* is not a \(src, dst\) pair"):
        FullGroupElement(full2, [rule, ((2,), (2,))])


def test_full_group_element_moves_points_in_orbits(full2):
    tau = example_full_group_element(full2)
    assert tau.apply_point(PointSpec(full2, (1, 1), (2,))) == PointSpec(
        full2, (1,), (2,)
    )
    assert tau.apply_point(PointSpec(full2, (), (2,))) == PointSpec(full2, (), (2,))
    d = tau.cocycle_function()
    assert d.table == {(1, 1): 1, (1, 2): 0, (2, 1): -1, (2, 2): -1}


def test_psi_transfer_full_group_unit(full2):
    # the transfer of the constant 1 across tau is the unit coboundary of d_tau
    tau = example_full_group_element(full2)
    k1, l1 = tau.coe_pair()
    one = LocFun.constant(full2, 1)
    assert psi_transfer(one, tau, k1, l1) == coboundary_transform(tau.cocycle_function())


def test_psi_transfer_rejects_bad_data(golden, full2):
    g = LocFun.constant(golden, 1)
    code = identity_code(golden)
    with pytest.raises(ValueError, match="nonnegative"):
        psi_transfer(g, code, LocFun.constant(golden, -1), LocFun.constant(golden, 0))
    with pytest.raises(TransferIdentityError) as info:
        psi_transfer(g, code, LocFun.constant(golden, 0), LocFun.constant(golden, 2))
    assert info.value.witness is not None
    tau = example_full_group_element(full2)
    with pytest.raises(TransferIdentityError) as info:
        psi_transfer(
            LocFun.constant(full2, 1),
            tau,
            LocFun.constant(full2, 0),
            LocFun.constant(full2, 0),
        )
    assert info.value.witness is not None


def test_locfun_serialization_round_trip(golden):
    f = LocFun(golden, 2, {(1, 1): 1, (1, 2): 0, (2, 1): 2})
    doc = f.as_dict()
    assert doc == {"depth": 2, "values": {"1,1": 1, "1,2": 0, "2,1": 2}}
    parsed = LocFun(
        golden,
        doc["depth"],
        {tuple(int(s) for s in k.split(",")): v for k, v in doc["values"].items()},
    )
    assert parsed == f


@pytest.mark.parametrize("bad", [1.7, 2.0, True, None, "1"])
def test_values_must_be_integers(golden, bad):
    table = {(1, 1): 0, (1, 2): bad, (2, 1): 0}
    with pytest.raises(ValueError, match=r"value on the word \(1, 2\) is"):
        LocFun(golden, 2, table)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, None, "1"])
def test_depth_must_be_an_integer(golden, bad):
    with pytest.raises(ValueError, match="depth must be an integer"):
        LocFun(golden, bad, {(1,): 0, (2,): 1})


def test_numpy_integers_become_python_ints(golden):
    f = LocFun(golden, np.int64(1), {(1,): np.int64(3), (2,): np.int8(-1)})
    assert f.depth == 1 and type(f.depth) is int
    assert f.table == {(1,): 3, (2,): -1}
    assert all(type(v) is int for v in f.table.values())


def count_calls(monkeypatch, name):
    """Wrap sftcocycles.locfun.<name> and count its calls."""
    calls = []
    inner = getattr(locfun, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(locfun, name, counted)
    return calls


def test_coboundary_transform_lists_its_words_once(full2, monkeypatch):
    # A derived function is tabulated once; the outside-input gate is
    # never entered.
    b = LocFun(full2, 3, {w: sum(w) % 3 for w in enumerate_words(full2, 3)})
    listings = count_calls(monkeypatch, "enumerate_words")
    gated = count_calls(monkeypatch, "_table_values")
    f = coboundary_transform(b)
    assert f.depth == 4
    assert [args[1:] for args in listings] == [(4,)]
    assert gated == []


def test_coe_pair_lists_its_words_once(full2, monkeypatch):
    tau = example_full_group_element(full2)
    listings = count_calls(monkeypatch, "enumerate_words")
    gated = count_calls(monkeypatch, "_table_values")
    tau.coe_pair()
    assert [args[1:] for args in listings] == [(1 + tau.max_src,)]
    assert gated == []


def test_derived_functions_skip_the_table_gate(golden, full2, monkeypatch):
    f = LocFun(golden, 2, {(1, 1): 1, (1, 2): -2, (2, 1): 3})
    g = make_chi_H(golden, {2})
    code, block, index = two_block_code(golden)
    potential = LocFun(block, 1, {(s,): s for s in range(1, block.n + 1)})
    zero, one = LocFun.constant(golden, 0), LocFun.constant(golden, 1)
    tau = example_full_group_element(full2)
    k1, l1 = tau.coe_pair()
    h = LocFun(full2, 2, {w: w[0] - w[1] for w in enumerate_words(full2, 2)})
    gated = count_calls(monkeypatch, "_table_values")
    derived = [
        f + g,
        -f,
        2 * f,
        f.shifted(),
        psi_transfer(potential, code, zero, one),
        psi_transfer(h, tau, k1, l1),
    ]
    assert gated == []
    assert derived[0].table == {(1, 1): 1, (1, 2): -2, (2, 1): 4}
