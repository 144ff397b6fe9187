"""Refusals and negative answers that no other test reaches.

Each library refusal is checked by type and message; each CLI case by
its documented exit code (2 for invalid input, 4 for an unknown
verdict) and by what it writes to stdout and stderr.
"""

import json
from types import SimpleNamespace

import pytest

from sftcocycles import (
    FullGroupElement,
    LocFun,
    MinimalityWitness,
    PointSpec,
    TransitionMatrix,
    decode_return_times,
    minimality_search,
    psi_transfer,
    suspended_matrix,
)
from sftcocycles.cli import main

GOLDEN = [[1, 1], [1, 0]]
FULL2 = [[1, 1], [1, 1]]


@pytest.fixture
def golden():
    return TransitionMatrix(GOLDEN)


@pytest.fixture
def full2():
    return TransitionMatrix(FULL2)


def test_locfun_needs_a_transition_matrix():
    with pytest.raises(ValueError, match="^matrix must be a TransitionMatrix$"):
        LocFun(GOLDEN, 1, {(1,): 0, (2,): 0})


def test_sum_across_two_shifts_is_refused(golden, full2):
    with pytest.raises(ValueError, match="^functions live on different shift spaces$"):
        LocFun.constant(golden, 1) + LocFun.constant(full2, 1)


def swap_element(A):
    return FullGroupElement(A, [((1,), (2,)), ((2,), (1,))])


@pytest.mark.parametrize(
    "wrong, message",
    [
        ("g", "g must live on the target shift of h"),
        ("k1", "k1 must live on the source shift of h"),
        ("l1", "l1 must live on the source shift of h"),
    ],
)
def test_psi_transfer_refuses_functions_on_another_shift(golden, full2, wrong, message):
    zero = LocFun.constant(full2, 0)
    args = {"g": LocFun.constant(full2, 1), "k1": zero, "l1": zero}
    args[wrong] = LocFun.constant(golden, 1)
    with pytest.raises(ValueError, match="^%s$" % message):
        psi_transfer(args["g"], swap_element(full2), args["k1"], args["l1"])


def test_psi_transfer_refuses_an_h_of_neither_code_type(full2):
    h = SimpleNamespace(source=full2, target=full2)
    zero = LocFun.constant(full2, 0)
    with pytest.raises(TypeError, match="^h must be a BlockCode or a FullGroupElement$"):
        psi_transfer(LocFun.constant(full2, 1), h, zero, zero)


@pytest.mark.parametrize("rule", [((), (1,)), ((1,), ())])
def test_full_group_rule_words_must_be_nonempty(full2, rule):
    with pytest.raises(ValueError, match="^rule words must be nonempty$"):
        FullGroupElement(full2, [rule, ((2,), (2,))])


def test_decode_refuses_the_empty_window(golden):
    S = suspended_matrix(golden, (2, 1))
    with pytest.raises(ValueError, match="^cannot decode an empty window$"):
        decode_return_times(S, ())


def test_minimality_search_refuses_the_empty_mu(full2):
    z = PointSpec(full2, (), (1,))
    with pytest.raises(ValueError, match="^mu must be nonempty$"):
        minimality_search(full2, LocFun.constant(full2, 1), z, ())


def test_witness_verify_is_false_when_the_tails_differ(full2):
    f = LocFun.constant(full2, 1)
    z = PointSpec(full2, (), (1,))
    assert MinimalityWitness(PointSpec(full2, (2,), (1,)), 1, 1).verify(full2, f, z, (2,))
    # sigma x = 2 2 2 ... is not sigma z = 1 1 1 ..., although x starts
    # with mu and both cocycle sums are 1.
    witness = MinimalityWitness(PointSpec(full2, (2,), (2,)), 1, 1)
    assert not witness.verify(full2, f, z, (2,))


# ------------------------------------------------------------------ CLI


@pytest.fixture
def write(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def minimal_args(write, fn_values, *extra):
    return [
        "minimal",
        "--matrix", write("gm.json", {"matrix": GOLDEN}),
        "--fn", write("fn.json", {"depth": 1, "values": fn_values}),
        *extra,
    ]


def test_minimal_point_without_mu_is_validation_error(write, capsys):
    code = main(minimal_args(write, {"1": 1, "2": 0}, "--point", ":1"))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --point and --mu must be given together\n"


def test_minimal_point_without_colon_is_validation_error(write, capsys):
    code = main(minimal_args(write, {"1": 1, "2": 0}, "--point", "1,2", "--mu", "1"))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "point must be 'preperiod:period'" in captured.err


def test_code_of_unknown_kind_is_validation_error(write, capsys):
    code = main(
        [
            "psi-transfer",
            "--code", write("code.json", {"kind": "shuffle", "matrix": GOLDEN}),
            "--fn", write("g.json", {"depth": 1, "values": {"1": 1, "2": -1}}),
            "--k1", write("k1.json", {"depth": 1, "values": {"1": 0, "2": 0}}),
            "--l1", write("l1.json", {"depth": 1, "values": {"1": 1, "2": 1}}),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: unknown code kind 'shuffle'\n"


def test_minimal_unknown_verdict_exits_4(write, capsys):
    code = main(minimal_args(write, {"1": 1, "2": 2}))
    captured = capsys.readouterr()
    assert code == 4 and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["verdict"] == "unknown" and doc["certified"] is False
    assert doc["evidence"] == []
