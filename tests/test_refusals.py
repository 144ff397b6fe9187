"""Refusals and negative answers that no other test reaches.

Each library refusal is checked by type and message; each CLI case by
its documented exit code (2 for invalid input, 4 for an unknown
verdict) and by what it writes to stdout and stderr.
"""

import itertools
import json
import time
from types import SimpleNamespace

import pytest

from sftcocycles import (
    Bisection,
    BlockCode,
    FullGroupElement,
    LocFun,
    MinimalityWitness,
    PointSpec,
    TransferIdentityError,
    TransitionMatrix,
    cocycle_sum,
    decode_return_times,
    enumerate_words,
    generator_fixed,
    invert,
    membership_split,
    minimality_search,
    minimality_verdict,
    psi_transfer,
    suspended_matrix,
)
from sftcocycles.cli import main
from sftcocycles.sft import _excerpt, _integer

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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda A: FullGroupElement(FULL2, [((1,), (1,)), ((2,), (2,))]), "matrix"),
        (lambda A: BlockCode(GOLDEN, A, 1, {(1,): 1, (2,): 2}), "source"),
        (lambda A: BlockCode(A, GOLDEN, 1, {(1,): 1, (2,): 2}), "target"),
    ],
    ids=["FullGroupElement", "BlockCode-source", "BlockCode-target"],
)
def test_codes_need_transition_matrices(golden, build, message):
    with pytest.raises(ValueError, match="^%s must be a TransitionMatrix$" % message):
        build(golden)


def test_full_group_rules_must_be_iterable(full2):
    with pytest.raises(ValueError, match="^rules must be an iterable, not 5$"):
        FullGroupElement(full2, 5)


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
    zero = LocFun.constant(full2, 0)
    # The type is checked before any attribute of h is read.
    for h in (SimpleNamespace(source=full2, target=full2), full2, None):
        with pytest.raises(TypeError, match="^h must be a BlockCode or a FullGroupElement$"):
            psi_transfer(LocFun.constant(full2, 1), h, zero, zero)


@pytest.mark.parametrize(
    "build", [LocFun, lambda A, m, table: BlockCode(A, A, m, table)], ids=["LocFun", "BlockCode"]
)
def test_extra_keys_of_mixed_types_are_refused_as_inadmissible(golden, build):
    table = {(1,): 1, (2,): 1, "x": 1, (3,): 2}
    message = "^(code )?table has entries for inadmissible words: \\['x', \\(3,\\)\\]$"
    with pytest.raises(ValueError, match=message):
        build(golden, 1, table)
    # Tuples whose symbols do not compare are refused the same way.
    with pytest.raises(ValueError, match="inadmissible words: \\[\\('a',\\), \\(3,\\)\\]$"):
        build(golden, 1, {(1,): 1, (2,): 1, ("a",): 1, (3,): 2})


def comb(L):
    """The full-group element fixing the cylinders of 1^i 2 (i < L) and 1^L."""
    return [((1,) * i + (2,),) * 2 for i in range(L)] + [((1,) * L,) * 2]


def test_comb_refusal_stops_at_its_first_cylinder(full2):
    # The identity asks sigma x = x on every cylinder; the check lists the
    # words of the first rule only, not the 2^401 words of its depth.
    tau = FullGroupElement(full2, comb(400))
    zero = LocFun.constant(full2, 0)
    start = time.perf_counter()
    with pytest.raises(TransferIdentityError) as refused:
        psi_transfer(zero, tau, zero, zero)
    assert time.perf_counter() - start < 0.1
    assert refused.value.witness == (1,) * 401
    cut = "orbit-equivalence identity fails on the cylinder %s" % _excerpt((1,) * 401)
    assert str(refused.value) == cut and cut.endswith(" (1203 characters, cut)")


def test_sliding_code_refusal_quotes_its_cylinder_cut():
    # On this shift a word of 1s and 2s may end by entering the loop at 3;
    # k1 reads whether the 100th symbol is 3, so every cylinder is 100 long.
    A = TransitionMatrix([[0, 1, 1], [1, 0, 1], [0, 0, 1]])
    k1 = LocFun(A, 100, {w: int(w[-1] == 3) for w in enumerate_words(A, 100)})
    h = BlockCode(A, A, 1, {(1,): 1, (2,): 2, (3,): 3})
    with pytest.raises(TransferIdentityError) as refused:
        psi_transfer(LocFun.constant(A, 1), h, k1, k1)
    least = (1, 2) * 50
    assert refused.value.witness == least
    assert str(refused.value) == (
        "orbit-equivalence identity fails on the cylinder %s "
        "(a sliding code needs l1 = k1 + 1)" % _excerpt(least)
    )


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


# A value of the wrong type at the groupoid boundary: each call names the
# argument and the type it needs, where it would otherwise fail on an
# attribute the value lacks.
GROUPOID_TYPE_REFUSALS = {
    "membership_split-z": (
        lambda A, f: membership_split(A, f, ((1,), (1,))),
        "z must be a Bisection",
    ),
    "membership_split-A": (
        lambda A, f: membership_split(FULL2, f, Bisection((1,), (1,))),
        "A must be a TransitionMatrix",
    ),
    "membership_split-f": (
        lambda A, f: membership_split(A, dict(f.table), Bisection((1,), (1,))),
        "f must be a LocFun",
    ),
    "invert": (lambda A, f: invert(((1,), (1,))), "z must be a Bisection"),
    "generator_fixed-A": (
        lambda A, f: generator_fixed(FULL2, f, (1,), (1,)),
        "A must be a TransitionMatrix",
    ),
    "minimality_search-z": (
        lambda A, f: minimality_search(A, f, ((), (1,)), (1,)),
        "z must be a PointSpec",
    ),
    "minimality_verdict-f": (lambda A, f: minimality_verdict(A, None), "f must be a LocFun"),
    "cocycle_sum-f": (lambda A, f: cocycle_sum({}, (1,), 1), "f must be a LocFun"),
}


@pytest.mark.parametrize("call, message", GROUPOID_TYPE_REFUSALS.values(), ids=GROUPOID_TYPE_REFUSALS)
def test_a_value_of_the_wrong_type_is_refused_by_name(full2, call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call(full2, LocFun.constant(full2, 1))


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


def test_deeply_nested_json_is_validation_error(tmp_path, capsys):
    # The decoder recurses once per bracket; past the interpreter's limit
    # the file is refused like any other malformed JSON.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code = main(["validate", "--matrix", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s nests too deeply to parse\n" % path


@pytest.mark.parametrize(
    "entry, start",
    [("x" * 1_000_000, "'xxxx"), (json.loads("[" * 900 + "]" * 900), "[[[[")],
    ids=["long-string", "nested-900"],
)
def test_a_huge_refused_entry_is_quoted_as_an_excerpt(tmp_path, capsys, entry, start):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"matrix": [[entry, 1], [1, 0]]}))
    code = main(["validate", "--matrix", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.encode()) < 1024
    assert captured.err.startswith("error: matrix entry (1, 1) is " + start)
    assert captured.err.endswith(" characters, cut), not an integer\n")


LONG_KEY = ",".join(["1"] * 25_000)
WORDS_12 = dict.fromkeys(map(",".join, itertools.product("12", repeat=12)), 0)
HUGE_INPUTS = {
    # Every word over {1, 2} of length 12: 3,719 of the 4,096 keys are
    # inadmissible over the golden mean shift.
    "inadmissible-keys": (
        lambda write: [
            "coboundary", "check",
            "--matrix", write("gm.json", {"matrix": GOLDEN}),
            "--fn", write("fn.json", {"depth": 12, "values": WORDS_12}),
        ],
        "error: table has entries for inadmissible words: [(1, 1, 1,",
    ),
    "code-kind": (
        lambda write: transfer_args(write, {"kind": "k" * 100_000, "matrix": GOLDEN}),
        "error: unknown code kind 'kkkk",
    ),
    "rule-word": (
        lambda write: transfer_args(
            write, {"kind": "full_group", "matrix": GOLDEN, "rules": [[[2] * 50_000, [1]]]}
        ),
        "error: word (2, 2, 2,",
    ),
    "rule-pair": (
        lambda write: transfer_args(
            write, {"kind": "full_group", "matrix": FULL2, "rules": [[1] * 50_000]}
        ),
        "error: rule [1, 1, 1,",
    ),
    "repeated-word": (
        lambda write: [
            "coboundary", "check",
            "--matrix", write("full2.json", {"matrix": FULL2}),
            "--fn", write("fn.json", {"depth": 1, "values": {LONG_KEY: 0, LONG_KEY + " ": 0}}),
        ],
        "error: function 'values' key '1,1,1,",
    ),
    "word-syntax": (
        lambda write: [
            "coboundary", "check",
            "--matrix", write("full2.json", {"matrix": FULL2}),
            "--fn", write("fn.json", {"depth": 1, "values": {"x" * 100_000: 0}}),
        ],
        "error: word 'xxxx",
    ),
}


def transfer_args(write, code):
    return [
        "psi-transfer",
        "--code", write("code.json", code),
        "--fn", write("g.json", {"depth": 1, "values": {"1": 1, "2": -1}}),
        "--k1", write("k1.json", {"depth": 1, "values": {"1": 0, "2": 0}}),
        "--l1", write("l1.json", {"depth": 1, "values": {"1": 1, "2": 1}}),
    ]


@pytest.mark.parametrize("argv, start", HUGE_INPUTS.values(), ids=HUGE_INPUTS)
def test_a_huge_refused_input_is_quoted_as_an_excerpt(write, capsys, argv, start):
    code = main(argv(write))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.encode()) < 1024
    assert captured.err.startswith(start)
    assert " characters, cut)" in captured.err


def test_a_repeated_huge_json_key_is_quoted_as_an_excerpt(tmp_path, capsys):
    path = tmp_path / "repeated.json"
    key = json.dumps("k" * 100_000)
    path.write_text('{"matrix": %s, %s: 1, %s: 2}' % (GOLDEN, key, key))
    code = main(["validate", "--matrix", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.encode()) < 1024
    assert captured.err.startswith("error: JSON object repeats the key 'kkkk")


def test_an_integer_too_long_to_print_is_quoted_by_its_size():
    # Python refuses str() of an int past 4,300 digits; the refusal still
    # names the parameter.
    message = "^k_max must be a nonnegative integer, not <a negative integer of 16610 bits>$"
    with pytest.raises(ValueError, match=message):
        _integer(-(10**5000), "k_max", 0)
    with pytest.raises(ValueError, match="^word <a tuple holding an integer too long to print> is"):
        TransitionMatrix(GOLDEN).check_word((10**5000,))


def test_comb_file_refusal_is_one_short_line(write, capsys):
    # A 5 KB code file whose cylinders are 41 symbols deep: the refusal
    # comes from the first cylinder, and quotes it cut.
    rules = [[list(src), list(dst)] for src, dst in comb(40)]
    code_file = write("comb.json", {"kind": "full_group", "matrix": FULL2, "rules": rules})
    zero = write("zero.json", {"depth": 1, "values": {"1": 0, "2": 0}})
    start = time.perf_counter()
    code = main(["psi-transfer", "--code", code_file, "--fn", zero, "--k1", zero, "--l1", zero])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and elapsed < 1.0
    assert captured.err == "error: orbit-equivalence identity fails on the cylinder %s\n" % (
        _excerpt((1,) * 41)
    )
    assert captured.err.endswith("... (123 characters, cut)\n")


CODE_FILES = {
    "sliding": {"source": GOLDEN, "target": GOLDEN, "window": 1, "table": {"1": 1, "2": 2}},
    "full_group": {"kind": "full_group", "matrix": FULL2, "rules": [[[1], [2]], [[2], [1]]]},
}
NEEDS = {
    "sliding": "sliding code file needs 'source', 'target', 'window' and 'table'",
    "full_group": "full_group code file needs 'matrix' and 'rules'",
}


@pytest.mark.parametrize(
    "kind, missing",
    [("sliding", key) for key in ("source", "target", "window", "table")]
    + [("full_group", key) for key in ("matrix", "rules")],
)
def test_code_file_missing_a_key_names_the_keys(write, capsys, kind, missing):
    doc = {key: value for key, value in CODE_FILES[kind].items() if key != missing}
    code = main(
        [
            "psi-transfer",
            "--code", write("code.json", doc),
            "--fn", write("g.json", {"depth": 1, "values": {"1": 1, "2": -1}}),
            "--k1", write("k1.json", {"depth": 1, "values": {"1": 0, "2": 0}}),
            "--l1", write("l1.json", {"depth": 1, "values": {"1": 1, "2": 1}}),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s\n" % NEEDS[kind]
