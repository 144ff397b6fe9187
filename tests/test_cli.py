import io
import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sftcocycles.cli import main


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths[name] = str(path)

    write("gm.json", {"matrix": [[1, 1], [1, 0]]})
    write("full2.json", {"matrix": [[1, 1], [1, 1]]})
    write("reducible.json", {"matrix": [[1, 1], [0, 1]]})
    write("broken.json", {"matrix": [[1, 0], [1, 0]]})
    write("f21.json", {"depth": 1, "values": {"1": 2, "2": 1}})
    write("chi1.json", {"depth": 1, "values": {"1": 1, "2": 0}})
    write("one.json", {"depth": 1, "values": {"1": 1, "2": 1}})
    write("partial.json", {"depth": 2, "values": {"1,1": 1, "1,2": 0}})
    write(
        "g_pm.json",
        {"depth": 1, "values": {"1": 1, "2": -1}},
    )
    write(
        "cob.json",
        {"depth": 2, "values": {"1,1": 1, "1,2": 0, "2,1": 2, "2,2": 1}},
    )
    write(
        "ident_code.json",
        {
            "kind": "sliding",
            "source": [[1, 1], [1, 0]],
            "target": [[1, 1], [1, 0]],
            "window": 1,
            "table": {"1": 1, "2": 2},
        },
    )
    write("k0.json", {"depth": 1, "values": {"1": 0, "2": 0}})
    write("l1.json", {"depth": 1, "values": {"1": 1, "2": 1}})
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_validate(files, capsys):
    code, doc = run(capsys, "validate", "--matrix", files["gm.json"])
    assert code == 0
    assert doc == {
        "n": 2,
        "irreducible": True,
        "primitive": True,
        "permutation": False,
    }
    code, doc = run(capsys, "validate", "--matrix", files["reducible.json"])
    assert code == 0 and doc["irreducible"] is False


def test_validate_zero_column_is_validation_error(files, capsys):
    code = main(["validate", "--matrix", files["broken.json"]])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("bad", [None, 1.5, "1", True])
def test_validate_non_integer_entry_is_validation_error(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": [[bad, 1], [1, 0]]}))
    code = main(["validate", "--matrix", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "entry (1, 1)" in captured.err


def test_words_and_higher_block(files, capsys):
    code, doc = run(capsys, "words", "--matrix", files["gm.json"], "--m", "2")
    assert code == 0 and doc["words"] == [[1, 1], [1, 2], [2, 1]]
    code, doc = run(capsys, "higher-block", "--matrix", files["gm.json"], "--K", "2")
    assert code == 0
    assert doc["matrix"] == [[1, 1, 0], [0, 0, 1], [1, 1, 0]]
    assert doc["labels"] == [[1, 1], [1, 2], [2, 1]]


def test_saturated_exit_codes(files, capsys):
    code, doc = run(capsys, "saturated", "--matrix", files["gm.json"], "--H", "1")
    assert code == 0 and doc == {"saturated": True, "witness": None}
    code, doc = run(capsys, "saturated", "--matrix", files["full2.json"], "--H", "1")
    assert code == 3 and doc == {"saturated": False, "witness": [2]}
    code = main(["saturated", "--matrix", files["gm.json"], "--H", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "symbol 5 out of range" in captured.err


def test_sigma_family_and_inclusion(files, capsys):
    code, doc = run(capsys, "sigma-family", "--matrix", files["gm.json"], "--H", "1")
    assert code == 0 and doc == {"sigma": [[1], [2, 1]]}
    code = main(["sigma-family", "--matrix", files["full2.json"], "--H", "1"])
    capsys.readouterr()
    assert code == 3
    code, doc = run(
        capsys, "inclusion-matrix", "--matrix", files["gm.json"], "--H", "1"
    )
    assert code == 0
    assert doc["A_H"] == [[1, 1], [1, 1]]
    assert doc["sigma"] == [[1], [2, 1]]
    assert doc["primitive"] is True
    assert doc["dims"] == [[1, 1], [2, 2], [4, 4]]


def test_suspend(files, capsys):
    code, doc = run(
        capsys, "suspend", "--matrix", files["gm.json"], "--fn", files["f21.json"]
    )
    assert code == 0
    assert doc["labels"] == ["1_0", "1_1", "2_0"]
    assert doc["A_f"] == [[0, 1, 0], [1, 0, 1], [1, 0, 0]]
    assert doc["corner_ok"] is True


def test_split_fixed_expectation(files, capsys):
    code, doc = run(
        capsys,
        "split",
        "--matrix",
        files["full2.json"],
        "--fn",
        files["chi1.json"],
        "--mu",
        "1",
        "--nu",
        "2",
    )
    assert code == 0
    assert doc == {
        "inside": [],
        "outside": [
            {"mu": [1, 1], "nu": [2, 1]},
            {"mu": [1, 2], "nu": [2, 2]},
        ],
    }
    code, doc = run(
        capsys,
        "fixed-generator",
        "--matrix",
        files["full2.json"],
        "--fn",
        files["chi1.json"],
        "--mu",
        "1,2",
        "--nu",
        "2,1",
    )
    assert code == 0 and doc == {"fixed": True}
    code, doc = run(
        capsys,
        "fixed-generator",
        "--matrix",
        files["full2.json"],
        "--fn",
        files["chi1.json"],
        "--mu",
        "1",
        "--nu",
        "2",
    )
    assert code == 3 and doc == {"fixed": False}
    code, doc = run(
        capsys,
        "expectation",
        "--matrix",
        files["full2.json"],
        "--fn",
        files["chi1.json"],
        "--mu",
        "1,2",
        "--nu",
        "2,1",
    )
    assert code == 0 and doc == {"support": [[1, 2, 1], [1, 2, 2]]}


def test_minimal_verdicts(files, capsys):
    code, doc = run(
        capsys, "minimal", "--matrix", files["full2.json"], "--fn", files["chi1.json"]
    )
    assert code == 3
    assert doc["verdict"] == "nonminimal" and doc["certified"] is True
    assert doc["evidence"] == [{"mu": [1], "z": {"preperiod": [], "period": [2]}}]
    code, doc = run(
        capsys, "minimal", "--matrix", files["gm.json"], "--fn", files["chi1.json"]
    )
    assert code == 0 and doc["verdict"] == "minimal"
    code, doc = run(
        capsys,
        "minimal",
        "--matrix",
        files["full2.json"],
        "--fn",
        files["chi1.json"],
        "--point",
        ":2",
        "--mu",
        "1",
    )
    assert code == 4 and doc == {"found": False, "witness": None}
    code, doc = run(
        capsys,
        "minimal",
        "--matrix",
        files["full2.json"],
        "--fn",
        files["one.json"],
        "--point",
        ":2",
        "--mu",
        "1",
    )
    assert code == 0 and doc["found"] is True


def test_minimal_requires_irreducible(files, capsys):
    code = main(
        ["minimal", "--matrix", files["reducible.json"], "--fn", files["one.json"]]
    )
    err = capsys.readouterr().err
    assert code == 2 and "irreducible" in err


@pytest.mark.parametrize(
    "bounds", [["--k-max", "-1"], ["--value-max", "-5"]]
)
@pytest.mark.parametrize("point", [[], ["--point", ":2", "--mu", "1"]])
def test_minimal_negative_bound_is_validation_error(files, capsys, bounds, point):
    code = main(
        ["minimal", "--matrix", files["full2.json"], "--fn", files["chi1.json"]]
        + point
        + bounds
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "nonnegative integer" in captured.err


def test_out_of_memory_is_one_error_line(files, capsys):
    # The search builds z's window of k_max + K symbols at once; this
    # allocation fails at once with MemoryError.
    code = main(
        ["minimal", "--matrix", files["gm.json"], "--fn", files["one.json"]]
        + ["--point", "2:1", "--mu", "1", "--k-max", str(10**18)]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: not enough memory for this request\n"


def test_coboundary_check_and_solve(files, capsys):
    code, doc = run(
        capsys,
        "coboundary",
        "check",
        "--matrix",
        files["full2.json"],
        "--fn",
        files["g_pm.json"],
    )
    assert code == 3
    assert doc["coboundary"] is False
    assert doc["witness_cycle"] == [[1]] and doc["witness_sum"] == 1
    # cob.json is a unit coboundary 1 - b + b(sigma .): cycle sums are the
    # cycle lengths, so the check is negative
    code, doc = run(
        capsys,
        "coboundary",
        "check",
        "--matrix",
        files["full2.json"],
        "--fn",
        files["cob.json"],
    )
    assert code == 3
    code, doc = run(
        capsys,
        "coboundary",
        "solve",
        "--matrix",
        files["full2.json"],
        "--fn",
        files["chi1.json"],
    )
    assert code == 3


def test_coboundary_check_deep_general_potential(tmp_path, capsys, files):
    # A depth-6 general potential over the full 2-shift: the check must
    # answer with a witness instead of running into a cycle-count cap.
    rng = random.Random(6)
    values = {w: rng.randint(-2, 2) for w in itertools.product((1, 2), repeat=6)}
    path = tmp_path / "g6.json"
    path.write_text(json.dumps(
        {"depth": 6, "values": {",".join(map(str, w)): v for w, v in values.items()}}
    ))
    code, doc = run(
        capsys, "coboundary", "check", "--matrix", files["full2.json"], "--fn", str(path)
    )
    assert code == 3 and doc["coboundary"] is False
    cyc = [tuple(w) for w in doc["witness_cycle"]]
    assert all(a[1:] == b[:-1] for a, b in zip(cyc, cyc[1:] + cyc[:1]))
    assert doc["witness_sum"] == sum(values[w] for w in cyc) != 0


def test_coboundary_solve_success(files, tmp_path, capsys):
    doc = {"depth": 2, "values": {"1,1": 0, "1,2": -1, "2,1": 1, "2,2": 0}}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out = run(
        capsys, "coboundary", "solve", "--matrix", files["full2.json"], "--fn", str(path)
    )
    assert code == 0
    assert out == {"potential": {"depth": 1, "values": {"1": 0, "2": -1}}}


def test_psi_transfer_cli(files, capsys):
    code, doc = run(
        capsys,
        "psi-transfer",
        "--fn",
        files["g_pm.json"],
        "--code",
        files["ident_code.json"],
        "--k1",
        files["k0.json"],
        "--l1",
        files["l1.json"],
    )
    assert code == 0
    assert doc == {"depth": 1, "values": {"1": 1, "2": -1}}


GOLDEN = [[1, 1], [1, 0]]
FULL2 = [[1, 1], [1, 1]]


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "code file must be a JSON object"),
        ("sliding", "code file must be a JSON object"),
        (
            {"source": GOLDEN, "target": GOLDEN, "window": 1.5, "table": {"1": 1, "2": 2}},
            "window must be an integer",
        ),
        (
            {"source": GOLDEN, "target": GOLDEN, "window": 1, "table": {"1": 1.7, "2": 2}},
            "source word (1,) is 1.7",
        ),
        (
            {"source": GOLDEN, "target": GOLDEN, "window": 1, "table": {"1": 1, "2": True}},
            "source word (2,) is True",
        ),
        (
            {"source": GOLDEN, "target": GOLDEN, "window": 1, "table": [1, 2]},
            "'table' must be an object",
        ),
        ({"kind": "full_group", "matrix": FULL2, "rules": [[[1]]]}, "rule [[1]] is not a (src, dst) pair"),
        ({"kind": "full_group", "matrix": FULL2, "rules": [[1, 2]]}, "rule [1, 2] is not a (src, dst) pair"),
        ({"kind": "full_group", "matrix": FULL2, "rules": 5}, "'rules' must be a list"),
        ({"kind": "full_group", "matrix": FULL2, "rules": []}, "needs at least one rule"),
    ],
)
def test_psi_transfer_malformed_code_is_validation_error(files, tmp_path, capsys, doc, message):
    path = tmp_path / "bad_code.json"
    path.write_text(json.dumps(doc))
    code = main(
        [
            "psi-transfer", "--fn", files["g_pm.json"], "--code", str(path),
            "--k1", files["k0.json"], "--l1", files["l1.json"],
        ]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("levels", ["0", "-2"])
def test_inclusion_matrix_levels_below_one_is_validation_error(files, capsys, levels):
    code = main(["inclusion-matrix", "--matrix", files["gm.json"], "--H", "1", "--levels", levels])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--levels must be at least 1" in captured.err


def test_ktheory_cli(files, capsys):
    code, doc = run(capsys, "ktheory", "--matrix", files["gm.json"])
    assert code == 0
    assert doc["K0"] == {"rank": 0, "torsion": []}
    assert doc["K1"] == {"rank": 0}
    assert abs(doc["perron"] - 1.6180339887) < 1e-8


def test_examples_command(capsys):
    code, doc = run(capsys, "examples")
    assert code == 0
    assert doc["passed"] is True
    assert len(doc["checks"]) == 3


def test_locfun_totality_enforced(files, capsys):
    code = main(
        ["split", "--matrix", files["gm.json"], "--fn", files["partial.json"],
         "--mu", "1", "--nu", "1"]
    )
    err = capsys.readouterr().err
    assert code == 2 and "missing" in err


def test_unknown_command_and_flag(files, capsys):
    assert main(["bogus"]) == 1
    capsys.readouterr()
    assert main(["words", "--matrix", files["gm.json"], "--wrong", "1"]) == 1
    capsys.readouterr()


SEARCH = ["minimal", "--matrix", "full2.json", "--fn", "chi1.json", "--point", ":2", "--mu", "1"]
INTEGER_FLAGS = {
    "--m": ["words", "--matrix", "gm.json"],
    "--K": ["higher-block", "--matrix", "gm.json"],
    "--levels": ["inclusion-matrix", "--matrix", "gm.json", "--H", "1"],
    "--k-max": SEARCH,
    "--value-max": SEARCH,
}


@pytest.mark.parametrize("flag", sorted(INTEGER_FLAGS))
@pytest.mark.parametrize(
    "value", ["2", "-1", "+2", "\u0662", "1_0", " 2", "2 ", "two", "1.5", "-"]
)
def test_integer_flags_are_ascii_digits(files, capsys, flag, value):
    # An optional '-' and ASCII digits, as in words; any other spelling is
    # a usage error, and a negative number reaches the library's check.
    code = main([files.get(a, a) for a in INTEGER_FLAGS[flag]] + [flag, value])
    captured = capsys.readouterr()
    if value == "2":
        assert code in (0, 4) and json.loads(captured.out)
    elif value == "-1":
        assert code == 2 and captured.out == ""
    else:
        assert code == 1 and captured.out == ""
        assert "invalid int value: %r" % value in captured.err


def test_byte_identical_output(files, capsys):
    first = main(["inclusion-matrix", "--matrix", files["gm.json"], "--H", "1"])
    out1 = capsys.readouterr().out
    second = main(["inclusion-matrix", "--matrix", files["gm.json"], "--H", "1"])
    out2 = capsys.readouterr().out
    assert first == second == 0 and out1 == out2
    main(["ktheory", "--matrix", files["gm.json"]])
    out3 = capsys.readouterr().out
    main(["ktheory", "--matrix", files["gm.json"]])
    out4 = capsys.readouterr().out
    assert out3 == out4


def test_console_entry_point(files):
    result = subprocess.run(
        [sys.executable, "-m", "sftcocycles.cli", "validate", "--matrix", files["gm.json"]],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["irreducible"] is True


def test_import_does_not_load_networkx():
    code = "import sftcocycles, sftcocycles.cli, sys; assert 'networkx' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_commands_without_a_dense_kernel_do_not_load_numpy(files, tmp_path):
    # No module of the package imports NumPy; the K-groups and the Perron
    # value of `ktheory` compute in Python numbers.
    # b(sigma .) - b for b = chi_1 is a coboundary.
    cob = tmp_path / "chi1_cob.json"
    cob.write_text(json.dumps({"depth": 2, "values": {"1,1": 0, "1,2": -1, "2,1": 1, "2,2": 0}}))
    argvs = [
        ["validate", "--matrix", files["gm.json"]],
        ["words", "--matrix", files["gm.json"], "--m", "3"],
        ["split", "--matrix", files["full2.json"], "--fn", files["chi1.json"], "--mu", "1", "--nu", "2"],
        ["coboundary", "check", "--matrix", files["full2.json"], "--fn", str(cob)],
        ["ktheory", "--matrix", files["gm.json"]],
    ]
    code = (
        "import contextlib, io, sys\n"
        "import sftcocycles, sftcocycles.cli\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert sftcocycles.cli.main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n" % (argvs,)
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_coboundary_refusals_do_not_load_numpy(files):
    # The witness search walks defect sums in Python integers: chi_1 on the
    # full 2-shift sums to 1 on the loop at 1.
    argvs = [
        ["coboundary", mode, "--matrix", files["full2.json"], "--fn", files["chi1.json"]]
        for mode in ("check", "solve")
    ]
    code = (
        "import contextlib, io, sys\n"
        "import sftcocycles.cli\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert sftcocycles.cli.main(argv) == 3, argv\n"
        "assert 'numpy' not in sys.modules\n" % (argvs,)
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"depth": 1, "values": [1, 2]}, "'values' must be an object"),
        ({"depth": 1, "values": {"1": None, "2": 0}}, "value on the word (1,)"),
        ({"depth": 1, "values": {"1": 1.7, "2": 0}}, "value on the word (1,)"),
        ({"depth": 1, "values": {"1": True, "2": 0}}, "value on the word (1,)"),
        ({"depth": 1.5, "values": {"1": 1, "2": 0}}, "depth must be an integer"),
        ({"depth": "1", "values": {"1": 1, "2": 0}}, "depth must be an integer"),
    ],
)
def test_coboundary_check_non_integer_function_is_validation_error(
    files, tmp_path, capsys, doc, message
):
    path = tmp_path / "bad_fn.json"
    path.write_text(json.dumps(doc))
    code = main(["coboundary", "check", "--matrix", files["gm.json"], "--fn", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


# A tiny file whose depth or window is large: refused once its table is
# seen to miss a word, without listing the 2**64 admissible words.  A
# single 64-symbol rule is refused once the walk over its prefixes meets
# an uncovered cylinder.
DEEP = ",".join(["1"] * 64)


@pytest.mark.parametrize(
    "flag, doc, message",
    [
        pytest.param("--fn", {"depth": 22, "values": {}}, "missing", id="--fn-doc0"),
        pytest.param("--fn", {"depth": 64, "values": {}}, "missing", id="--fn-doc1"),
        pytest.param("--fn", {"depth": 64, "values": {DEEP: 0}}, "missing", id="--fn-doc2"),
        pytest.param("--code", {"source": FULL2, "target": FULL2, "window": 64, "table": {}},
                     "missing", id="--code-doc3"),
        pytest.param("--code", {"source": FULL2, "target": FULL2, "window": 64, "table": {DEEP: 1}},
                     "missing", id="--code-doc4"),
        pytest.param("--code", {"kind": "full_group", "matrix": FULL2, "rules": [[[1] * 64, [1] * 64]]},
                     "do not cover", id="--code-doc5"),
    ],
)
def test_large_depth_or_window_is_refused_quickly(files, tmp_path, capsys, flag, doc, message):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    if flag == "--fn":
        argv = ["coboundary", "check", "--matrix", files["full2.json"], "--fn", str(path)]
    else:
        argv = ["psi-transfer", "--code", str(path), "--fn", files["g_pm.json"],
                "--k1", files["k0.json"], "--l1", files["l1.json"]]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and message in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "raw, key",
    [
        ('{"depth": 1, "values": {"1": 0, " 1": 5, "2": 1}}', " 1"),
        ('{"depth": 1, "values": {"01": 0, "1": 5, "2": 1}}', "1"),
        ('{"depth": 1, "values": {"1": 0, "1": 5, "2": 1}}', "1"),
        ('{"depth": 1, "values": {"1_1": 0, "2": 1}}', "1_1"),
        ('{"depth": 1, "values": {"\\u0661": 0, "2": 1}}', "\u0661"),
        ('{"depth": 1, "values": {"+1": 0, "2": 1}}', "+1"),
    ],
)
def test_function_keys_are_words_and_distinct(files, tmp_path, capsys, raw, key):
    # Two keys for one word, or a key that is not a word, is invalid input
    # naming the key, instead of a silent merge or coercion.
    path = tmp_path / "keys.json"
    path.write_text(raw)
    code = main(["coboundary", "check", "--matrix", files["full2.json"], "--fn", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert repr(key) in captured.err


def test_code_table_keys_must_be_distinct_words(files, tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(
        {"source": GOLDEN, "target": GOLDEN, "window": 1, "table": {"1": 1, "2": 2, "2 ": 2}}
    ))
    code = main(["psi-transfer", "--fn", files["g_pm.json"], "--code", str(path),
                 "--k1", files["k0.json"], "--l1", files["l1.json"]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "'2 '" in captured.err


@pytest.mark.parametrize("mu", ["١", "1_1", "+1", "1,,2", "x"])
def test_word_arguments_are_ascii_digits(files, capsys, mu):
    code = main(["split", "--matrix", files["full2.json"], "--fn", files["chi1.json"],
                 "--mu", mu, "--nu", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and repr(mu) in captured.err


def test_word_arguments_allow_spaces_around_symbols(files, capsys):
    code, doc = run(capsys, "split", "--matrix", files["full2.json"], "--fn",
                    files["chi1.json"], "--mu", " 1 , 2 ", "--nu", "2")
    assert code == 0 and doc["outside"] == [{"mu": [1, 2], "nu": [2]}]


# ---------------------------------------------------------------- property
#
# main() on bounded random JSON documents and argv: it never raises,
# exits 0-4, and prints nothing or exactly one JSON document.  Matrices
# are at most 4 x 4, depths and windows at most 64 with at most 16 table
# entries, and the numeric flags small, so that no request starts an
# enumeration that is exponential by design (such as `words --m 40`).

JUNK_WORDS = ["", " ", "0", "5", "-1", "+1", "1_1", "١", "1,,2", "a", " 1 , 2 "]
JSON_LEAF = (
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats(-2, 2)
    | st.text("12,: a", max_size=4)
)
JSON_ANY = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text("12,", max_size=3), inner, max_size=4),
    max_leaves=8,
)
SHIFTS = [
    GOLDEN, FULL2, [[0, 1], [1, 0]], [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    [[1, 1, 0], [0, 0, 1], [1, 0, 0]], [[1] * 4] * 4,
]
RANDOM_MATRIX = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n
    )
)
# Mostly valid shifts, so that most requests get past the matrix check.
MATRIX = st.integers(0, 3).flatmap(lambda i: RANDOM_MATRIX if i == 2 else st.sampled_from(SHIFTS))
RARELY = st.integers(0, 9).map(lambda i: i == 4)
SMALL_VALUES = st.sampled_from([st.integers(-3, 4), st.integers(0, 1), st.integers(1, 3)])


def _key(word):
    return ",".join(map(str, word))


def _words(matrix, length):
    n = len(matrix)
    return [
        w for w in itertools.product(range(1, n + 1), repeat=length)
        if all(matrix[a - 1][b - 1] for a, b in zip(w, w[1:]))
    ]


@st.composite
def _table(draw, matrix, values=None):
    """(depth, table): total over the admissible words of `matrix` at a
    small depth, or at most 16 keys, some malformed, at a depth up to 64."""
    values = draw(SMALL_VALUES) if values is None else values
    depth = draw(st.integers(1, 3))
    words = _words(matrix, depth)
    if len(words) <= 16 and not draw(RARELY):
        keys = [_key(w) for w in words]
    else:
        depth = draw(st.integers(1, 64))
        symbols = st.lists(st.integers(1, 4), min_size=depth, max_size=depth).map(_key)
        keys = draw(st.lists(symbols | st.sampled_from(JUNK_WORDS), max_size=16, unique=True))
    if draw(RARELY):
        values = values | JSON_LEAF
    return depth, {k: draw(values) for k in keys}


def _doc(draw, inner):
    # The document as JSON text; now and then arbitrary JSON instead.
    return json.dumps(draw(JSON_ANY) if draw(RARELY) else inner)


def _fn_doc(draw, matrix, values=None):
    depth, table = draw(_table(matrix, values))
    if draw(RARELY):
        depth = draw(JSON_LEAF)
    return _doc(draw, {"depth": depth, "values": table})


def _code_doc(draw, matrix):
    kind = draw(st.sampled_from(["identity", "sliding", "full_group"]))
    if kind == "identity":
        doc = {"source": matrix, "target": matrix, "window": 1,
               "table": {str(s): s for s in range(1, len(matrix) + 1)}}
    elif kind == "sliding":
        window, table = draw(_table(matrix, st.integers(1, 4)))
        doc = {"kind": "sliding", "source": matrix, "target": draw(MATRIX),
               "window": window, "table": table}
    else:
        word = st.lists(st.integers(1, 3), min_size=1, max_size=8)
        rules = st.lists(st.tuples(word, word).map(list), max_size=4)
        doc = {"kind": "full_group", "matrix": matrix,
               "rules": draw(st.sampled_from([[[[1, 1], [1]], [[1, 2], [2, 1]], [[2], [2, 2]]]]) | rules)}
    return _doc(draw, doc)


@st.composite
def _request(draw):
    """(argv with '@name' file placeholders, {name: JSON text})."""
    command = draw(st.sampled_from([
        "validate", "words", "higher-block", "saturated", "sigma-family",
        "inclusion-matrix", "suspend", "split", "fixed-generator", "expectation",
        "minimal", "coboundary", "psi-transfer", "ktheory", "examples", "junk",
    ]))
    if command == "examples":
        return ["examples"], {}
    if command == "junk":
        flags = ["words", "--m", "two", "--matrix", "x", "-1", "--levels"]
        return draw(st.lists(st.sampled_from(flags), max_size=4)), {}
    matrix = draw(MATRIX)
    word = st.sampled_from([_key(w) for k in (1, 2, 3) for w in _words(matrix, k)] or [""])
    word_arg = lambda: draw(
        st.sampled_from(JUNK_WORDS) if draw(RARELY)
        else word | st.lists(st.integers(1, 4), max_size=4).map(_key)
    )
    number = lambda lo, hi: str(draw(st.integers(lo, hi)))
    if command == "psi-transfer":
        docs = {"code": _code_doc(draw, matrix), "g": _fn_doc(draw, matrix),
                "k1": _fn_doc(draw, matrix, st.integers(0, 2)),
                "l1": _fn_doc(draw, matrix, st.integers(0, 2))}
        return ["psi-transfer", "--fn", "@g", "--code", "@code", "--k1", "@k1", "--l1", "@l1"], docs
    docs = {"matrix": _doc(draw, {"matrix": matrix})}
    argv = [command] + ([draw(st.sampled_from(["check", "solve"]))] if command == "coboundary" else [])
    argv += ["--matrix", "@matrix"]
    if command in ("suspend", "split", "fixed-generator", "expectation", "minimal", "coboundary"):
        docs["fn"] = _fn_doc(draw, matrix)
        argv += ["--fn", "@fn"]
    if command in ("saturated", "sigma-family", "inclusion-matrix"):
        argv += ["--H", word_arg()]
    if command in ("split", "fixed-generator", "expectation"):
        argv += ["--mu", word_arg(), "--nu", word_arg()]
    if command == "words":
        argv += ["--m", number(-1, 4)]
    if command == "higher-block":
        argv += ["--K", number(-1, 4)]
    if command == "inclusion-matrix" and draw(st.booleans()):
        argv += ["--levels", number(-1, 5)]
    if command == "minimal":
        if draw(st.booleans()):
            argv += ["--point", "%s:%s" % (word_arg(), word_arg()), "--mu", word_arg()]
        argv += ["--k-max", number(-1, 8), "--value-max", number(-1, 64)]
    return argv, docs


FULL2_DOC = json.dumps({"matrix": FULL2})
TRANSFER_FNS = {
    "g": json.dumps({"depth": 1, "values": {"1": 1, "2": -1}}),
    "k": json.dumps({"depth": 1, "values": {"1": 0, "2": 0}}),
    "l": json.dumps({"depth": 1, "values": {"1": 1, "2": 1}}),
}
TRANSFER_ARGV = ["psi-transfer", "--fn", "@g", "--code", "@c", "--k1", "@k", "--l1", "@l"]
WINDOW_24 = json.dumps({"source": FULL2, "target": FULL2, "window": 24, "table": {}})


@settings(derandomize=True, database=None, deadline=None, max_examples=250,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request=_request())
@example(request=(["coboundary", "check", "--matrix", "@m", "--fn", "@f"],
                  {"m": FULL2_DOC, "f": json.dumps({"depth": 22, "values": {}})}))
@example(request=(TRANSFER_ARGV, dict(TRANSFER_FNS, c=WINDOW_24)))
@example(request=(["coboundary", "check", "--matrix", "@m", "--fn", "@f"],
                  {"m": FULL2_DOC, "f": '{"depth": 1, "values": {"1": 0, " 1": 5, "2": 1}}'}))
@example(request=(["split", "--matrix", "@m", "--fn", "@f", "--mu", "١", "--nu", "1_1"],
                  {"m": FULL2_DOC, "f": json.dumps({"depth": 1, "values": {"1": 1, "2": 0}})}))
def test_main_never_raises_and_prints_at_most_one_document(tmp_path, request):
    argv, docs = request
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    if out.getvalue():
        json.loads(out.getvalue())
