import json
import subprocess
import sys

import pytest

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
