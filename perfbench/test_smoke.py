"""Smoke tests of the benchmark on tiny inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("library", "cli")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT, runner=RUN):
    proc = subprocess.run(
        [sys.executable, runner, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc


def run_tiny(workload, trace, seed=3, defects=0):
    proc = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
        "--size", "tiny", "--defects", str(defects),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    detail, result = run_tiny(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["passes"] >= 2 and isinstance(detail["digest"], str)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_repeats_its_work_counts(workload):
    first_detail, first = run_tiny(workload, trace=1)
    second_detail, second = run_tiny(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert first["correct"] and second["correct"]
    assert first_detail["counters"] == second_detail["counters"]
    assert first_detail["digest"] == second_detail["digest"]
    counts = [k for k, unit in expected.items() if unit == "count"]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts
    }


def test_other_seed_gives_other_inputs():
    a, _ = run_tiny("library", trace=0, seed=3)
    b, _ = run_tiny("library", trace=0, seed=4)
    assert a["digest"] != b["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_known_defects_count_as_failures(workload):
    detail, result = run_tiny(workload, trace=0, defects=1)
    assert result["correct"]
    assert result["failed"] > 0 and detail["failing_ops"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(
        "--workload", "library", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, runner=str(tmp_path / "perfbench" / "run.py"),
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
