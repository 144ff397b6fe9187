"""Each demo prints exactly its recorded output.

The recorded outputs in ``golden/demos`` are the demos' stdout, byte for
byte; a change that alters any printed answer (a K-group, a transferred
potential, a membership split) fails here.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "golden" / "demos").glob("*.txt"))
    assert recorded == [p.stem for p in DEMOS] and len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    expected = (ROOT / "tests" / "golden" / "demos" / (demo.stem + ".txt")).read_bytes()
    assert result.stdout == expected
