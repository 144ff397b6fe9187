"""The package runs with NumPy blocked, not only without importing it.

``test_numpy_boundary`` scans the source for ``import numpy`` statements;
it cannot see an ``importlib.import_module`` or ``__import__`` call.  This
test runs the package in a fresh interpreter where any import of NumPy
raises ``ImportError``, makes one call into each module, reads
``TransitionMatrix.entries`` and runs the CLI's ``examples`` command.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import sftcocycles

PROBE = '''
import sys
sys.modules["numpy"] = None  # from here on, any import of NumPy raises ImportError
try:
    import numpy
except ImportError:
    pass
else:
    raise AssertionError("NumPy was not blocked")

import contextlib, io
import sftcocycles as sc
from sftcocycles import cli

golden = sc.TransitionMatrix([[1, 1], [1, 0]])
full2 = sc.TransitionMatrix([[1, 1], [1, 1]])
chi = sc.make_chi_H(full2, {1})
answers = {
    "sft": sc.enumerate_words(golden, 3),
    "entries": golden.entries,
    "locfun": sc.cocycle_sum(chi, (1, 2, 1), 3),
    "groupoid": str(sc.compose(sc.Bisection((1, 1), (2, 1)), sc.Bisection((2, 1, 1), (1, 1)))),
    "support": [sc.is_saturated(golden, {1}), sc.is_saturated(full2, {1})],
    "coboundary": sc.shortest_nonzero_cycle(full2, chi),
    "suspension": sc.suspended_matrix(golden, [2, 1]).matrix.tolist(),
    "ktheory": [sc.ck_k_groups(golden), sc.perron_value(golden)],
}
with contextlib.redirect_stdout(io.StringIO()) as out:
    answers["cli"] = cli.main(["examples"])
answers["examples passed"] = out.getvalue().count('"passed": true')
print(repr(answers))
'''

EXPECTED = {
    "sft": [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2)],
    "entries": [[1, 1], [1, 0]],
    "locfun": 2,
    "groupoid": "Bisection((1, 1, 1), (1, 1))",
    "support": [True, False],
    "coboundary": (((1,),), 1),
    "suspension": [[0, 1, 0], [1, 0, 1], [1, 0, 0]],
    "ktheory": [{"K0": {"rank": 0, "torsion": []}, "K1": {"rank": 0}}, 1.618033988749895],
    "cli": 0,
    "examples passed": 4,  # three checks and the overall verdict
}


def test_every_module_answers_with_numpy_blocked():
    src = str(Path(sftcocycles.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert ast.literal_eval(result.stdout) == EXPECTED
