"""NumPy is imported by three modules only.

The shift is held as follower tuples and every matrix from outside is
read into rows of Python ints, so NumPy belongs only where it is used:
the integer gate for NumPy input (``sft``), the walk-sum recursion
(``coboundary``) and the spectral radius that is the Perron value
(``ktheory``).  This test keeps a second matrix representation from
creeping back into the other modules, and keeps the graph readers and
the K-theory core reduction in Python ints.
"""

import ast
from pathlib import Path

import sftcocycles

ALLOWED = {"sft", "coboundary", "ktheory"}


def numpy_importers():
    out = set()
    for path in Path(sftcocycles.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "numpy" or name.startswith("numpy.") for name in names):
                out.add(path.stem)
    return out


def test_only_three_modules_import_numpy():
    importers = numpy_importers()
    assert importers <= ALLOWED, sorted(importers - ALLOWED)
    assert "sft" in importers  # the scan does see an import


def function_uses_np(module, name):
    source = (Path(sftcocycles.__file__).parent / module).read_text()
    func = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    return any(isinstance(node, ast.Name) and node.id == "np" for node in ast.walk(func))


def test_graph_reads_rows_without_numpy():
    assert not function_uses_np("sft.py", "_graph")
    assert not function_uses_np("sft.py", "_rows_graph")


def test_core_reduces_without_numpy():
    # The reduction before the Smith form stays in exact Python integers.
    assert not function_uses_np("ktheory.py", "_core")
    assert function_uses_np("ktheory.py", "perron_value")  # the scan does see np
