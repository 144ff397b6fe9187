"""NumPy is imported only by the dense ``entries`` view.

The shift is held as follower tuples and every matrix from outside is
read into rows of Python ints, so no module imports NumPy at load time.
One place imports it where it runs: the dense ``TransitionMatrix.entries``
view, kept for callers that want an array.  The Perron value is a Noda
iteration on the weighted graph in Python floats, certified in
fractions, and the coboundary witness search walks its defect sums in
Python integers.  This test keeps a second matrix representation from
creeping back into the other modules, and keeps the graph readers, the
K-theory core reduction and the Perron value in Python numbers.
"""

import ast
from pathlib import Path

import sftcocycles

ALLOWED = {("sft", "entries")}


def imports_numpy(node):
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(name == "numpy" or name.startswith("numpy.") for name in names)


def numpy_importers(tree, module, function=None):
    """(module, innermost enclosing function or None) of each NumPy import."""
    out = set()
    for child in ast.iter_child_nodes(tree):
        if imports_numpy(child):
            out.add((module, function))
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        out |= numpy_importers(child, module, inner)
    return out


def package_numpy_importers():
    out = set()
    for path in Path(sftcocycles.__file__).parent.glob("*.py"):
        out |= numpy_importers(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return out


def test_numpy_is_imported_only_where_it_computes():
    assert package_numpy_importers() == ALLOWED
    # The scan does see an import at the top level of a module.
    assert numpy_importers(ast.parse("import numpy as np"), "m") == {("m", None)}


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
    assert function_uses_np("sft.py", "entries")  # the scan does see np
