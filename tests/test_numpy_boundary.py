"""No module of the package imports NumPy.

The shift is held as follower tuples and every matrix from outside is
read into rows of Python ints, so the package depends on nothing outside
the standard library: ``TransitionMatrix.entries`` is plain rows too.
The Perron value is a Noda iteration on the weighted graph in Python
floats, certified in fractions, and the coboundary witness search walks
its defect sums in Python integers.  This test keeps a second matrix
representation from creeping back into the package, and keeps the graph
readers, the K-theory core reduction and the Perron value in Python
numbers.  ``test_no_numpy_runtime`` runs the package with NumPy blocked.
"""

import ast
from pathlib import Path

import sftcocycles

ALLOWED = set()


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
    # The scan does see an import at the top level of a module and in a function.
    assert numpy_importers(ast.parse("import numpy as np"), "m") == {("m", None)}
    assert numpy_importers(ast.parse("def f():\n    from numpy import linalg\n"), "m") == {("m", "f")}


def source_of(module):
    return (Path(sftcocycles.__file__).parent / module).read_text()


def function_uses_np(source, name):
    func = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    return any(isinstance(node, ast.Name) and node.id == "np" for node in ast.walk(func))


def test_graph_reads_rows_without_numpy():
    assert not function_uses_np(source_of("sft.py"), "_graph")
    assert not function_uses_np(source_of("sft.py"), "_rows_graph")


def test_core_reduces_without_numpy():
    # The reduction before the Smith form stays in exact Python integers.
    assert not function_uses_np(source_of("ktheory.py"), "_core")
    # The scan does see np in a function body.
    assert function_uses_np("def f(M):\n    return np.asarray(M)\n", "f")
