"""No module of the package reads the dense ``entries`` array.

``TransitionMatrix.entries`` builds a new n x n int64 array on every
read and never stores it: the follower tuples are the one graph a
matrix keeps.  It stays public for callers that want an array, but the
package itself reads the follower tuples or ``tolist()``.
"""

import ast
from pathlib import Path

import numpy as np

import sftcocycles
from sftcocycles import TransitionMatrix, perron_value


def reads_entries(source):
    return any(
        isinstance(node, ast.Attribute) and node.attr == "entries"
        for node in ast.walk(ast.parse(source))
    )


def test_no_module_reads_entries():
    modules = Path(sftcocycles.__file__).parent.glob("*.py")
    assert [path.stem for path in modules if reads_entries(path.read_text())] == []
    assert reads_entries("perron_value(A.entries)")  # the scan does see a read


def test_perron_value_leaves_no_array_cached():
    A = TransitionMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert abs(perron_value(A) - 2.0) < 1e-9
    assert "entries" not in vars(A)


def test_entries_is_a_new_read_only_array_never_stored():
    A = TransitionMatrix([[1, 1], [1, 0]])
    arr = A.entries
    assert np.array_equal(arr, np.array(A.tolist())) and arr.dtype == np.int64
    assert not arr.flags.writeable
    assert A.entries is not arr
    assert "entries" not in vars(A)
