"""No module of the package reads ``entries``.

``TransitionMatrix.entries`` returns ``tolist()``, new rows of Python
ints on every read, and never stores them: the follower tuples are the
one graph a matrix keeps.  It stays only for the benchmark's one read;
the package itself reads the follower tuples or ``tolist()``.
"""

import ast
from pathlib import Path

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
    # The rows are a new list on each read, of Python ints, and writing to
    # them does not reach A.
    A = TransitionMatrix([[1, 1], [1, 0]])
    rows = A.entries
    assert rows == A.tolist() == [[1, 1], [1, 0]]
    assert {type(v) for row in rows for v in row} == {int}
    assert A.entries is not rows and A.entries[0] is not rows[0]
    rows[0][0] = 0
    assert A.entries == A.tolist() == [[1, 1], [1, 0]] and A.is_admissible((1, 1))
    assert "entries" not in vars(A)
