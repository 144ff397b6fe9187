"""Each derived view of the shift is built in one place.

The predecessor tuples of a `TransitionMatrix` are derived from its
follower tuples by ``TransitionMatrix._set_graph`` alone, whichever
constructor runs, and the package holds one level loop over admissible
words, ``sft._list_words``, which ``enumerate_words`` and the table check
``locfun._table_values`` share.  One sweep, ``locfun._first_gap``, names
the least word that a set of cylinders misses, for the partition check
of full-group elements and for the table check alike.  The scans below
read the package's source, so a second copy of any of these derivations
fails them.
"""

import ast
import inspect
import random
from pathlib import Path

import sftcocycles
from sftcocycles import TransitionMatrix


def scan(tree, module, hit, function=None):
    """(module, innermost enclosing function or None) of each node that `hit` accepts."""
    out = set()
    for child in ast.iter_child_nodes(tree):
        if hit(child):
            out.add((module, function))
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        out |= scan(child, module, hit, inner)
    return out


def package_scan(hit):
    out = set()
    for path in Path(sftcocycles.__file__).parent.glob("*.py"):
        out |= scan(ast.parse(path.read_text(), filename=str(path)), path.stem, hit)
    return out


def is_level_loop(node):
    # words = [w + (j,) for w in words for j in ...]: every word of one
    # level replaced by its one-symbol extensions.
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
        return False
    target, value = node.targets[0], node.value
    return (
        isinstance(target, ast.Name)
        and isinstance(value, (ast.ListComp, ast.GeneratorExp))
        and isinstance(value.generators[0].iter, ast.Name)
        and value.generators[0].iter.id == target.id
        and isinstance(value.elt, ast.BinOp)
        and isinstance(value.elt.op, ast.Add)
        and isinstance(value.elt.right, ast.Tuple)
    )


def binds_predecessors(node):
    # A predecessor list bound to a name or an attribute.
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        return name in ("predecessors", "_predecessors")
    return False


def transposes(node):
    # zip(*rows): the rows of a matrix read as its columns.
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "zip"
        and any(isinstance(arg, ast.Starred) for arg in node.args)
    )


def is_next_sibling_step(node):
    # siblings[siblings.index(s) + 1]: the symbol after s among its siblings,
    # the step from one uncovered word to the next.
    if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)):
        return False
    index = node.slice
    return (
        isinstance(index, ast.BinOp)
        and isinstance(index.op, ast.Add)
        and isinstance(index.left, ast.Call)
        and getattr(index.left.func, "attr", None) == "index"
        and getattr(index.left.func.value, "id", None) == node.value.id
        and getattr(index.right, "value", None) == 1
    )


def calls(module, function, callee):
    source = (Path(sftcocycles.__file__).parent / module).read_text()
    func = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    return any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == callee
        for node in ast.walk(func)
    )


# The two copies of each derivation that the package used to hold.
EARLIER_WORD_LISTING = '''
def enumerate_words(A, m):
    words = [(i,) for i in range(1, A.n + 1)]
    for _ in range(m - 1):
        words = [w + (j,) for w in words for j in A.followers(w[-1])]
    return words

def _table_values(A, m, table):
    cap = len(table) + 1
    words = [(s,) for s in range(1, A.n + 1)]
    for _ in range(m - 1):
        words = [w + (j,) for w in words for j in A.followers(w[-1])]
        del words[cap:]
'''

EARLIER_PREDECESSORS = '''
class TransitionMatrix:
    def __init__(self, rows):
        self._set_graph(
            tuple(tuple(compress(symbols, row)) for row in rows),
            tuple(tuple(compress(symbols, col)) for col in zip(*rows)),
        )

    def from_followers(cls, followers):
        predecessors = [[] for _ in range(n)]

    def _set_graph(self, followers, predecessors):
        self._predecessors = predecessors
'''


# The sweep as the partition check held it, before the table check shared it.
EARLIER_GAP_SWEEP = '''
def _check_partition(matrix, words, role):
    follow, gap = matrix.followers, (1,)
    for w in words:
        for j in range(len(w) - 1, -1, -1):
            siblings = follow(w[j - 1]) if j else range(1, matrix.n + 1)
            if w[j] != siblings[-1]:
                gap = w[:j] + (siblings[siblings.index(w[j]) + 1],)
                break
'''


def test_the_scans_see_the_earlier_copies():
    assert scan(ast.parse(EARLIER_WORD_LISTING), "m", is_level_loop) == {
        ("m", "enumerate_words"),
        ("m", "_table_values"),
    }
    earlier = ast.parse(EARLIER_PREDECESSORS)
    assert scan(earlier, "m", binds_predecessors) == {("m", "from_followers"), ("m", "_set_graph")}
    assert scan(earlier, "m", transposes) == {("m", "__init__")}


def test_one_level_loop_over_admissible_words():
    assert package_scan(is_level_loop) == {("sft", "_list_words")}
    assert calls("sft.py", "enumerate_words", "_list_words")
    assert calls("locfun.py", "_table_values", "_list_words")


def test_one_sweep_names_the_least_missing_word():
    sweep = ast.parse(EARLIER_GAP_SWEEP)
    assert scan(sweep, "m", is_next_sibling_step) == {("m", "_check_partition")}
    assert package_scan(is_next_sibling_step) == {("locfun", "_first_gap")}
    assert calls("locfun.py", "_check_partition", "_first_gap")
    assert calls("locfun.py", "_table_values", "_first_gap")


def test_predecessor_tuples_are_built_in_set_graph_only():
    assert package_scan(binds_predecessors) == {("sft", "_set_graph")}
    sft = Path(sftcocycles.__file__).parent / "sft.py"
    assert scan(ast.parse(sft.read_text()), "sft", transposes) == set()
    assert list(inspect.signature(TransitionMatrix._set_graph).parameters) == ["self", "followers"]


def test_predecessors_are_the_ascending_columns():
    rng = random.Random(18)
    checked = 0
    while checked < 300:
        n = rng.randint(2, 9)
        rows = [[int(rng.random() < 0.4) for _ in range(n)] for _ in range(n)]
        try:
            A = TransitionMatrix(rows)
        except ValueError:
            continue  # a zero row or column
        columns = [tuple(i for i in range(1, n + 1) if rows[i - 1][j - 1]) for j in range(1, n + 1)]
        B = TransitionMatrix.from_followers(A.followers(s) for s in range(1, n + 1))
        for A_or_B in (A, B):
            assert [A_or_B.predecessors(j) for j in range(1, n + 1)] == columns
        checked += 1

