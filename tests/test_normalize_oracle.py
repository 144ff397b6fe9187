"""The one-pass `_normalize` against the level-by-level one.

`reference_normalize` is `_normalize` as it was before it read the
normalized depth off neighbouring words, kept verbatim: it drops the
last coordinate once per level while every cylinder is constant.

The oracle tests imported below are collected again in this module,
where an autouse fixture wraps `locfun._normalize`: every table the
package normalizes while they run must arrive with its keys in
lexicographic order, which the one-pass reading needs, and must give
the reference's depth, table and key order.  Deep tables over shifts
of low entropy, where the level-by-level drop costs O(depth^2), are
compared directly.
"""

import random
import time

import pytest

from sftcocycles import TransitionMatrix, enumerate_words
from sftcocycles import locfun
from sftcocycles.locfun import _normalize

from test_coboundary_oracle import (  # noqa: F401  (collected again here)
    test_reducible_matrices as test_coboundary_reducible,
    test_seeded_potentials as test_coboundary_seeded,
    test_zero_cycle_sums_without_potential as test_coboundary_zero_cycle_sums,
)
from test_tabulate_oracle import (  # noqa: F401  (collected again here)
    test_arithmetic_matches_reference as test_tabulate_arithmetic,
    test_golden_elements_match_reference as test_tabulate_golden_elements,
    test_indicators_match_reference as test_tabulate_indicators,
    test_random_elements_match_reference as test_tabulate_random_elements,
    test_reducible_potentials_match_reference as test_tabulate_reducible_potentials,
    test_seeded_potentials_match_reference as test_tabulate_seeded_potentials,
    test_sliding_code_transfers_match_reference as test_tabulate_sliding_codes,
)
from test_transfer_oracle import (  # noqa: F401  (collected again here)
    test_golden_element_transfers_match_reference as test_transfer_golden_tables,
    test_golden_elements_match_reference as test_transfer_golden_checks,
    test_higher_block_code_transfer_matches_reference as test_transfer_higher_block,
    test_random_element_transfers_match_reference as test_transfer_random_tables,
    test_random_elements_match_reference as test_transfer_random_checks,
    test_sliding_code_transfers_match_reference as test_transfer_sliding_codes,
    test_thirteen_rule_transfer_matches_orbit_sums as test_transfer_thirteen_rules,
)


def reference_normalize(depth, table):
    # Drop the last coordinate while every (depth-1)-cylinder is constant.
    while depth > 1:
        reduced = {}
        ok = True
        for w, v in table.items():
            p = w[:-1]
            if p in reduced and reduced[p] != v:
                ok = False
                break
            reduced[p] = v
        if not ok:
            break
        depth, table = depth - 1, reduced
    return depth, table


@pytest.fixture(autouse=True)
def checked_normalize(monkeypatch):
    def checked(depth, table):
        assert list(table) == sorted(table)
        got_depth, got = _normalize(depth, table)
        expected_depth, expected = reference_normalize(depth, table)
        assert got_depth == expected_depth
        assert list(got.items()) == list(expected.items())
        return got_depth, got

    monkeypatch.setattr(locfun, "_normalize", checked)


# Each shift with its deepest table: the ring with a chord has about
# 1.32^depth words, the others at most 2 * depth + 1.
LOW_ENTROPY = {
    "two-ring": ([[0, 1], [1, 0]], 1000),
    "three-ring": ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1000),
    "identity": ([[1, 0], [0, 1]], 1000),
    "cycle_into_loop": ([[0, 1, 1], [1, 0, 1], [0, 0, 1]], 120),
    "ring-with-chord": ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], 24),
}


def deep_tables(rng, A, depth):
    """Tables over the depth-words of functions of fewer symbols, and indicators."""
    words = enumerate_words(A, depth)
    for k in {1, 2, depth // 2, depth - 1, depth, rng.randint(1, depth)}:
        values = {}
        yield {w: values.setdefault(w[:k], rng.randint(-1, 1)) for w in words}
    for _ in range(3):
        mu = rng.choice(words)[: rng.randint(1, depth)]
        yield {w: int(w[: len(mu)] == mu) for w in words}


@pytest.mark.parametrize("name", sorted(LOW_ENTROPY))
def test_deep_tables_match_reference(name):
    rows, deepest = LOW_ENTROPY[name]
    A = TransitionMatrix(rows)
    rng = random.Random("deep " + name)
    depths = set()
    for depth in (1, 2, 3, 7, deepest // 2, deepest):
        for table in deep_tables(rng, A, depth):
            depths.add(locfun._normalize(depth, table)[0])
    # On a ring or the identity every word is fixed by its first symbol.
    fixed = len(enumerate_words(A, 2)) == A.n
    assert (depths == {1}) if fixed else (deepest in depths)


def test_deep_two_ring_table_normalizes_quickly():
    # Over the two-ring the depth-8,000 words 1 2 1 2 ... and 2 1 2 1 ...
    # differ in their first symbol; the level-by-level drop took 0.7 s.
    depth = 8000
    table = {tuple(1 + (i + s) % 2 for i in range(depth)): s for s in (0, 1)}
    start = time.perf_counter()
    normalized = _normalize(depth, table)
    assert time.perf_counter() - start < 0.05
    assert normalized == (1, {(1,): 0, (2,): 1})
