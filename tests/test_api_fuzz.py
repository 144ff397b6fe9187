"""The library's public surface never fails on an attribute or a type.

Every callable of ``sftcocycles.__all__`` (and the public class methods
that build a function or a matrix) has one valid call below.  Hypothesis
swaps one of its arguments at a time for a value from a junk pool, and
the call must then answer or refuse with a ``ValueError`` (the package's
own error types are ValueErrors) in one short message.  The one other
refusal is ``psi_transfer``'s pinned ``TypeError`` for a code h of
neither kind.
"""

import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import sftcocycles as sc
from sftcocycles import (
    Bisection,
    FullGroupElement,
    LocFun,
    PointSpec,
    SuspendedMatrix,
    TransitionMatrix,
)


def test_the_package_lists_the_names_of_its_seven_modules():
    modules = (sc.sft, sc.locfun, sc.groupoid, sc.support, sc.coboundary, sc.suspension, sc.ktheory)
    names = [name for module in modules for name in module.__all__]
    assert sc.__all__ == names and len(set(names)) == 51
    assert all(getattr(sc, name) is getattr(module, name) for module in modules for name in module.__all__)


GOLDEN_ROWS = [[1, 1], [1, 0]]
A = TransitionMatrix(GOLDEN_ROWS)
FULL2 = TransitionMatrix([[1, 1], [1, 1]])
F = LocFun(A, 2, {(1, 1): 1, (1, 2): 0, (2, 1): 1})
Z = PointSpec(A, (2,), (1,))
Y = Bisection((1, 2), (2,))
SWAP = FullGroupElement(FULL2, [((1,), (2,)), ((2,), (1,))])
K1, L1 = SWAP.coe_pair()
S = SuspendedMatrix(A, (2, 1))
FAMILY = sc.sigma_family(A, {1})

# One valid call per public callable, keyed by its name.
VALID = {
    "TransitionMatrix": (TransitionMatrix, GOLDEN_ROWS),
    "TransitionMatrix.from_followers": (TransitionMatrix.from_followers, ((1, 2), (1,))),
    "PointSpec": (PointSpec, A, (2,), (1,)),
    "enumerate_words": (sc.enumerate_words, A, 2, 1),
    "higher_block": (sc.higher_block, A, 2),
    "has_cycle_within": (sc.has_cycle_within, A, {2}),
    "is_irreducible": (sc.is_irreducible, GOLDEN_ROWS),
    "is_primitive": (sc.is_primitive, GOLDEN_ROWS),
    "LocFun": (LocFun, A, 2, {(1, 1): 1, (1, 2): 0, (2, 1): 1}),
    "LocFun.constant": (LocFun.constant, A, 1),
    "LocFun.indicator_cylinder": (LocFun.indicator_cylinder, A, (1, 2)),
    "BlockCode": (sc.BlockCode, A, A, 1, {(1,): 1, (2,): 2}),
    "FullGroupElement": (FullGroupElement, FULL2, [((1,), (2,)), ((2,), (1,))]),
    "TransferIdentityError": (sc.TransferIdentityError, "identity fails", (1,)),
    "make_chi_H": (sc.make_chi_H, A, {1}),
    "cocycle_sum": (sc.cocycle_sum, F, (1, 1, 2, 1), 2),
    "coboundary_transform": (sc.coboundary_transform, F),
    "psi_transfer": (sc.psi_transfer, LocFun.constant(FULL2, 1), SWAP, K1, L1),
    "Bisection": (Bisection, (1, 2), (2,)),
    "MembershipSplit": (sc.MembershipSplit, (Y,), ()),
    "MinimalityWitness": (sc.MinimalityWitness, Z, 1, 1),
    "MinimalityVerdict": (sc.MinimalityVerdict, "unknown", False, "no class applies", ()),
    "canonicalize": (sc.canonicalize, A, (1,), (2,)),
    "compose": (sc.compose, Y, Bisection((2,), (1, 2))),
    "invert": (sc.invert, Y),
    "membership_split": (sc.membership_split, A, F, Y),
    "generator_fixed": (sc.generator_fixed, A, F, (1,), (2,)),
    "expectation_support": (sc.expectation_support, A, F, (1,), (1,)),
    "minimality_search": (sc.minimality_search, A, F, Z, (1,), 6, 8),
    "minimality_verdict": (sc.minimality_verdict, A, F, 4, 8),
    "NotSaturatedError": (sc.NotSaturatedError, "not saturated", (2,)),
    "SigmaFamily": (sc.SigmaFamily, A, frozenset({1}), [(1,), (2, 1)]),
    "InclusionMatrix": (sc.InclusionMatrix, FAMILY, ((1, 1), (1, 0))),
    "CensusResult": (sc.CensusResult, 3, True, (1, 2, 0)),
    "is_saturated": (sc.is_saturated, A, {1}),
    "sigma_family": (sc.sigma_family, A, {1}),
    "inclusion_matrix": (sc.inclusion_matrix, A, {1}),
    "weight_word_census": (sc.weight_word_census, A, {1}, 1, 4),
    "NotCoboundaryError": (sc.NotCoboundaryError, "not a coboundary", ((1,), (2,))),
    "PotentialClass": (sc.PotentialClass, "general", (), None, None, None, None),
    "cycle_sums": (sc.cycle_sums, A, F, 100),
    "shortest_nonzero_cycle": (sc.shortest_nonzero_cycle, A, F),
    "solve_potential": (sc.solve_potential, A, F.shifted() - F),
    "classify_potential": (sc.classify_potential, A, F),
    "SuspendedMatrix": (SuspendedMatrix, A, (2, 1)),
    "suspended_matrix": (sc.suspended_matrix, A, (2, 1)),
    "reduce_to_first_coordinate": (sc.reduce_to_first_coordinate, A, F + 1),
    "encode_word": (sc.encode_word, S, (1, 2)),
    "decode_return_times": (sc.decode_return_times, S, (1, 2, 3)),
    "corner_partition_check": (sc.corner_partition_check, A, (2, 1)),
    "smith_normal_form": (sc.smith_normal_form, [[1, 2], [3, 4]]),
    "ck_k_groups": (sc.ck_k_groups, A),
    "dimension_report": (sc.dimension_report, GOLDEN_ROWS, 3),
    "perron_value": (sc.perron_value, GOLDEN_ROWS),
}
SLOTS = [(name, i) for name, (_, *args) in VALID.items() for i in range(len(args))]

DEEP = []
for _ in range(10_000):
    DEEP = [DEEP]

# Values of the wrong type, size or shift for almost every argument.
JUNK = {
    "None": None,
    "float": 1.5,
    "bool": True,
    "str": "1",
    "list-matrix": GOLDEN_ROWS,
    "tuple-bisection": ((1,), (1,)),
    "other-locfun": LocFun.constant(FULL2, 1),
    "other-point": PointSpec(FULL2, (), (2,)),
    "huge": 10**5000,
    "deep": DEEP,
}
# Values of the refusals below that are not in the pool.
VALUES = dict(JUNK, five=5, **{"deep-value-table": {(1, 1): DEEP, (1, 2): 0, (2, 1): 0}})

# Each call that failed on an attribute, a type, the recursion limit or
# an index, or ran until stopped: (name, argument swapped, value) and the
# refusal it gets instead.
PROBES = {
    "PointSpec": ("PointSpec", 0, "list-matrix", "matrix must be a TransitionMatrix"),
    "canonicalize": ("canonicalize", 0, "list-matrix", "A must be a TransitionMatrix"),
    "higher_block": ("higher_block", 0, "list-matrix", "A must be a TransitionMatrix"),
    "enumerate_words": ("enumerate_words", 0, "list-matrix", "A must be a TransitionMatrix"),
    "has_cycle_within": ("has_cycle_within", 0, "list-matrix", "A must be a TransitionMatrix"),
    "is_saturated": ("is_saturated", 0, "list-matrix", "A must be a TransitionMatrix"),
    "weight_word_census": ("weight_word_census", 0, "list-matrix", "A must be a TransitionMatrix"),
    "suspended_matrix": ("suspended_matrix", 0, "list-matrix", "A must be a TransitionMatrix"),
    "ck_k_groups": ("ck_k_groups", 0, "list-matrix", "A must be a TransitionMatrix"),
    "indicator_cylinder": (
        "LocFun.indicator_cylinder", 0, "list-matrix", "matrix must be a TransitionMatrix"
    ),
    "compose": ("compose", 0, "tuple-bisection", "z1 must be a Bisection"),
    "encode_word": ("encode_word", 0, "None", "S must be a SuspendedMatrix"),
    "coboundary_transform": ("coboundary_transform", 0, "None", "b must be a LocFun"),
    "psi_transfer": ("psi_transfer", 0, "None", "g must be a LocFun"),
    "Bisection": ("Bisection", 0, "None", "mu must be an iterable, not None"),
    "sigma_family": ("sigma_family", 1, "None", "symbols must be an iterable, not None"),
    "make_chi_H": ("make_chi_H", 1, "five", "symbols must be an iterable, not 5"),
    "inclusion_matrix": ("inclusion_matrix", 1, "five", "symbols must be an iterable, not 5"),
    "cocycle_sum": ("cocycle_sum", 1, "None", "word must be an iterable, not None"),
    "TransitionMatrix-deep": (
        "TransitionMatrix", 0, "deep",
        "matrix entry (1, 1) is <a list nested too deeply to print>, not an integer",
    ),
    "perron_value-deep": (
        "perron_value", 0, "deep",
        "matrix entry (1, 1) is <a list nested too deeply to print>, not an integer",
    ),
    "smith_normal_form-deep": (
        "smith_normal_form", 0, "deep",
        "matrix entry (1, 1) is <a list nested too deeply to print>, not an integer",
    ),
    "dimension_report-deep": (
        "dimension_report", 0, "deep",
        "matrix entry (1, 1) is <a list nested too deeply to print>, not an integer",
    ),
    "LocFun-deep-value": (
        "LocFun", 2, "deep-value-table",
        "value on the word (1, 1) is <a list nested too deeply to print>, not an integer",
    ),
    **{
        "%s-huge" % name: (name, position, "huge", "%s must be at most %d, not %s" % (
            count, sys.maxsize, "<an integer of 16610 bits>"
        ))
        for name, position, count in [
            ("enumerate_words", 1, "m"),
            ("higher_block", 1, "K"),
            ("minimality_search", 4, "k_max"),
            ("minimality_verdict", 2, "k_max"),
            ("weight_word_census", 3, "len_cap"),
            ("dimension_report", 1, "levels"),
            ("LocFun", 1, "depth"),
            ("BlockCode", 2, "window"),
            ("cocycle_sum", 2, "n"),
        ]
    },
}


def swapped(slot, junk):
    """The valid call of slot[0] with its argument slot[1] replaced by VALUES[junk]."""
    name, position = slot
    fn, *args = VALID[name]
    args[position] = VALUES[junk]
    return fn, args


@pytest.mark.parametrize("name", VALID)
def test_every_valid_call_answers(name):
    fn, *args = VALID[name]
    fn(*args)


@pytest.mark.parametrize("name, position, junk, message", PROBES.values(), ids=PROBES)
def test_a_wrong_type_is_refused_by_name(name, position, junk, message):
    fn, args = swapped((name, position), junk)
    with pytest.raises(ValueError) as refused:
        fn(*args)
    assert str(refused.value) == message


def with_probes(test):
    for name, position, junk, _ in PROBES.values():
        test = example(slot=(name, position), junk=junk)(test)
    return test


@settings(derandomize=True, database=None, deadline=None, max_examples=1500)
@given(slot=st.sampled_from(SLOTS), junk=st.sampled_from(sorted(JUNK)))
@with_probes
def test_a_junk_argument_is_answered_or_refused_in_one_short_line(slot, junk):
    fn, args = swapped(slot, junk)
    try:
        fn(*args)
    except ValueError as exc:
        assert len(str(exc)) <= 300
    except TypeError as exc:
        assert slot == ("psi_transfer", 1)
        assert str(exc) == "h must be a BlockCode or a FullGroupElement"
