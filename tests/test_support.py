import pytest

from sftcocycles import (
    NotSaturatedError,
    dimension_report,
    enumerate_words,
    generator_fixed,
    has_cycle_within,
    inclusion_matrix,
    is_primitive,
    is_saturated,
    make_chi_H,
    sigma_family,
    weight_word_census,
)

from conftest import count_in, words_up_to


def test_saturation_examples(golden, full2):
    assert is_saturated(golden, {1})
    assert not is_saturated(full2, {1})
    assert has_cycle_within(full2, {2}) == (2,)
    assert is_saturated(golden, {1, 2})
    assert is_saturated(full2, {1, 2})
    assert not is_saturated(golden, set())


def test_sigma_family_golden(golden):
    family = sigma_family(golden, {1})
    assert family.words == ((1,), (2, 1))


def test_sigma_family_zero_diag(zero_diag3):
    family = sigma_family(zero_diag3, {1, 2})
    assert family.words == ((1,), (2,), (3, 1), (3, 2))


def test_sigma_family_full_H(golden, full2, zero_diag3):
    for A in (golden, full2, zero_diag3):
        family = sigma_family(A, set(range(1, A.n + 1)))
        assert family.words == tuple((i,) for i in range(1, A.n + 1))


def test_sigma_family_errors(full2, golden):
    with pytest.raises(NotSaturatedError) as info:
        sigma_family(full2, {1})
    assert info.value.witness == (2,)
    with pytest.raises(ValueError, match="empty"):
        sigma_family(golden, set())


def test_sigma_family_partitions(golden, zero_diag3):
    for A, H in ((golden, {1}), (zero_diag3, {1, 2}), (zero_diag3, {1, 3})):
        family = sigma_family(A, H)
        for w in family.words:
            assert w[-1] in H
            assert all(s not in H for s in w[:-1])
            assert count_in(w, H) == 1
        depth = max(len(w) for w in family.words)
        for length in (depth, depth + 1):
            for w in enumerate_words(A, length):
                hits = [o for o in family.words if w[: len(o)] == o]
                assert len(hits) == 1


def test_inclusion_matrix_examples(golden, zero_diag3):
    inc = inclusion_matrix(golden, {1})
    assert inc.tolist() == [[1, 1], [1, 1]]
    inc3 = inclusion_matrix(zero_diag3, {1, 2})
    assert inc3.tolist() == [
        [0, 1, 1, 1],
        [1, 0, 1, 1],
        [0, 1, 1, 1],
        [1, 0, 1, 1],
    ]


def test_inclusion_matrix_full_H_is_A(golden, full2, zero_diag3):
    for A in (golden, full2, zero_diag3):
        inc = inclusion_matrix(A, set(range(1, A.n + 1)))
        assert inc.tolist() == A.tolist()


def test_inclusion_matrix_consistency(golden, zero_diag3):
    for A, H in ((golden, {1}), (zero_diag3, {1, 2}), (zero_diag3, {1, 3})):
        inc = inclusion_matrix(A, H)
        for a, wa in enumerate(inc.family.words):
            for b, wb in enumerate(inc.family.words):
                assert inc.matrix[a][b] == int(A.is_admissible(wa + wb))


def test_primitivity_examples(golden, zero_diag3):
    assert is_primitive(inclusion_matrix(golden, {1}).matrix)
    assert is_primitive(inclusion_matrix(zero_diag3, {1, 2}).matrix)
    assert is_primitive(inclusion_matrix(golden, {1, 2}).matrix)


def test_census_golden_brute_force_oracle(golden):
    # independent enumeration: words of H-weight 1 up to length 10
    expected = [
        w for w in words_up_to(golden, 10) if count_in(w, {1}) == 1
    ]
    assert sorted(expected) == [(1,), (1, 2), (2, 1), (2, 1, 2)]
    result = weight_word_census(golden, {1}, 1, 10)
    assert result.count == len(expected) == 4
    assert result.stabilized


def test_census_never_stabilizes_unsaturated(full2):
    result = weight_word_census(full2, {1}, 1, 14)
    assert not result.stabilized
    assert result.by_length[-1] > 0
    # strictly growing tail, words 2..2 1 2..2 keep appearing
    assert result.by_length[-1] > result.by_length[-3]


def test_census_full_H(golden, full2):
    for A in (golden, full2):
        result = weight_word_census(A, set(range(1, A.n + 1)), 1, 6)
        assert result.count == A.n
        assert result.stabilized


def test_census_matches_brute_force(golden, full2, zero_diag3):
    for A in (golden, full2, zero_diag3):
        for H in ({1}, {2}, {1, 2}):
            for n in (1, 2):
                cap = 8
                brute = sum(
                    1 for w in words_up_to(A, cap) if count_in(w, H) == n
                )
                assert weight_word_census(A, H, n, cap).count == brute


def test_saturation_census_equivalence(golden, full2, zero_diag3):
    # saturated iff the weight-n census stabilizes, for n up to 3
    for A in (golden, full2, zero_diag3):
        subsets = [
            H
            for k in range(1, A.n + 1)
            for H in [set(c) for c in _subsets(range(1, A.n + 1), k)]
        ]
        for H in subsets:
            saturated = is_saturated(A, H)
            for n in (1, 2, 3):
                cap = (A.n + 1) * (n + 1) + 2
                assert weight_word_census(A, H, n, cap).stabilized == saturated


def _subsets(items, k):
    from itertools import combinations

    return combinations(items, k)


def level_vectors(A, H, levels):
    return dimension_report(inclusion_matrix(A, H).matrix, levels)["vectors"]


def test_level_dimensions_examples(golden, zero_diag3):
    assert level_vectors(golden, {1}, 3) == [[1, 1], [2, 2], [4, 4]]
    assert level_vectors(zero_diag3, {1, 2}, 2)[1] == [2, 2, 4, 4]


def test_level_dimensions_full_H(golden, zero_diag3):
    # full H reduces to the standard filtration vectors (A^T)^(k-1) . 1
    for A in (golden, zero_diag3):
        H = set(range(1, A.n + 1))
        vectors = level_vectors(A, H, 4)
        vec = [1] * A.n
        for level in range(1, 5):
            assert vectors[level - 1] == vec
            vec = [
                sum(int(A.entries[r, c]) * vec[r] for r in range(A.n))
                for c in range(A.n)
            ]


def test_sigma_concatenations_are_fixed(golden, zero_diag3):
    # two first-passage words concatenate to H-weight 2 on both sides
    for A, H in ((golden, {1}), (zero_diag3, {1, 2})):
        chi = make_chi_H(A, H)
        words = sigma_family(A, H).words
        pairs = [
            wa + wb
            for wa in words
            for wb in words
            if A.is_admissible(wa + wb)
        ]
        for left in pairs:
            for right in pairs:
                assert generator_fixed(A, chi, left, right)
