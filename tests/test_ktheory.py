import math
import random

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from sftcocycles import (
    TransitionMatrix,
    ck_k_groups,
    dimension_report,
    inclusion_matrix,
    perron_value,
    smith_normal_form,
)


def is_diagonal_chain(D):
    n, m = len(D), len(D[0]) if D else 0
    for i in range(n):
        for j in range(m):
            if i != j and D[i][j] != 0:
                return False
    diag = [D[i][i] for i in range(min(n, m))]
    if any(d < 0 for d in diag):
        return False
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True


def test_snf_examples():
    D, U, V = smith_normal_form([[1, 0], [0, 1]])
    assert (D, U, V) == ([[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    D, _, _ = smith_normal_form([[0, -1], [-1, 1]])
    assert D == [[1, 0], [0, 1]]
    D, _, _ = smith_normal_form([[2, 0], [0, 4]])
    assert D == [[2, 0], [0, 4]]


def test_snf_random_matrices_verified():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        M = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        D, U, V = smith_normal_form(M)  # self-checks U.M.V == D internally
        assert is_diagonal_chain(D)
        assert abs(sympy.Matrix(U).det()) == 1
        assert abs(sympy.Matrix(V).det()) == 1
        oracle = sympy_snf(sympy.Matrix(M))
        mine = sympy.Matrix(D)
        assert sorted(abs(x) for x in oracle if x != 0) == sorted(
            abs(x) for x in mine if x != 0
        )


def test_snf_diagonal_product_matches_determinant():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 5)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        D, _, _ = smith_normal_form(M)
        det = int(sympy.Matrix(M).det())
        if det != 0:
            product = math.prod(D[i][i] for i in range(n))
            assert product == abs(det)


def test_ck_groups_examples(golden, full2):
    assert ck_k_groups(full2) == {
        "K0": {"rank": 0, "torsion": []},
        "K1": {"rank": 0},
    }
    assert ck_k_groups(golden) == {
        "K0": {"rank": 0, "torsion": []},
        "K1": {"rank": 0},
    }


def test_ck_groups_full_shifts_oracle():
    for n in range(2, 7):
        A = TransitionMatrix([[1] * n for _ in range(n)])
        groups = ck_k_groups(A)
        # independent route: sympy Smith form of I - A^T
        M = sympy.eye(n) - sympy.Matrix([[1] * n] * n).T
        diag = [sympy_snf(M)[i, i] for i in range(n)]
        torsion = sorted(abs(d) for d in diag if abs(d) > 1)
        rank = sum(1 for d in diag if d == 0)
        assert groups["K0"] == {"rank": rank, "torsion": torsion}
        assert groups["K0"] == {"rank": 0, "torsion": [n - 1]} or n == 2
        assert groups["K1"] == {"rank": rank}


def test_dimension_report_uhf(golden):
    inc = inclusion_matrix(golden, {1})
    report = dimension_report(inc.matrix, 4)
    assert report["vectors"] == [[1, 1], [2, 2], [4, 4], [8, 8]]
    assert report["ratios"] == [2.0, 2.0, 2.0]
    assert report["uhf_factor"] == 2


def test_dimension_report_zero_diag(zero_diag3):
    inc = inclusion_matrix(zero_diag3, {1, 2})
    report = dimension_report(inc.matrix, 2)
    assert report["vectors"] == [[1, 1, 1, 1], [2, 2, 4, 4]]
    assert report["uhf_factor"] is None


def test_dimension_report_trivial():
    report = dimension_report([[1]], 3)
    assert report["vectors"] == [[1], [1], [1]]
    assert report["uhf_factor"] == 1


def test_dimension_report_full_H_matches_standard_filtration(golden, zero_diag3):
    for A in (golden, zero_diag3):
        inc = inclusion_matrix(A, set(range(1, A.n + 1)))
        report = dimension_report(inc.matrix, 4)
        vec = np.ones(A.n, dtype=np.int64)
        for level in range(4):
            assert report["vectors"][level] == list(vec)
            vec = np.array(A.tolist()).T @ vec


def test_perron_values(golden, full2, zero_diag3):
    assert abs(perron_value(full2) - 2.0) < 1e-9
    assert abs(perron_value(golden) - (1 + math.sqrt(5)) / 2) < 1e-9
    inc = inclusion_matrix(golden, {1})
    assert abs(perron_value(inc.matrix) - 2.0) < 1e-9
    assert abs(perron_value(zero_diag3) - 2.0) < 1e-9


def test_perron_matches_numpy(golden, full2, zero_diag3):
    for A in (golden, full2, zero_diag3):
        arr = np.array(A.tolist())
        oracle = max(np.linalg.eigvals(arr.astype(float)).real)
        assert abs(perron_value(arr) - oracle) < 1e-9


def test_perron_periodic_spectral_radius():
    # irreducible with period 2: the eigenvalues are +-sqrt(2), and the
    # Perron value is their common modulus, the spectral radius
    assert abs(perron_value([[0, 2], [1, 0]]) - math.sqrt(2)) < 1e-8


def test_perron_rejects_reducible():
    with pytest.raises(ValueError, match="reducible"):
        perron_value([[1, 1], [0, 1]])


@pytest.mark.parametrize("M", [[[1, 1, 1], [1, 1, 1]], [[1, 1], [1, 1], [1, 0]]])
def test_dimension_report_refuses_non_square_matrices(M):
    with pytest.raises(ValueError, match="square"):
        dimension_report(M, 3)


def test_dimension_report_refuses_the_empty_matrix():
    with pytest.raises(ValueError, match="^need a nonempty square matrix$"):
        dimension_report([], 2)


def test_dimension_report_refuses_negative_entries():
    with pytest.raises(ValueError, match="^inclusion matrices are nonnegative$"):
        dimension_report([[1, 0], [-1, 1]], 2)


@pytest.mark.parametrize("bad", [2.7, 1.5, True, None])
def test_entries_must_be_integers(bad):
    with pytest.raises(ValueError, match=r"entry \(2, 1\) is .*not an integer"):
        smith_normal_form([[2, 0], [bad, 1]])
    with pytest.raises(ValueError, match=r"entry \(2, 1\) is .*not an integer"):
        dimension_report([[1, 0], [bad, 1]], 2)
