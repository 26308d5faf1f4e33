"""Tests for the limiting-problem matrix and its exact eigendecomposition."""

from fractions import Fraction

import pytest

from qes_sextic.exact import ExactMatrix
from qes_sextic.kac import kac_eigenvalues, kac_involution, kac_matrix

# reference eigenvector matrices for sizes 1..5
REFERENCE_M = {
    1: [[1]],
    2: [[1, 1], [1, -1]],
    3: [[1, 1, 1], [2, 0, -2], [1, -1, 1]],
    4: [[1, 1, 1, 1], [3, 1, -1, -3], [3, -1, -1, 3], [1, -1, 1, -1]],
    5: [
        [1, 1, 1, 1, 1],
        [4, 2, 0, -2, -4],
        [6, 0, -2, 0, 6],
        [4, -2, 0, 2, -4],
        [1, -1, 1, -1, 1],
    ],
}


def test_matrix_patterns():
    assert kac_matrix(1) == ((0,),)
    assert kac_matrix(2) == ((0, 1), (1, 0))
    assert kac_matrix(3) == ((0, 1, 0), (2, 0, 2), (0, 1, 0))


def test_eigenvalues_are_descending_odd_ladder():
    assert kac_eigenvalues(4) == (3, 1, -1, -3)
    assert kac_eigenvalues(1) == (0,)
    assert kac_eigenvalues(25) == tuple(range(24, -25, -2))


def test_size_validation():
    with pytest.raises(ValueError):
        kac_matrix(0)
    with pytest.raises(ValueError):
        kac_eigenvalues(-3)


def _char_poly(matrix) -> list[Fraction]:
    """det(x*I - matrix) for a tridiagonal matrix via the three-term
    recurrence on leading principal minors; coefficients low power first."""

    def poly_mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    def poly_add(a, b):
        n = max(len(a), len(b))
        return [
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)
        ]

    n = len(matrix)
    prev = [Fraction(1)]  # p_0
    d0 = Fraction(matrix[0][0])
    curr = [-d0, Fraction(1)]  # x - d_0
    for i in range(1, n):
        d = Fraction(matrix[i][i])
        prod = Fraction(matrix[i][i - 1] * matrix[i - 1][i])
        term1 = poly_mul([-d, Fraction(1)], curr)
        term2 = poly_mul([-prod], prev)
        prev, curr = curr, poly_add(term1, term2)
    return curr


def test_spectrum_against_exact_characteristic_polynomial():
    # the char poly of the size-25 matrix must equal prod_j (x - z_j)
    n = 25
    computed = _char_poly(kac_matrix(n))
    expected = [Fraction(1)]
    for z in kac_eigenvalues(n):
        expected = [
            (expected[i - 1] if i > 0 else 0)
            + (-z) * (expected[i] if i < len(expected) else 0)
            for i in range(len(expected) + 1)
        ]
    assert computed == expected


def test_reference_eigenvector_matrices():
    for n, rows in REFERENCE_M.items():
        dec = kac_involution(n)
        assert dec.m == tuple(map(tuple, rows))
        assert dec.scale_pow == n - 1


def test_explicit_column_is_eigenvector():
    dec = kac_involution(3)
    t = kac_matrix(3)
    col = [dec.m[i][0] for i in range(3)]
    assert col == [1, 2, 1]
    image = [sum(t[i][j] * col[j] for j in range(3)) for i in range(3)]
    assert image == [2, 4, 2]  # z = 2 times the column


@pytest.mark.parametrize("n", list(range(1, 41)))
def test_decomposition_identities_exact(n):
    dec = kac_involution(n)
    m = dec.m
    # independent plain-integer reference arithmetic
    square = [
        [sum(m[i][k] * m[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    expected = 2 ** (n - 1)
    for i in range(n):
        for j in range(n):
            assert square[i][j] == (expected if i == j else 0)
            assert m[i][j] == int(m[i][j])  # integer entries

    t = kac_matrix(n)
    z = kac_eigenvalues(n)
    for i in range(n):
        for j in range(n):
            right = sum(t[i][k] * m[k][j] for k in range(n))
            assert right == m[i][j] * z[j]  # columns: T M = M diag(Z)
            left = sum(m[i][k] * t[k][j] for k in range(n))
            assert left == z[i] * m[i][j]  # rows: M T = diag(Z) M


@pytest.mark.parametrize("n", list(range(1, 41)))
def test_parity_symmetry(n):
    dec = kac_involution(n)
    for i in range(n):
        for j in range(n):
            assert dec.m[i][n - 1 - j] == dec.m[i][j] * ((-1) ** i)


def _exact_determinant(matrix) -> Fraction:
    n = len(matrix)
    a = [[Fraction(e) for e in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        pivot = a[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = a[r][col] / pivot
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


@pytest.mark.parametrize("n", list(range(1, 9)))
def test_determinant_magnitude(n):
    dec = kac_involution(n)
    assert abs(_exact_determinant(dec.m)) == 2 ** (n * (n - 1) // 2)


def test_conjugation_is_rational_similarity():
    dec = kac_involution(4)
    x = ExactMatrix.diagonal([1, 2, 3, 4])
    y = dec.conjugate(x)
    # conjugating twice returns the original: (PXP) conjugated is X
    assert dec.conjugate(y) == x


@pytest.mark.parametrize("n", list(range(1, 13)))
def test_kac_matrices_hold_plain_ints(n):
    # the limit problem is integer arithmetic: no TPoly, Fraction or float
    for matrix in (kac_matrix(n), kac_involution(n).m):
        assert type(matrix) is tuple and len(matrix) == n
        for row in matrix:
            assert type(row) is tuple and len(row) == n
            assert all(type(e) is int for e in row), row
