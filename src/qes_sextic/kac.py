"""The exactly solvable infinite-dimension core, in integers.

The limiting eigenproblem is governed by a Kac-type tridiagonal matrix T
(zero diagonal, subdiagonal N-n, superdiagonal n+1) whose spectrum is the
integer arithmetic sequence -N+1, -N+3, ..., N-1.  Its eigenvector matrix
P is an involution, P^2 = I; column j holds the coefficients of
(1+x)^(N-1-j) * (1-x)^j, and P = M / 2^((N-1)/2) with M integer.  T and M
are tuples of int rows; M alone, whose size fixes the power, keeps P X P
rational: the dense reference :meth:`KacDecomposition.conjugate` computes
M X M / 2^(N-1), while the series uses the integer bands G1, G2 of :mod:`rspt`.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple


def kac_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Tridiagonal integer matrix with zero diagonal, subdiagonal n-i,
    superdiagonal i+1 at row i."""
    _check_size(n)
    return tuple(tuple({i - 1: n - i, i + 1: i + 1}.get(j, 0) for j in range(n))
                 for i in range(n))


def kac_eigenvalues(n: int) -> tuple[int, ...]:
    """Eigenvalues of :func:`kac_matrix`, descending: n-1, n-3, ..., -n+1."""
    _check_size(n)
    return tuple(n - 1 - 2 * j for j in range(n))


class KacDecomposition(NamedTuple):
    """Exact eigendecomposition of the Kac-type matrix of size ``len(m)``.

    ``m`` holds the rows of the integer eigenvector matrix; the involution
    is ``m / 2^(scale_pow / 2)`` and ``m`` squared is ``2^scale_pow * I``.
    Column j of ``m`` is a right eigenvector of :func:`kac_matrix` for
    ``kac_eigenvalues(len(m))[j]``, and row j a left one for the same value.
    """

    m: tuple[tuple[int, ...], ...]

    @property
    def scale_pow(self) -> int:
        return len(self.m) - 1

    def conjugate(self, x):
        """Rational similarity P X P of an ExactMatrix, as M X M / 2^(n-1)."""
        from fractions import Fraction

        from .exact import ExactMatrix

        m = ExactMatrix(self.m)
        return (m @ x @ m) * Fraction(1, 2**self.scale_pow)


def kac_involution(n: int) -> KacDecomposition:
    """Build the integer eigenvector matrix."""
    _check_size(n)
    columns = [_eigenvector_column(n, j) for j in range(n)]
    return KacDecomposition(m=tuple(zip(*columns)))


def _eigenvector_column(n: int, j: int) -> list[int]:
    # coefficients of (1+x)^(n-1-j) * (1-x)^j, degree n-1
    a, b = n - 1 - j, j
    out = [0] * n
    for i in range(a + 1):
        ca = comb(a, i)
        for s in range(b + 1):
            out[i + s] += ca * comb(b, s) * (-1) ** s
    return out


def _check_size(n: int):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"matrix size must be a positive integer, got {n!r}")
