"""Physical model: the sextic-oscillator matrices and their 1/sqrt(D) rescaling.

The radial problem

    -psi'' + [l(l+1)/r^2 + a r^2 + b r^4 + c r^6] psi = E psi,
    l = k + (D-3)/2,  b = 2*beta*gamma,  c = gamma^2,

with the quadratic coupling tuned to a = beta^2 - gamma*(4N + 2l + 1)
admits N bound states whose energies are the eigenvalues of an N x N
tridiagonal matrix with rational entries (for rational beta, gamma, D):

    sub      A_n = 4*gamma*(n - N)
    diag     B_n = beta*(4n + 2k + D)
    super    C_n = -2*(n+1)*(2n + 2k + D)

Rescaling rows/columns by rho^n with rho = sqrt(D/(2*gamma)), subtracting
beta*D and dividing by 2*sqrt(2*gamma*D) yields, identically in
lambda = 1/sqrt(D),

    H(lambda) = H0 + lambda*H1 + lambda^2*H2

where H0 has subdiagonal -(N-n) and superdiagonal -(n+1), H1 is the
diagonal t*(2n+k) with t = beta/sqrt(2*gamma), and H2 has the single
superdiagonal -(n+1)*(2n+2k).  The expansion terminates: there is no
lambda^3 term.  Energies map back through

    E = beta*D + 2*sqrt(2*gamma*D) * eps = sqrt(2*gamma) * (t*D + 2*sqrt(D)*eps),

which :func:`qes_sextic.rspt.energy_series` evaluates for the series;
the split itself is built only by the tests' dense reference.

:func:`qes_matrix` and :func:`general_matrix` return a matrix as its
three diagonals ``(lower, diag, upper)``, tuples of ``Fraction`` of
lengths n-1, n and n-1, so no n x n structure is built.  Both layers use
this module, and it loads no other module of the package.  All
construction here is exact: no float enters it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]
# a tridiagonal matrix as its (sub, main, super) diagonals
Diagonals = tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]


def as_rational(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(
        f"exact arithmetic needs int or Fraction, got {type(value).__name__}"
    )


class ModelParams:
    """QES block size n, angular momentum k and positive couplings.

    The dimensionless coupling t = beta/sqrt(2*gamma) is irrational in
    general and is kept symbolic throughout the exact layer;
    :meth:`exact_t` returns its rational value when beta^2/(2*gamma)
    happens to be a perfect square of a rational.  Instances are
    immutable.
    """

    __slots__ = ("n", "k", "beta", "gamma")

    n: int
    k: int
    beta: Fraction
    gamma: Fraction

    def __init__(self, n: int, k: int, beta: Scalar, gamma: Scalar):
        if not isinstance(n, int) or n < 1:
            raise ValueError("block size n must be a positive integer")
        if not isinstance(k, int) or k < 0:
            raise ValueError("angular momentum k must be a non-negative integer")
        beta, gamma = as_rational(beta), as_rational(gamma)
        if beta <= 0:
            raise ValueError("beta must be positive")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    def __setattr__(self, name, value):
        raise AttributeError("ModelParams is immutable")

    def ell(self, dim: Scalar) -> Fraction:
        """Angular factor l = k + (D-3)/2 (a half-integer for even D)."""
        return self.k + Fraction(as_rational(dim) - 3, 2)

    def exact_t(self) -> Fraction | None:
        """Rational t if beta^2/(2*gamma) is a perfect rational square."""
        sq = self.beta**2 / (2 * self.gamma)
        num, den = sq.numerator, sq.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
        return None


def qes_coupling(params: ModelParams, dim: Scalar) -> Fraction:
    """Quadratic coupling a = beta^2 - gamma*(4n + 2l + 1) that terminates
    the wavefunction's power series after n terms."""
    d = _check_dim(dim)
    return params.beta**2 - params.gamma * (4 * params.n + 2 * params.k + d - 2)


def qes_matrix(params: ModelParams, dim: Scalar) -> Diagonals:
    """The n x n tridiagonal matrix whose eigenvalues are the n exactly
    terminating bound-state energies, as its diagonals."""
    return general_matrix(params.n, params, dim)


def general_matrix(n_trunc: int, params: ModelParams, dim: Scalar) -> Diagonals:
    """Truncation to n_trunc rows of the infinite matrix of the radial
    problem at the QES coupling a = :func:`qes_coupling`.

    Its subdiagonal gamma*(4m + 2l + 1) + a - beta^2 is 4*gamma*(m - n),
    which vanishes exactly at row ``params.n``: the matrix is block
    lower-triangular and its leading n x n block is :func:`qes_matrix`,
    so its spectrum contains that of :func:`qes_matrix` by construction
    for any truncation size >= params.n.
    """
    if not isinstance(n_trunc, int) or n_trunc < 1:
        raise ValueError("truncation size must be a positive integer")
    d = _check_dim(dim)
    n, k, beta, gamma = params.n, params.k, params.beta, params.gamma
    lower = tuple(4 * gamma * (m - n) for m in range(1, n_trunc))
    diag = tuple(beta * (4 * m + 2 * k + d) for m in range(n_trunc))
    upper = tuple(-2 * (m + 1) * (2 * m + 2 * k + d) for m in range(n_trunc - 1))
    return lower, diag, upper


def _check_dim(dim: Scalar) -> Fraction:
    d = as_rational(dim)
    if d <= 0:
        raise ValueError("dimension D must be positive")
    return d
