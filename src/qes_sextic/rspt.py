"""Rayleigh-Schrodinger recursion in exact arithmetic, one state at a time.

With T = L + U the Kac matrix (subdiagonal n-1-i, superdiagonal i+1 at row
i) and N = diag(0..n-1), the split is h0 = -T, h1 = t*(2N + k) and
h2 = -2*(N + k)*U.  The involution P of :mod:`kac` turns h0 into the
ascending ladder eps0_j = 2j - (n-1), P N P = ((n-1)I - T)/2 and
P U P = ((n-1)/2)I - N + (L - U)/2, so G = P h P are integer band matrices:

    G1 = t*((n-1+k)I - T),  G2 = -1/2*((n-1+2k)I - T)*((n-1)I - 2N + L - U)

With Psi^(k) = P W^(k) the k-th order eigenvector corrections, W^(0) = I
and W^(-1) = 0, the order-lambda^k equation is

    eps^(k) + W^(k) eps0 - eps0 W^(k) = R^(k)
    R^(k) = G1 W^(k-1) + G2 W^(k-2) - sum_{m=1}^{k-1} W^(k-m) eps^(m)

The sum only scales column j by eps^(m)_j, so the recursion is n
independent vector recursions: column j of R^(k) needs column j of the
lower orders alone, and lives on rows j-k..j+k.  R^(k)_jj = eps^(k)_j;
off it W^(k)_ij = R^(k)_ij / (eps0_j - eps0_i), where the equidistant
spectrum makes the divisor 2(j - i), a nonzero even integer, so every
output stays exact.  W^(k)_jj = 0 (intermediate normalization) leaves
every energy unchanged.  Entries of eps^(k) and W^(k) are polynomials in
t of degree <= k with the parity of k.

The energies through order K need far fewer rows (the idea behind
Wigner's 2n+1 rule): eps^(K)_j = R^(K)_jj reads W^(o) of column j only on
the window |i - j| <= min(o, K - o), and the window is closed, because G1
reaches one row per order, G2 two rows per two orders, and the sum stays
on row i.  One row rule serves both results: column j of W^(o) is computed
on the rows |i - j| <= min(o, H - o).  :func:`perturbation_series` takes
H = K, the window, and keeps the energies; :attr:`SeriesResult.w` takes
H = 2K, the whole band |i - j| <= o, and runs again on each access.

Half the states suffice.  With R = diag((-1)^i), R h0 R = -h0 (T is off
the diagonal), R h1 R = h1 and R h2 R = -h2 (U is superdiagonal), so
H(-lambda) = -R H(lambda) R and state n-1-j is state j at -lambda.  In
the Kac basis that reads, exactly,

    eps^(k)_{n-1-j} = (-1)^(k+1) eps^(k)_j
    W^(k)_{n-1-i, n-1-j} = (-1)^k W^(k)_ij

so the recursion runs for the states j <= (n-1)/2 (the middle state of
odd n included), and each entry it computes writes its mirror at once.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .exact import ExactMatrix, Scalar, TPoly
from .kac import kac_involution
from .model import ModelParams, PerturbationSplit


class SeriesResult(NamedTuple):
    """Energy corrections eps[order][state] for orders 0..max_order, exact.

    ``w`` is derived on access: ``w[order-1]`` is the correction matrix
    W^(order), orders 1..max_order, as an :class:`ExactMatrix`, from a run
    of the recursion over the whole band |i - j| <= order.  Each access
    runs it again, so bind ``w`` once to read several orders.  Both are
    computed for the states j <= (n-1)/2; the others follow from the
    exact reflection eps[order][n-1-j] = (-1)^(order+1) eps[order][j].
    """

    n: int
    k: int
    max_order: int
    eps: tuple[tuple[TPoly, ...], ...]

    @property
    def w(self) -> tuple[ExactMatrix, ...]:
        _, w = _recursion(self.n, self.k, self.max_order, 2 * self.max_order)
        return tuple(ExactMatrix(rows) for rows in w[1:])


def unperturbed_levels(n: int) -> tuple[int, ...]:
    """Zeroth-order dimensionless levels, ascending: 2j - (n-1)."""
    return tuple(2 * j - (n - 1) for j in range(n))


# a band matrix: offset d -> entry (i, i+d) as a function of the row i
Bands = dict[int, Callable[[int], int]]


def perturbation_bands(n: int, k: int) -> tuple[Bands, Bands]:
    """G1/t and G2 as integer bands, from the closed forms above."""
    g1 = {-1: lambda i: i - n, 0: lambda i: n - 1 + k, 1: lambda i: -(i + 1)}
    g2 = {
        -2: lambda i: (n - i) * (n - i + 1) // 2,
        -1: lambda i: (i - n) * (i - 1 + k),
        0: lambda i: (n - 2 + 2 * k) * (2 * i + 1 - n) // 2,
        1: lambda i: (i + 1) * (n - 2 - i + k),
        2: lambda i: -(i + 1) * (i + 2) // 2,
    }
    return g1, g2


def _band_product(bands: Bands, x: list, i: int, j: int) -> TPoly:
    """Entry (i, j) of the band matrix times the n x n array x."""
    return sum(
        (x[i + d][j] * entry(i) for d, entry in bands.items()
         if 0 <= i + d < len(x) and not x[i + d][j].is_zero),
        TPoly.zero(),
    )


def _recursion(n: int, k: int, max_order: int, horizon: int):
    """(eps, w) as nested lists, eps[order][j] = eps^(order)_j and
    w[order][i][j] = W^(order)_ij, orders 0..max_order.  The states
    j <= (n-1)/2 compute column j of W^(order) on the rows
    |i - j| <= min(order, horizon - order), and each entry writes its
    mirror as it is computed; every other entry stays 0."""
    zero, one = TPoly.zero(), TPoly.one()
    eps = [[TPoly.constant(e) for e in unperturbed_levels(n)]]
    eps += [[zero] * n for _ in range(max_order)]
    w = [[[one if i == j else zero for j in range(n)] for i in range(n)]]
    w += [[[zero] * n for _ in range(n)] for _ in range(max_order)]
    g1, g2 = perturbation_bands(n, k)
    t = TPoly.t()
    for j in range((n + 1) // 2):
        # mirror columns n-1-j > (n-1)/2 are never read; the middle state
        # of odd n is its own mirror
        mirror = n - 1 - j > j
        for order in range(1, max_order + 1):
            width = min(order, horizon - order)
            for i in range(max(0, j - width), min(n, j + width + 1)):
                r = t * _band_product(g1, w[order - 1], i, j)
                if order >= 2:
                    r = r + _band_product(g2, w[order - 2], i, j)
                for m in range(1, order):
                    if not w[order - m][i][j].is_zero:
                        r = r - eps[m][j] * w[order - m][i][j]
                if i == j:
                    eps[order][j] = r
                    if mirror:
                        eps[order][n - 1 - j] = r if order % 2 else -r
                else:
                    x = w[order][i][j] = r / (2 * (j - i))
                    if mirror:
                        w[order][n - 1 - i][n - 1 - j] = -x if order % 2 else x
    return eps, w


def perturbation_series(split: PerturbationSplit, max_order: int) -> SeriesResult:
    """Energies through max_order from the energy window; purely rational."""
    if not isinstance(max_order, int) or max_order < 0:
        raise ValueError("max_order must be a non-negative integer")
    eps, _ = _recursion(split.n, split.k, max_order, max_order)
    return SeriesResult(n=split.n, k=split.k, max_order=max_order,
                        eps=tuple(map(tuple, eps)))


def order_residual(
    split: PerturbationSplit, result: SeriesResult, order: int
) -> ExactMatrix:
    """Exact residual of the order-lambda^k eigenvalue equation, checked in
    the original basis (independent of the G-form recursion):

        h0 Psi^(k) + h1 Psi^(k-1) + h2 Psi^(k-2)
            - sum_{m=0}^{k} Psi^(k-m) eps^(m) = 0

    with Psi^(k) = M W^(k) (the integer-scaled eigenvector corrections;
    the overall 2^((n-1)/2) norm divides out of the identity).
    """
    if not 1 <= order <= result.max_order:
        raise IndexError(f"series holds orders 1..{result.max_order}")
    m_mat = kac_involution(result.n).m
    psi = [m_mat] + [m_mat @ w for w in result.w[:order]]  # psi[k] = Psi^(k)
    residual = ExactMatrix.tridiagonal(*split.h0) @ psi[order]
    for power, h in enumerate((split.h1, split.h2)[:order], start=1):
        residual = residual + ExactMatrix.tridiagonal(*h) @ psi[order - power]
    for m in range(order + 1):
        residual = residual - psi[order - m] @ ExactMatrix.diagonal(result.eps[m])
    return residual


def first_order_constraints(result: SeriesResult) -> tuple[TPoly, TPoly]:
    """Gauge-invariant first-order constraints for the two-state s-wave
    problem (n=2, k=0).

    The first-order eigenvector corrections are fixed by the recursion
    only up to their free diagonal.  Two combinations are
    gauge-invariant; for the integer-normalized corrections taken in the
    descending-eigenvalue orientation, Psi = -M W^(1), they equal

        Psi[0,0] - Psi[1,0] = -t      and      Psi[0,1] + Psi[1,1] = +t.

    Returns the two residual polynomials (zero iff the constraints hold).
    """
    if result.n != 2 or result.k != 0:
        raise ValueError("constraint check is defined for n=2, k=0 only")
    m_mat = kac_involution(2).m
    psi = -(m_mat @ result.w[0])
    t = TPoly.t()
    residual_minus = psi[0, 0] - psi[1, 0] + t
    residual_plus = psi[0, 1] + psi[1, 1] - t
    return residual_minus, residual_plus


def energy_coefficients(result: SeriesResult, state: int) -> list[TPoly]:
    """Dimensionless energy series for one state, lowest power first:

        E / sqrt(2*gamma) = t/lambda^2 + 2*eps0/lambda
                            + 2 * sum_{k>=1} eps^(k) lambda^(k-1)

    Entry m is the coefficient of lambda^(m-2); there are max_order + 2
    entries.
    """
    if not 0 <= state < result.n:
        raise IndexError(f"state must be in 0..{result.n - 1}")
    coeffs = [TPoly.t()]
    for order in range(result.max_order + 1):
        coeffs.append(2 * result.eps[order][state])
    return coeffs


def energy_series(
    result: SeriesResult,
    state: int,
    params: ModelParams,
    dim: Scalar,
    t_value: float | None = None,
) -> float:
    """Floating-point partial sum of the energy series of one state at
    lambda = 1/sqrt(D),

        E = beta*D + 2*sqrt(2*gamma*D) * (eps0 + sum_{k>=1} eps^(k) lambda^k),

    summed over :func:`energy_coefficients`; t is ``params.t_float()``
    unless ``t_value`` is given.  Raises ValueError when the sum leaves
    the float64 range."""
    coeffs = energy_coefficients(result, state)
    d = float(dim)
    if d <= 0:
        raise ValueError("dimension D must be positive")
    lam = 1.0 / math.sqrt(d)
    t0 = params.t_float() if t_value is None else float(t_value)
    total = 0.0
    try:
        for m, poly in enumerate(coeffs):
            total += poly.evaluate_float(t0) * lam ** (m - 2)
    except OverflowError:
        total = math.inf
    energy = math.sqrt(2.0 * float(params.gamma)) * total
    if not math.isfinite(energy):
        raise ValueError(f"energy at D={dim} is beyond the float64 range")
    return energy
