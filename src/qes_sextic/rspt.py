"""Matrix Rayleigh-Schrodinger recursion in exact arithmetic.

Work in the eigenbasis of the limiting problem: P = M / 2^((n-1)/2) is the
involutive eigenvector matrix (P^2 = I), the zeroth-order eigenvalues are
eps0_j = 2j - (n-1), ascending in the column index j, and the perturbation
images G1 = P h1 P and G2 = P h2 P are rational because they are evaluated
as M h M / 2^(n-1).

Writing the k-th order eigenvector-correction matrix as Psi^(k) = P W^(k),
collecting powers of lambda in the eigenvalue equation and multiplying by
P from the left gives, with W^(0) = I and W^(-1) = 0,

    eps^(k) + W^(k) eps0 - eps0 W^(k) = R^(k)
    R^(k) = G1 W^(k-1) + G2 W^(k-2) - sum_{m=1}^{k-1} W^(k-m) eps^(m)

The diagonal of R^(k) is the k-th energy correction.  Off the diagonal,
W^(k)_ij = R^(k)_ij / (eps0_j - eps0_i); the divisors are nonzero even
integers because the unperturbed spectrum is equidistant, so every output
stays exact.  The free diagonal of W^(k) is set to zero at each order
(intermediate normalization), which leaves all energy corrections
unchanged.

Every entry of eps^(k) and W^(k) is a polynomial in t of degree <= k with
the parity of k (h1 carries t*lambda, h2 carries lambda^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import ExactMatrix, Scalar, TPoly
from .kac import kac_involution
from .model import ModelParams, PerturbationSplit


@dataclass(frozen=True)
class SeriesResult:
    """Energy corrections eps[order][state] and correction matrices
    w[order-1] for orders 1..max_order, all exact."""

    n: int
    k: int
    max_order: int
    eps: tuple[tuple[TPoly, ...], ...]
    w: tuple[ExactMatrix, ...]

    def w_order(self, order: int) -> ExactMatrix:
        if not 1 <= order <= self.max_order:
            raise IndexError(f"no correction matrix of order {order}")
        return self.w[order - 1]


def unperturbed_levels(n: int) -> tuple[int, ...]:
    """Zeroth-order dimensionless levels, ascending: 2j - (n-1)."""
    return tuple(2 * j - (n - 1) for j in range(n))


def perturbation_series(split: PerturbationSplit, max_order: int) -> SeriesResult:
    """Run the recursion through the given order.  Purely rational."""
    if not isinstance(max_order, int) or max_order < 0:
        raise ValueError("max_order must be a non-negative integer")
    n = split.n
    dec = kac_involution(n)
    g1 = dec.conjugate(split.h1)
    g2 = dec.conjugate(split.h2)
    eps0 = unperturbed_levels(n)

    eps_rows: list[tuple[TPoly, ...]] = [
        tuple(TPoly.constant(e) for e in eps0)
    ]
    ws: list[ExactMatrix] = [ExactMatrix.identity(n)]  # ws[k] = W^(k)

    for order in range(1, max_order + 1):
        r = g1 @ ws[order - 1]
        if order >= 2:
            r = r + g2 @ ws[order - 2]
        for m in range(1, order):
            r = r - ws[order - m] @ ExactMatrix.diagonal(eps_rows[m])
        eps_rows.append(r.diagonal_entries())
        w_rows = [
            [
                TPoly.zero()
                if i == j
                else r[i, j] / (eps0[j] - eps0[i])
                for j in range(n)
            ]
            for i in range(n)
        ]
        ws.append(ExactMatrix(w_rows))

    return SeriesResult(
        n=n,
        k=split.k,
        max_order=max_order,
        eps=tuple(eps_rows),
        w=tuple(ws[1:]),
    )


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
    n = result.n
    m_mat = kac_involution(n).m

    def psi(k: int) -> ExactMatrix:
        if k < 0:
            return ExactMatrix.zeros(n)
        if k == 0:
            return m_mat
        return m_mat @ result.w_order(k)

    residual = split.h0 @ psi(order)
    residual = residual + split.h1 @ psi(order - 1)
    residual = residual + split.h2 @ psi(order - 2)
    for m in range(order + 1):
        residual = residual - psi(order - m) @ ExactMatrix.diagonal(result.eps[m])
    return residual


def first_order_constraints(
    result: SeriesResult, w1: ExactMatrix | None = None
) -> tuple[TPoly, TPoly]:
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
    if w1 is None:
        w1 = result.w_order(1)
    m_mat = kac_involution(2).m
    psi = -(m_mat @ w1)
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
) -> tuple[list[TPoly], float]:
    """Exact coefficient list plus its floating-point partial sum at
    lambda = 1/sqrt(D)."""
    coeffs = energy_coefficients(result, state)
    d = float(dim)
    if d <= 0:
        raise ValueError("dimension D must be positive")
    lam = 1.0 / math.sqrt(d)
    t0 = params.t_float() if t_value is None else float(t_value)
    total = 0.0
    for m, poly in enumerate(coeffs):
        total += poly.evaluate_float(t0) * lam ** (m - 2)
    return coeffs, math.sqrt(2.0 * float(params.gamma)) * total
