"""Dense exact references for the series: the lambda-split of the model
matrix and the two identities that check it in the original basis.

The package computes the series on integer bands (``rspt._recursion``);
these checks rebuild the split h0 + lambda*h1 + lambda^2*h2 as dense
:class:`ExactMatrix` products of :class:`TPoly` entries, sharing no code
with the engine's bands, and return residuals that must vanish exactly.
No test lives here; the test modules import it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from qes_sextic.exact import ExactMatrix, TPoly
from qes_sextic.kac import kac_involution
from qes_sextic.model import ModelParams, Scalar, qes_matrix
from qes_sextic.rspt import SeriesResult, energy_coefficients


# h0, h1 or h2 as its (sub, main, super) diagonals of polynomials in t
PolyDiagonals = tuple[tuple[TPoly, ...], tuple[TPoly, ...], tuple[TPoly, ...]]


class PerturbationSplit(NamedTuple):
    """H(lambda) = h0 + lambda*h1 + lambda^2*h2, each term as its three
    diagonals; ``ExactMatrix.tridiagonal(*split.h0)`` gives the dense h0."""

    h0: PolyDiagonals
    h1: PolyDiagonals
    h2: PolyDiagonals


def perturbation_split(params: ModelParams) -> PerturbationSplit:
    """Exact dimensionless split of the rescaled matrix in powers of
    lambda = 1/sqrt(D); terminates at lambda^2."""
    n, k = params.n, params.k
    zero_off, zero_diag = (TPoly.zero(),) * (n - 1), (TPoly.zero(),) * n
    h0_lower = tuple(TPoly.constant(m + 1 - n) for m in range(n - 1))
    h0_upper = tuple(TPoly.constant(-(m + 1)) for m in range(n - 1))
    h1_diag = tuple(TPoly((0, 2 * m + k)) for m in range(n))
    h2_upper = tuple(TPoly.constant(-(m + 1) * (2 * m + 2 * k)) for m in range(n - 1))
    return PerturbationSplit(
        (h0_lower, zero_diag, h0_upper), (zero_off, h1_diag, zero_off),
        (zero_off, zero_diag, h2_upper),
    )


def split_reassembly_residual(params: ModelParams, rho: int) -> ExactMatrix:
    """Exact residual of the split identity at D = 2*gamma*rho^2.

    For integer rho the rescaling factor sqrt(D/(2*gamma)) = rho and the
    energy scale sqrt(2*gamma*D) = 2*gamma*rho are rational, so

        S Q S^-1 - beta*D*I - 2*sqrt(2*gamma*D) * (h0 + lambda*h1 + lambda^2*h2)

    is a rational matrix that must vanish identically.  Returns it.
    """
    if not isinstance(rho, int) or rho < 1:
        raise ValueError("rho must be a positive integer")
    gamma, beta = params.gamma, params.beta
    d = 2 * gamma * rho**2
    lower, diag, upper = qes_matrix(params, d)
    # S Q S^-1 with S = diag(rho^j): subdiagonal * rho, superdiagonal / rho
    rescaled = ExactMatrix.tridiagonal(
        [x * rho for x in lower], diag, [x / rho for x in upper]
    )

    split = perturbation_split(params)
    lam_t = beta / (2 * gamma * rho)  # lambda * t, rational here
    lam_sq = Fraction(1) / d
    # h0 + lambda*h1 + lambda^2*h2, one diagonal at a time
    assembled = ExactMatrix.tridiagonal(*(
        [e0 + e1.evaluate(lam_t) + e2 * lam_sq for e0, e1, e2 in zip(*diagonals)]
        for diagonals in zip(split.h0, split.h1, split.h2)
    ))
    scale = 2 * (2 * gamma * rho)  # 2*sqrt(2*gamma*D)
    expected = ExactMatrix.diagonal([beta * d] * params.n) + assembled * scale
    return rescaled - expected


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
    m_mat = ExactMatrix(kac_involution(result.n).m)
    psi = [m_mat] + [m_mat @ w for w in result.w[:order]]  # psi[k] = Psi^(k)
    residual = ExactMatrix.tridiagonal(*split.h0) @ psi[order]
    for power, h in enumerate((split.h1, split.h2)[:order], start=1):
        residual = residual + ExactMatrix.tridiagonal(*h) @ psi[order - power]
    for m in range(order + 1):
        residual = residual - psi[order - m] @ ExactMatrix.diagonal(result.eps[m])
    return residual


def t_float(params: ModelParams) -> float:
    """t = beta/sqrt(2*gamma) in float64, as the series was summed at."""
    return float(params.beta) / math.sqrt(2.0 * float(params.gamma))


def evaluate_float(poly: TPoly, point: float) -> float:
    """Horner in float64 over the coefficients of ``poly``."""
    acc = 0.0
    for c in reversed(poly.coeffs):
        acc = acc * point + float(c)
    return acc


def energy_series_reference(
    result: SeriesResult,
    state: int,
    params: ModelParams,
    dim: Scalar,
    t_value: Scalar | None = None,
) -> float:
    """The partial sum of :func:`rspt.energy_series` as the sum over
    :func:`rspt.energy_coefficients`, lambda^-2 up, each evaluated by
    float Horner; the package sums the same floats without the products."""
    if (params.n, params.k) != (result.n, result.k):
        raise ValueError(f"params have N={params.n} k={params.k}, the series "
                         f"N={result.n} k={result.k}")
    coeffs = energy_coefficients(result, state)
    d = float(dim)
    if d <= 0:
        raise ValueError("dimension D must be positive")
    lam = 1.0 / math.sqrt(d)
    t0 = t_float(params) if t_value is None else float(t_value)
    total = 0.0
    try:
        for m, poly in enumerate(coeffs):
            total += evaluate_float(poly, t0) * lam ** (m - 2)
    except OverflowError:
        total = math.inf
    energy = math.sqrt(2.0 * float(params.gamma)) * total
    if not math.isfinite(energy):
        raise ValueError(f"energy at D={dim} is beyond the float64 range")
    return energy
