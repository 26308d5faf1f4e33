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
off it W^(k)_ij = R^(k)_ij / (eps0_j - eps0_i) = R^(k)_ij / (2(j - i)).
W^(k)_jj = 0 (intermediate normalization) leaves every energy unchanged.

Every entry of eps^(k) and W^(k) is t^(k mod 2) times a polynomial in
u = t^2 of degree <= k/2 (degree <= k in t, with the parity of k).  Per
state j and order o, one column of W^(o), keyed by the row offset i - j,
keeps those coefficients times 2^o as Python ints.  In that form 2^k R^(k)
is 2 G1 W^(k-1) + 4 G2 W^(k-2) minus the eps^(m) W^(k-m), already at the
scale 2^m 2^(k-m).  G1's t at even orders, and a product with m and k - m
both odd, shift the coefficients by one power of u.  Each division by
2(j - i) is one ``divmod``: the scale is checked, not proven, so a
remainder raises ArithmeticError and nothing is rounded.  The recursion
returns these ints and builds no :class:`TPoly`: :func:`perturbation_series`
builds ``Fraction(c, 2^k)`` and a :class:`TPoly` per eps entry, and
:attr:`SeriesResult.w` per W entry.

The energies through order K need far fewer rows (the idea behind
Wigner's 2n+1 rule): eps^(K)_j = R^(K)_jj reads W^(o) of column j only on
the window |i - j| <= min(o, K - o), and the window is closed, because G1
reaches one row per order, G2 two rows per two orders, and the sum stays
on row i.  One row rule serves both results: column j of W^(o) is computed
on the rows |i - j| <= min(o, H - o).  :func:`perturbation_series` runs
it with H = K, the window, and keeps the energies; :attr:`SeriesResult.w`
runs it with H = 2K, the whole band |i - j| <= o, on each access.

Half the states suffice.  With R = diag((-1)^i), R h0 R = -h0 (T is off
the diagonal), R h1 R = h1 and R h2 R = -h2 (U is superdiagonal), so
H(-lambda) = -R H(lambda) R and state n-1-j is state j at -lambda.  In
the Kac basis that reads, exactly,

    eps^(k)_{n-1-j} = (-1)^(k+1) eps^(k)_j
    W^(k)_{n-1-i, n-1-j} = (-1)^k W^(k)_ij

so the recursion runs for the states j <= (n-1)/2 (the middle state of
odd n included), and each of its two readers writes the mirrors of the
entries it reads.

This module holds the engine, its two readers, the two-state check
:func:`first_order_constraints` and the energy map, whose float64 sum
:func:`energy_series` is the series' one float edge; the dense checks of
the split h0, h1, h2 in the original basis are test references.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .exact import ExactMatrix, TPoly
from .kac import kac_involution
from .model import ModelParams, Scalar


class SeriesResult(NamedTuple):
    """Energy corrections eps[order][state] for orders 0..max_order, exact;
    ``n`` and ``max_order`` are read off the shape of ``eps``.

    ``w`` is derived on access: ``w[order-1]`` is the correction matrix
    W^(order), orders 1..max_order, as an :class:`ExactMatrix`, from a run
    of the recursion over the whole band |i - j| <= order.  Each access
    runs it again, so bind ``w`` once to read several orders.  Both are
    computed for the states j <= (n-1)/2 and reflected to the others by
    the exact identities of the module docstring.
    """

    k: int
    eps: tuple[tuple[TPoly, ...], ...]

    @property
    def n(self) -> int:
        return len(self.eps[0])

    @property
    def max_order(self) -> int:
        return len(self.eps) - 1

    @property
    def w(self) -> tuple[ExactMatrix, ...]:
        n, zero = self.n, TPoly.zero()
        w = [[[zero] * n for _ in range(n)] for _ in range(self.max_order)]
        states = _recursion(n, self.k, self.max_order, 2 * self.max_order)
        for j, (_, cols) in enumerate(states):
            for order, col in enumerate(cols[1:], start=1):
                for d, cs in col.items():
                    e = w[order - 1][j + d][j] = _in_t(cs, order)
                    w[order - 1][n - 1 - j - d][n - 1 - j] = -e if order % 2 else e
        return tuple(ExactMatrix(rows) for rows in w)


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


# column j of W^(o) for one state j: row offset i - j -> 2^o times the entry's
# coefficients in u = t^2, ints, lowest first, the factor t^(o mod 2) implicit
Column = dict[int, list]


def _band_product(bands: Bands, x: Column, i: int, j: int) -> list:
    """Row i of the band matrix times column x of state j, in u."""
    out = []
    for d, entry in bands.items():
        cs = x.get(i + d - j)
        if cs and (a := entry(i)):
            for p, c in enumerate(cs):
                if p < len(out):
                    out[p] += c * a
                else:
                    out.append(c * a)
    return out


def _subtract_product(acc: list, a: list, b: list, shift: int) -> None:
    """acc -= u^shift * a * b, polynomials in u."""
    for p, x in enumerate(a, shift):
        if x:
            for q, y in enumerate(b, p):
                if y:
                    acc[q] -= x * y


def _in_t(cs: list, order: int) -> TPoly:
    """The entry t^(order mod 2) * sum_p cs[p] u^p / 2^order, u = t^2."""
    coeffs = [0] * (2 * len(cs) + order % 2)
    coeffs[order % 2::2] = [Fraction(c, 2**order) for c in cs]
    return TPoly(coeffs)


def _recursion(n: int, k: int, max_order: int, horizon: int) -> list:
    """Per state j <= (n-1)/2 the pair (es, cols), lists indexed by order
    0..max_order: es[o] is 2^o eps^(o)_j and cols[o] column j of W^(o),
    keyed by row offset, both ints in u at the scale 2^o, computed on the
    rows |i - j| <= min(o, horizon - o).  The readers write the mirrors."""
    g1, g2 = perturbation_bands(n, k)
    levels = unperturbed_levels(n)
    states = []
    for j in range((n + 1) // 2):
        es = [[levels[j]]]
        cols: list[Column] = [{0: [1]}]  # column j of W^(0) = I
        for order in range(1, max_order + 1):
            width = min(order, horizon - order)
            col = {}
            for i in range(max(0, j - width), min(n, j + width + 1)):
                r = [2 * c for c in _band_product(g1, cols[order - 1], i, j)]
                if not order % 2:
                    r.insert(0, 0)  # G1's t times the t of odd order - 1 is u
                r += [0] * (order // 2 + 1 - len(r))
                if order >= 2:
                    for p, c in enumerate(_band_product(g2, cols[order - 2], i, j)):
                        r[p] += 4 * c
                for m in range(1, order):
                    x = cols[order - m].get(i - j)
                    if x and es[m]:
                        # t^(m mod 2) t^((order-m) mod 2) is u when both are odd
                        _subtract_product(r, es[m], x, m % 2 & (order - m) % 2)
                while r and not r[-1]:
                    r.pop()
                if i == j:
                    es.append(r)
                else:
                    qr = [divmod(c, 2 * (j - i)) for c in r]
                    if any(rest for _, rest in qr):
                        raise ArithmeticError(f"W^({order}) leaves the scale 2^{order}")
                    col[i - j] = [q for q, _ in qr]
            cols.append(col)
        states.append((es, cols))
    return states


def perturbation_series(params: ModelParams, max_order: int) -> SeriesResult:
    """Energies of ``params``' n and k through max_order; purely rational."""
    if not isinstance(params, ModelParams):
        raise TypeError(f"the series takes ModelParams, not {type(params).__name__}")
    if not isinstance(max_order, int) or max_order < 0:
        raise ValueError("max_order must be a non-negative integer")
    n = params.n
    eps = [[None] * n for _ in range(max_order + 1)]
    for j, (es, _) in enumerate(_recursion(n, params.k, max_order, max_order)):
        for order, cs in enumerate(es):
            e = eps[order][j] = _in_t(cs, order)
            eps[order][n - 1 - j] = e if order % 2 else -e
    return SeriesResult(k=params.k, eps=tuple(map(tuple, eps)))


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
    m_mat = ExactMatrix(kac_involution(2).m)
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
    t_value: Scalar | None = None,
) -> float:
    """Floating-point partial sum of the energy series of one state at
    lambda = 1/sqrt(D),

        E = beta*D + 2*sqrt(2*gamma*D) * (eps0 + sum_{k>=1} eps^(k) lambda^k)
          = sqrt(2*gamma) * (t/lambda^2 + sum_{k>=0} 2*eps^(k) lambda^(k-1)),

    each eps^(k) by Horner at t in float64, t = beta/sqrt(2*gamma) unless
    the rational ``t_value`` is given.  This is the series' one float
    edge.  Raises ValueError when ``params``' n or k is not the series',
    when D <= 0, or when the sum leaves the float64 range."""
    if (params.n, params.k) != (result.n, result.k):
        raise ValueError(f"params have N={params.n} k={params.k}, the series "
                         f"N={result.n} k={result.k}")
    if not 0 <= state < result.n:
        raise IndexError(f"state must be in 0..{result.n - 1}")
    if dim <= 0:
        raise ValueError("dimension D must be positive")
    try:
        lam = 1.0 / math.sqrt(float(dim))
        root = math.sqrt(2.0 * float(params.gamma))
        t = float(params.beta) / root if t_value is None else float(t_value)
        total = t * lam ** -2
        for order, eps in enumerate(result.eps):
            value = 0.0
            for c in reversed(eps[state].coeffs):
                value = value * t + float(c)
            total += (2.0 * value) * lam ** (order - 1)
        energy = root * total
    except (OverflowError, ZeroDivisionError):
        energy = math.inf
    if not math.isfinite(energy):
        raise ValueError(f"energy at D={dim} is beyond the float64 range")
    return energy
