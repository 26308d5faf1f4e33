"""Floating-point spectral routines that cross-check the exact results.

Deliberately independent of the exact layer: plain IEEE doubles, Sturm
bisection with guaranteed eigenvalue counts, and inverse iteration for
eigenvectors with an O(n) tridiagonal LU (LAPACK ``dgttrf``/``dgttrs``).
Model matrices arrive as the three exact diagonals built by ``model``,
which :meth:`TridiagonalReal.from_exact` rounds to doubles.  They are
asymmetric but have positive subdiagonal*superdiagonal products, so a
diagonal similarity maps them to symmetric form with the same spectrum,
which is where the reality of the spectrum comes from.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .model import (
    ModelParams,
    RadialWavefunction,
    general_matrix,
    qes_coupling,
    qes_matrix,
)

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class TridiagonalReal:
    """Real tridiagonal matrix: lower[i] = entry (i+1, i), upper[i] =
    entry (i, i+1)."""

    diag: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        n = len(self.diag)
        if len(self.lower) != n - 1 or len(self.upper) != n - 1:
            raise ValueError("off-diagonals must have length n-1")

    @property
    def n(self) -> int:
        return len(self.diag)

    @classmethod
    def from_exact(cls, diagonals) -> "TridiagonalReal":
        """Nearest doubles to exact rational diagonals (lower, diag, upper)."""
        lower, diag, upper = diagonals
        return cls(
            diag=tuple(map(float, diag)),
            lower=tuple(map(float, lower)),
            upper=tuple(map(float, upper)),
        )

    def apply(self, vec: list[float]) -> list[float]:
        out = []
        for i in range(self.n):
            acc = self.diag[i] * vec[i]
            if i > 0:
                acc += self.lower[i - 1] * vec[i - 1]
            if i + 1 < self.n:
                acc += self.upper[i] * vec[i + 1]
            out.append(acc)
        return out

    def inf_norm(self) -> float:
        best = 0.0
        for i in range(self.n):
            s = abs(self.diag[i])
            if i > 0:
                s += abs(self.lower[i - 1])
            if i + 1 < self.n:
                s += abs(self.upper[i])
            best = max(best, s)
        return best


def symmetrize(m: TridiagonalReal) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Diagonal similarity to symmetric form: offdiag = sqrt(lower*upper).

    Requires every product lower[i]*upper[i] > 0; the spectrum is
    preserved and therefore real.
    """
    off = []
    for lo, up in zip(m.lower, m.upper):
        p = lo * up
        if p <= 0.0:
            raise ValueError(
                "matrix not symmetrizable: subdiagonal*superdiagonal "
                f"product {p!r} is not positive"
            )
        off.append(math.sqrt(p))
    return m.diag, tuple(off)


def _sturm_count(
    diag: tuple[float, ...], off_sq: tuple[float, ...], x: float, pivmin: float
) -> int:
    """Number of eigenvalues strictly below x (LDL^T inertia count)."""
    count = 0
    q = 1.0
    for i, d in enumerate(diag):
        q = (d - x) if i == 0 else (d - x) - off_sq[i - 1] / q
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def bisection_eigenvalues(
    diag, offdiag, tol: float = 1e-12
) -> list[float]:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending, each
    to absolute tolerance tol (floored at a few ulps of its magnitude).

    Sturm counts make every bracket certified: the returned k-th value is
    within the final bracket containing exactly the k-th eigenvalue.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    diag = tuple(float(d) for d in diag)
    offdiag = tuple(float(e) for e in offdiag)
    n = len(diag)
    if len(offdiag) != n - 1:
        raise ValueError("off-diagonal must have length n-1")
    off_sq = tuple(e * e for e in offdiag)
    pivmin = sys.float_info.min * max(1.0, max(off_sq, default=1.0))

    radii = [
        (abs(offdiag[i - 1]) if i > 0 else 0.0)
        + (abs(offdiag[i]) if i < n - 1 else 0.0)
        for i in range(n)
    ]
    glo = min(d - r for d, r in zip(diag, radii))
    ghi = max(d + r for d, r in zip(diag, radii))
    margin = tol + _EPS * max(abs(glo), abs(ghi), 1.0)
    glo -= margin
    ghi += margin
    if _sturm_count(diag, off_sq, ghi, pivmin) != n:
        raise RuntimeError("eigenvalue count failed at the upper bound")

    values = []
    for k in range(n):
        lo, hi = glo, ghi
        for _ in range(300):
            if hi - lo <= tol + 2.0 * _EPS * max(abs(lo), abs(hi)):
                break
            mid = 0.5 * (lo + hi)
            if _sturm_count(diag, off_sq, mid, pivmin) >= k + 1:
                hi = mid
            else:
                lo = mid
        values.append(0.5 * (lo + hi))
    return values


def tridiagonal_spectrum(m: TridiagonalReal, tol: float = 1e-12) -> list[float]:
    """Spectrum of an asymmetric real tridiagonal matrix with
    non-negative off-diagonal products.

    Rows where lower*upper vanishes decouple the matrix into irreducible
    blocks whose spectra simply concatenate, which is exactly the
    situation the terminating coupling produces; each block is then
    symmetrized and bisected.  A negative product raises, since the
    spectrum need not be real.
    """
    values: list[float] = []
    for block in _irreducible_blocks(m):
        values.extend(bisection_eigenvalues(*symmetrize(block), tol))
    return sorted(values)


def _irreducible_blocks(m: TridiagonalReal):
    """The diagonal blocks of m between the rows where lower*upper
    vanishes, in order."""
    start = 0
    for i in range(m.n):
        if i + 1 == m.n or m.lower[i] * m.upper[i] == 0.0:
            yield TridiagonalReal(
                diag=m.diag[start:i + 1],
                lower=m.lower[start:i],
                upper=m.upper[start:i],
            )
            start = i + 1


def inverse_iteration(
    m: TridiagonalReal,
    eigenvalue: float,
    max_iterations: int = 50,
    residual_factor: float = 1e-10,
) -> list[float]:
    """Unit right eigenvector for an approximate eigenvalue.

    Converged when ||(M - eigenvalue*I) v|| <= residual_factor * ||M||.
    The sign is fixed so the largest-magnitude component is positive.
    """
    n = m.n
    norm_m = m.inf_norm()
    target = residual_factor * max(norm_m, 1.0)
    solve = _shifted_solver(m, eigenvalue)

    vec = [1.0 / math.sqrt(n)] * n
    for attempt in range(2):
        if attempt == 1:
            rng = random.Random(12345)
            vec = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            scale = math.sqrt(sum(v * v for v in vec))
            vec = [v / scale for v in vec]
        for _ in range(max_iterations):
            new = solve(vec)
            scale = math.sqrt(sum(v * v for v in new))
            if scale == 0.0 or not math.isfinite(scale):
                break
            vec = [v / scale for v in new]
            applied = m.apply(vec)
            residual = math.sqrt(
                sum((a - eigenvalue * v) ** 2 for a, v in zip(applied, vec))
            )
            if residual <= target:
                return _fix_sign(vec)
    raise RuntimeError(
        f"inverse iteration did not converge for eigenvalue {eigenvalue!r}"
    )


def _fix_sign(vec: list[float]) -> list[float]:
    # deterministic orientation: first clearly nonzero component positive
    # (an argmax anchor is unstable when two components tie in magnitude)
    peak = max(abs(v) for v in vec)
    for v in vec:
        if abs(v) > 0.1 * peak:
            return [-u for u in vec] if v < 0 else vec
    return vec


def _shifted_solver(m: TridiagonalReal, shift: float):
    """LU factorization with partial pivoting of the tridiagonal
    (M - shift*I), as LAPACK dgttrf; returns a solve callback (dgttrs).

    Rows swap only when the subdiagonal entry is larger in magnitude than
    the pivot, which leaves one fill-in superdiagonal du2 in U.  Pivots
    below a few ulps of ||M|| are clamped to that size, so the shift may
    sit on an eigenvalue.
    """
    n = m.n
    tiny = _EPS * max(m.inf_norm(), abs(shift), 1.0)
    d = [x - shift for x in m.diag]
    dl, du = list(m.lower), list(m.upper) + [0.0]
    du2, swapped = [0.0] * n, [False] * n
    for i in range(n):
        if i + 1 < n and abs(dl[i]) > abs(d[i]):
            swapped[i] = True
            d[i], dl[i] = dl[i], d[i]
            du[i], d[i + 1] = d[i + 1], du[i]
            du2[i], du[i + 1] = du[i + 1], du2[i]
        if abs(d[i]) < tiny:
            d[i] = tiny if d[i] >= 0 else -tiny
        if i + 1 < n:
            dl[i] /= d[i]
            d[i + 1] -= dl[i] * du[i]
            du[i + 1] -= dl[i] * du2[i]

    def solve(b: list[float]) -> list[float]:
        x = list(b)
        for i in range(n - 1):
            if swapped[i]:
                x[i], x[i + 1] = x[i + 1], x[i]
            x[i + 1] -= dl[i] * x[i]
        for i in reversed(range(n)):
            if i + 1 < n:
                x[i] -= du[i] * x[i + 1]
            if i + 2 < n:
                x[i] -= du2[i] * x[i + 2]
            x[i] /= d[i]
        return x

    return solve


def qes_spectrum(params: ModelParams, dim, tol: float = 1e-12) -> list[float]:
    """Eigenvalues of the terminating n x n block, ascending."""
    matrix = TridiagonalReal.from_exact(qes_matrix(params, dim))
    return tridiagonal_spectrum(matrix, tol)


def truncated_spectrum(
    params: ModelParams,
    dim,
    n_trunc: int,
    tol: float = 1e-12,
) -> list[float]:
    """Real eigenvalues of the n_trunc-truncated un-terminated matrix.

    With the terminating coupling the subdiagonal vanishes exactly at
    the block-size row, so the matrix decouples and its
    spectrum contains the whole QES spectrum.  Beyond that row the
    subdiagonal changes sign, making the tail block non-symmetrizable:
    its eigenvalues are largely complex truncation artifacts of an
    unbounded recursion and are omitted here.  Only decoupled blocks
    with positive off-diagonal products contribute.
    """
    matrix = TridiagonalReal.from_exact(
        general_matrix(n_trunc, qes_coupling(params, dim), params, dim)
    )
    values: list[float] = []
    for block in _irreducible_blocks(matrix):
        if all(lo * up > 0.0 for lo, up in zip(block.lower, block.upper)):
            values.extend(bisection_eigenvalues(*symmetrize(block), tol))
    return sorted(values)


def radial_wavefunction(
    params: ModelParams, dim, state: int, tol: float = 1e-12
) -> tuple[RadialWavefunction, float]:
    """Taylor coefficients of the chosen bound state via inverse
    iteration, plus its energy.  States are indexed by ascending energy."""
    if not 0 <= state < params.n:
        raise IndexError(f"state must be in 0..{params.n - 1}")
    matrix = TridiagonalReal.from_exact(qes_matrix(params, dim))
    energy = tridiagonal_spectrum(matrix, tol)[state]
    if params.n == 1:
        coeffs = [1.0]
    else:
        coeffs = inverse_iteration(matrix, energy)
    wf = RadialWavefunction(
        h=tuple(coeffs),
        beta=float(params.beta),
        gamma=float(params.gamma),
        ell=float(params.ell(dim)),
    )
    return wf, energy
