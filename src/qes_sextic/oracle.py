"""Floating-point spectral routines that cross-check the exact results.

Deliberately independent of the exact layer: plain IEEE doubles.  Its
one package import is ``model``, whose exact diagonals of a model matrix
:meth:`TridiagonalReal.from_exact` rounds to doubles.  They are
asymmetric but have positive subdiagonal*superdiagonal products, so a
diagonal similarity maps them to symmetric form with the same spectrum,
which is where the reality of the spectrum comes from.  Each eigenvalue
comes from its own Sturm bisection of that symmetric form, eigenvectors
from one twisted factorization each.  A spectrum takes all eigenvalues;
a wavefunction bisects only the one of its state.

For the whole spectrum, the bisections take few Sturm counts: a
root-free QL iteration (EISPACK ``tqlrat``) first estimates every
eigenvalue, and the search for each one descends toward its estimate
without counting.  Only the two ends of the final bracket it lands in
are counted; they either certify that bracket as the one the plain
bisection ends in, or show the eigenvalue beyond it, and the search
gallops on.  If the counts taken are not monotone, the plain bisections
run instead.  Either way the eigenvalues are bit for bit those of the
plain bisection (see :func:`bisection_eigenvalues`).

:data:`TOL` is every spectrum's default tolerance, :func:`resolution` the
half-width a bisected value is certified to, and :class:`RadialWavefunction`
the float64 psi of one state, which :func:`radial_wavefunction` fills.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .model import ModelParams, general_matrix, qes_matrix

_EPS = sys.float_info.epsilon
TOL = 1e-12  # default absolute tolerance of a bisected eigenvalue


class TridiagonalReal:
    """Real tridiagonal matrix: lower[i] = entry (i+1, i), upper[i] =
    entry (i, i+1).  Instances are immutable."""

    __slots__ = ("diag", "lower", "upper")

    diag: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __init__(self, diag, lower, upper):
        n = len(diag)
        if len(lower) != n - 1 or len(upper) != n - 1:
            raise ValueError("off-diagonals must have length n-1")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __setattr__(self, name, value):
        raise AttributeError("TridiagonalReal is immutable")

    @property
    def n(self) -> int:
        return len(self.diag)

    @classmethod
    def from_exact(cls, diagonals) -> "TridiagonalReal":
        """Nearest doubles to exact rational diagonals (lower, diag, upper)."""
        lower, diag, upper = diagonals
        try:
            return cls(
                diag=tuple(map(float, diag)),
                lower=tuple(map(float, lower)),
                upper=tuple(map(float, upper)),
            )
        except OverflowError:
            raise ValueError(
                "matrix entry beyond the float64 range (beta, gamma or D too large)"
            ) from None

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

    Requires every product lower[i]*upper[i] > 0 and finite; the spectrum is
    preserved and therefore real.
    """
    off = []
    for lo, up in zip(m.lower, m.upper):
        p = lo * up
        if not 0.0 < p < math.inf:
            raise ValueError(
                "matrix not symmetrizable in float64: subdiagonal*superdiagonal "
                f"product {p!r} is not positive and finite"
            )
        off.append(math.sqrt(p))
    return m.diag, tuple(off)


def _pivmin(off_sq) -> float:
    """Smallest pivot magnitude allowed in an LDL^T recurrence."""
    return sys.float_info.min * max(1.0, max(off_sq, default=1.0))


def _sturm_count(
    diag: tuple[float, ...], off_sq: tuple[float, ...], x: float, pivmin: float
) -> int:
    """Number of eigenvalues strictly below x (LDL^T inertia count).

    Pivot q_i = (d_i - x) - off_sq[i-1] / q_(i-1); a pivot in (-pivmin,
    pivmin) is replaced by -pivmin, and the count is the number of pivots
    below pivmin, which are exactly the negative ones after the clamp
    (a NaN pivot is not counted).
    """
    pivots = iter(diag)
    q = next(pivots) - x
    count = 0
    for d, e in zip(pivots, off_sq):
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
        q = (d - x) - e / q
    if q < pivmin:
        count += 1
    return count


def bisection_eigenvalues(
    diag, offdiag, tol: float = TOL, index: int | None = None
) -> list[float]:
    """The whole spectrum of a symmetric tridiagonal matrix, ascending, or
    [eigenvalue index] alone, each to absolute tolerance tol (floored at
    a few ulps of its magnitude).  Raises ValueError unless index is None
    or an int in 0..n-1.

    Each eigenvalue has its own bisection from the Gershgorin bracket
    (glo, ghi] (:func:`_single`), so one index is bit for bit its entry
    of the spectrum; at n = 200 it takes about 54 counts.  For the whole
    spectrum, root-free QL estimates (:func:`_ql_eigenvalues`) steer each
    search and spare its counts (:func:`_steered`).

    Certification: the Sturm count is monotone in x in IEEE arithmetic
    (Kahan 1966; Demmel, Dhillon & Ren 1995).  Take a final bracket
    (lo, hi] of the bisection tree with count(lo) <= c < count(hi).  Every
    midpoint m above it has count(m) > c and every one below it count(m)
    <= c, so the plain bisection of eigenvalue c ends in this bracket, and
    a steered value accepted on these two counts is bit for bit the plain
    one.  When the counts taken are not monotone, QL does not converge or
    an estimate is not finite, the plain bisections run instead.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be finite and positive")
    diag = tuple(float(d) for d in diag)
    offdiag = tuple(float(e) for e in offdiag)
    n = len(diag)
    if len(offdiag) != n - 1:
        raise ValueError("off-diagonal must have length n-1")
    if index is not None and not (isinstance(index, int) and 0 <= index < n):
        raise ValueError(f"index {index!r} not within 0..{n - 1}")
    off_sq = tuple(e * e for e in offdiag)
    pivmin = _pivmin(off_sq)

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
    if not -math.inf < glo <= ghi < math.inf:
        raise ValueError("eigenvalue bounds beyond the float64 range")
    if _sturm_count(diag, off_sq, ghi, pivmin) != n:
        raise RuntimeError("eigenvalue count failed at the upper bound")

    if index is not None:
        return [_single(diag, off_sq, pivmin, tol, glo, ghi, index)]
    estimates = _ql_eigenvalues(diag, off_sq)
    if estimates is not None and all(map(math.isfinite, estimates)):
        values = _steered(diag, off_sq, pivmin, tol, glo, ghi, estimates)
        if values is not None:
            return values
    return [_single(diag, off_sq, pivmin, tol, glo, ghi, c) for c in range(n)]


def _splits(lo, hi, depth, tol) -> bool:
    """Whether the bracket (lo, hi] at this depth is bisected further."""
    return depth < 300 and hi - lo > tol + 2.0 * _EPS * max(abs(lo), abs(hi))


def resolution(value: float, tol: float) -> float:
    """Half-width to which an eigenvalue bisected at tol is certified: half
    the width at which :func:`_splits` stops, plus room for the rounding."""
    return 0.5 * tol + 2.0 * _EPS * max(1.0, abs(value))


def _single(diag, off_sq, pivmin, tol, lo, hi, c) -> float:
    """Eigenvalue c by plain bisection of the root bracket (lo, hi]: a
    step counts the eigenvalues below the midpoint and keeps the upper
    half when there are at most c of them, else the lower half, until
    the bracket no longer splits; the value is its midpoint."""
    depth = 0
    while _splits(lo, hi, depth, tol):
        mid = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
        if _sturm_count(diag, off_sq, mid, pivmin) <= c:
            lo = mid
        else:
            hi = mid
        depth += 1
    return 0.5 * lo + 0.5 * hi


def _steered(diag, off_sq, pivmin, tol, glo, ghi, estimates) -> list[float] | None:
    """All eigenvalues, the bisection of each index c steered to estimate
    c: a step keeps the half that holds the target and takes no count,
    and only the ends of the final bracket are counted, each point once
    for all indices.  count(lo) <= c < count(hi) accepts it, even when it
    holds several eigenvalues.  Otherwise the target moves past it by a
    step that starts at the final width and doubles on each miss, or,
    once there are misses on both sides or a step would pass the nearest
    counted end, halves the gap between the nearest counted ends; the
    descent resumes from the deepest bracket passed that holds the
    target.  Those ends, left and right, are ends of final brackets with
    count(left) <= c < count(right), so each miss moves one of them past
    a final bracket and every search ends.  None unless there is one
    estimate per index and the counts taken are monotone.
    """
    n = len(diag)
    if len(estimates) != n:
        return None
    counted = {glo: 0, ghi: n}  # point -> real count

    def count(x):
        if x not in counted:
            counted[x] = _sturm_count(diag, off_sq, x, pivmin)
        return counted[x]

    values = []
    for c, target in enumerate(estimates):
        lo, hi, depth = glo, ghi, 0
        left, right = glo, ghi  # count(left) <= c < count(right)
        t = min(max(target, glo), ghi)
        step = 0.0
        path = []  # (lo, hi, depth) of the brackets passed
        while True:
            # steering keeps lo <= t < hi (t == hi only at the entry)
            while _splits(lo, hi, depth, tol):
                path.append((lo, hi, depth))
                mid = 0.5 * lo + 0.5 * hi
                if mid <= t:
                    lo = mid
                else:
                    hi = mid
                depth += 1
            if count(lo) > c:
                right = lo
            elif count(hi) <= c:
                left = hi
            else:
                break
            step = 2.0 * step or hi - lo
            # gallop down while every miss was below, up while every one was above
            t = right - step if left == glo else left + step
            if (left != glo and right != ghi) or not left <= t < right:
                t = 0.5 * left + 0.5 * right
                if t == right:  # left and right are adjacent doubles
                    t = left
            while not path[-1][0] <= t < path[-1][1]:
                path.pop()
            lo, hi, depth = path.pop()
        values.append(0.5 * lo + 0.5 * hi)
    counts = [counted[x] for x in sorted(counted)]
    return values if counts == sorted(counts) else None


def _ql_eigenvalues(diag, off_sq) -> list[float] | None:
    """Estimates of all eigenvalues, ascending, by the root-free QL
    iteration of Pal, Walker and Kahan (EISPACK ``tqlrat``; Parlett, *The
    Symmetric Eigenvalue Problem*, §8.15): implicit shifts, and sweeps
    that use only the squared off-diagonal.  None when an eigenvalue takes
    more than 30 sweeps.
    """
    n = len(diag)
    d = list(diag)
    e2 = list(off_sq) + [0.0]
    found = []
    shift = t = b = c = 0.0
    for j in range(n):
        h = abs(d[j]) + math.sqrt(e2[j])
        if t <= h:
            t = h
            b = _EPS * t
            c = b * b  # e2 below c is negligible
        m = j
        while e2[m] > c:
            m += 1
        sweeps = 0
        while m > j:
            if sweeps == 30:
                return None
            sweeps += 1
            # shift: the eigenvalue of the leading 2x2 block nearer d[j]
            s = math.sqrt(e2[j])
            g = d[j]
            p = (d[j + 1] - g) / (2.0 * s)
            d[j] = s / (p + math.copysign(math.hypot(p, 1.0), p))
            h = g - d[j]
            for i in range(j + 1, n):
                d[i] -= h
            shift += h
            # rational QL sweep from row m up to row j
            g = d[m] or b
            h = g
            s = 0.0
            for i in range(m - 1, j - 1, -1):
                p = g * h
                r = p + e2[i]
                e2[i + 1] = s * r
                s = e2[i] / r
                d[i + 1] = h + s * (h + d[i])
                g = (d[i] - e2[i] / g) or b
                h = g * p / r
            e2[j] = s * g
            d[j] = h
            # guard against underflow in the convergence test
            if h == 0.0 or abs(e2[j]) <= abs(c / h):
                break
            e2[j] *= h
            if e2[j] == 0.0:
                break
        found.append(d[j] + shift)
    found.sort()
    return found


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


def inverse_iteration(m: TridiagonalReal, eigenvalue: float) -> list[float]:
    """Unit right eigenvector for an accurate eigenvalue, in one step.

    Twisted factorization of the symmetric form T (LAPACK ``dlar1v``):
    with top-down and bottom-up pivots d and r of T - eigenvalue, twist at
    the row k of smallest |d_k + r_k - (T_kk - eigenvalue)|, set v_k = 1
    and run the factors' two-term recurrences outwards.  The similarity
    S[i+1]/S[i] = lower[i]/off[i] back to m is folded into them.  The
    components span hundreds of decades, so each carries its own binary
    exponent until the normalization.  Raises RuntimeError unless
    ||(M - eigenvalue) v||_2 <= 1e-10 * max(||M||_inf, 1).
    """
    diag, off = symmetrize(m)
    n = m.n
    off_sq = tuple(e * e for e in off)
    pivmin = _pivmin(off_sq)
    down = _pivots(diag, off_sq, eigenvalue, pivmin)
    up = _pivots(diag[::-1], off_sq[::-1], eigenvalue, pivmin)[::-1]
    gamma = [d + u - (a - eigenvalue) for d, u, a in zip(down, up, diag)]
    twist = min(range(n), key=lambda i: abs(gamma[i]))

    mantissa, exponent = [0.5] * n, [1] * n  # v[i] = mantissa[i] * 2**exponent[i]
    for i in reversed(range(twist)):
        mantissa[i], e = math.frexp(-m.upper[i] / down[i] * mantissa[i + 1])
        exponent[i] = exponent[i + 1] + e
    for i in range(twist + 1, n):
        mantissa[i], e = math.frexp(-m.lower[i - 1] / up[i] * mantissa[i - 1])
        exponent[i] = exponent[i - 1] + e
    top = max(exponent)
    vec = [math.ldexp(f, e - top) for f, e in zip(mantissa, exponent)]
    scale = math.sqrt(sum(v * v for v in vec))
    vec = [v / scale for v in vec]

    terms = [a - eigenvalue * v for a, v in zip(m.apply(vec), vec)]
    # squared in units of a power of two near the largest term, so no square
    # overflows; the scaling is exact in binary
    unit = 2.0 ** (math.frexp(max(map(abs, terms)))[1] - 1)
    residual = math.sqrt(sum((r / unit) ** 2 for r in terms)) * unit
    if not residual <= 1e-10 * max(m.inf_norm(), 1.0):
        raise RuntimeError(
            f"no eigenvector for {eigenvalue!r}: residual {residual!r}")
    return _fix_sign(vec)


def _pivots(diag, off_sq, shift: float, pivmin: float) -> list[float]:
    """LDL^T pivots of the shifted matrix, clamped as in _sturm_count."""
    out = []
    q = 1.0
    for i, d in enumerate(diag):
        q = (d - shift) if i == 0 else (d - shift) - off_sq[i - 1] / q
        if abs(q) < pivmin:
            q = -pivmin
        out.append(q)
    return out


def _fix_sign(vec: list[float]) -> list[float]:
    # deterministic orientation: first clearly nonzero component positive
    # (an argmax anchor is unstable when two components tie in magnitude)
    peak = max(abs(v) for v in vec)
    first = next(v for v in vec if abs(v) > 0.1 * peak)
    return [-u for u in vec] if first < 0 else vec


def qes_spectrum(params: ModelParams, dim, tol: float = TOL) -> list[float]:
    """Eigenvalues of the terminating n x n block, ascending: the
    truncation at n rows, whose off-diagonal products are all positive."""
    return truncated_spectrum(params, dim, params.n, tol)


def truncated_spectrum(
    params: ModelParams,
    dim,
    n_trunc: int,
    tol: float = TOL,
) -> list[float]:
    """Real eigenvalues of the n_trunc-truncated un-terminated matrix.

    Rows where lower*upper vanishes decouple it into blocks.  With the
    terminating coupling the subdiagonal vanishes exactly at the
    block-size row, so its spectrum contains the whole QES spectrum.
    Beyond that row the subdiagonal changes sign, so a tail of two or
    more rows is non-symmetrizable: its eigenvalues are largely complex
    truncation artifacts of an unbounded recursion and are omitted here.
    A one-row tail (n_trunc = n + 1) has no off-diagonal product, and its
    entry beta*(4n + 2k + D) is bisected and reported.  Only blocks whose
    off-diagonal products are all positive contribute, each bisected
    whole.
    """
    matrix = TridiagonalReal.from_exact(general_matrix(n_trunc, params, dim))
    blocks = [b for b in _irreducible_blocks(matrix)
              if all(lo * up > 0.0 for lo, up in zip(b.lower, b.upper))]
    return sorted(v for block in blocks
                  for v in bisection_eigenvalues(*symmetrize(block), tol))


class RadialWavefunction(NamedTuple):
    """Terminating bound-state wavefunction in the numeric layer.

    psi(r) = sum_n h[n] * r^(2n + ell + 1) * exp(-beta*r^2/2 - gamma*r^4/4)
    """

    h: tuple[float, ...]
    beta: float
    gamma: float
    ell: float

    def value(self, r: float) -> float:
        if r <= 0:
            raise ValueError("radius must be positive")
        try:
            envelope = math.exp(-0.5 * self.beta * r * r - 0.25 * self.gamma * r**4)
            poly = 0.0
            for coeff in reversed(self.h):
                poly = poly * r * r + coeff
            psi = poly * r ** (self.ell + 1.0) * envelope
        except OverflowError:
            psi = math.inf
        if not math.isfinite(psi):
            raise ValueError(f"psi({r!r}) is beyond the float64 range")
        return psi


def radial_wavefunction(
    params: ModelParams, dim, state: int
) -> tuple[RadialWavefunction, float]:
    """Taylor coefficients of the chosen bound state, the eigenvector of
    the model matrix, plus its energy.  States are indexed by ascending
    energy.

    Only the chosen eigenvalue is bisected, at :data:`TOL`, the default
    of :func:`qes_spectrum` and of the CLI: bit for bit their entry.  One twisted factorization gives the
    eigenvector for every N, exactly [1.0] at N = 1.  A matrix that
    splits into blocks has no eigenvector of its symmetric form and
    raises ValueError, as in :func:`inverse_iteration`.
    """
    if not 0 <= state < params.n:
        raise IndexError(f"state must be in 0..{params.n - 1}")
    matrix = TridiagonalReal.from_exact(qes_matrix(params, dim))
    energy = bisection_eigenvalues(*symmetrize(matrix), index=state)[0]
    wf = RadialWavefunction(
        h=tuple(inverse_iteration(matrix, energy)),
        beta=float(params.beta),
        gamma=float(params.gamma),
        ell=float(params.ell(dim)),
    )
    return wf, energy
