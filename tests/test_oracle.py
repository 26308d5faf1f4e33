"""Tests for the floating-point cross-check solver."""

import json
import math
import random
import sys
from fractions import Fraction

import pytest

from qes_sextic import oracle
from qes_sextic.kac import kac_eigenvalues, kac_involution
from qes_sextic.model import ModelParams, general_matrix, qes_coupling, qes_matrix
from qes_sextic.oracle import (
    TridiagonalReal,
    bisection_eigenvalues,
    inverse_iteration,
    qes_spectrum,
    radial_wavefunction,
    symmetrize,
    truncated_spectrum,
)


def kac_tridiagonal(n):
    """The Kac matrix: zero diagonal, subdiagonal n-i and superdiagonal i+1
    at row i."""
    return TridiagonalReal.from_exact((
        tuple(Fraction(n - i) for i in range(1, n)),
        (Fraction(0),) * n,
        tuple(Fraction(i + 1) for i in range(n - 1)),
    ))


def test_symmetrize_example():
    m = TridiagonalReal(diag=(3.0, 7.0), lower=(-4.0,), upper=(-6.0,))
    diag, off = symmetrize(m)
    assert diag == (3.0, 7.0)
    assert off == (math.sqrt(24.0),)


def test_symmetrize_keeps_symmetric_input():
    m = TridiagonalReal(diag=(1.0, 2.0, 3.0), lower=(0.5, 0.25), upper=(0.5, 0.25))
    diag, off = symmetrize(m)
    assert diag == (1.0, 2.0, 3.0)
    assert off == (0.5, 0.25)


def test_symmetrize_rejects_nonpositive_products():
    with pytest.raises(ValueError):
        symmetrize(TridiagonalReal(diag=(0.0, 0.0), lower=(0.0,), upper=(1.0,)))
    with pytest.raises(ValueError):
        symmetrize(TridiagonalReal(diag=(0.0, 0.0), lower=(-1.0,), upper=(1.0,)))


def test_bisection_two_by_two():
    values = bisection_eigenvalues((0.0, 0.0), (1.0,), 1e-12)
    assert values[0] == pytest.approx(-1.0, abs=1e-12)
    assert values[1] == pytest.approx(1.0, abs=1e-12)


def test_bisection_on_limit_matrix():
    m = kac_tridiagonal(4)
    values = bisection_eigenvalues(*symmetrize(m), 1e-12)
    for got, want in zip(values, (-3.0, -1.0, 1.0, 3.0)):
        assert got == pytest.approx(want, abs=1e-11)


def test_bisection_near_the_float64_limit():
    # midpoints of brackets near 1e308 must not overflow; bounds beyond
    # the float64 range are rejected rather than bisected
    values = bisection_eigenvalues((1e308, 1e308), (1e100,), 1e-12)
    assert values == pytest.approx([1e308 - 1e100, 1e308 + 1e100], rel=1e-15)
    with pytest.raises(ValueError):
        bisection_eigenvalues((sys.float_info.max,), (), 1e-12)


def test_bisection_matches_dense_reference():
    # reference: eigenvalues as roots of the characteristic polynomial
    # computed by bisection on its sign changes (independent of the
    # Sturm-count implementation)
    rng = random.Random(808)
    for _ in range(10):
        n = rng.randint(2, 7)
        diag = tuple(rng.uniform(-5, 5) for _ in range(n))
        off = tuple(rng.uniform(0.2, 3.0) for _ in range(n - 1))

        def charpoly(x):
            p_prev, p = 1.0, diag[0] - x
            for i in range(1, n):
                p_prev, p = p, (diag[i] - x) * p - off[i - 1] ** 2 * p_prev
            return p

        got = bisection_eigenvalues(diag, off, 1e-10)
        for value in got:
            assert abs(charpoly(value)) <= 1e-5 * max(
                1.0, abs(charpoly(value + 1.0)), abs(charpoly(value - 1.0))
            )
        # count and separation: n simple roots
        assert len(got) == n
        for a, b in zip(got, got[1:]):
            assert b - a > 1e-9


def _final_brackets(diag, off, tol):
    # reference: a separate bisection from the Gershgorin bracket for each
    # index, with the same width test, step cap and Sturm count
    n = len(diag)
    off_sq = tuple(e * e for e in off)
    pivmin = sys.float_info.min * max(1.0, max(off_sq, default=1.0))
    radii = [(abs(off[i - 1]) if i else 0.0) + (abs(off[i]) if i < n - 1 else 0.0)
             for i in range(n)]
    glo = min(d - r for d, r in zip(diag, radii))
    ghi = max(d + r for d, r in zip(diag, radii))
    margin = tol + sys.float_info.epsilon * max(abs(glo), abs(ghi), 1.0)
    brackets = []
    for k in range(n):
        lo, hi = glo - margin, ghi + margin
        for _ in range(300):
            if hi - lo <= tol + 2.0 * sys.float_info.epsilon * max(abs(lo), abs(hi)):
                break
            mid = 0.5 * (lo + hi)
            if oracle._sturm_count(diag, off_sq, mid, pivmin) >= k + 1:
                hi = mid
            else:
                lo = mid
        brackets.append((lo, hi))
    return brackets


def _bisection_per_eigenvalue(diag, off, tol):
    return [0.5 * (lo + hi) for lo, hi in _final_brackets(diag, off, tol)]


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("n,dim,tol", [(50, 3, 1e-12), (200, 100, 1e-12), (120, 7, 1e-3)])
def test_whole_spectrum_equals_bisection_per_eigenvalue(n, dim, tol, noisy,
                                                          monkeypatch):
    if noisy:
        # counts that are not monotone in x, as rounding can make them
        count = oracle._sturm_count

        def noisy_count(diag, off_sq, x, pivmin):
            c = count(diag, off_sq, x, pivmin)
            return c + hash(x) % 3 - 1 if 0 < c < len(diag) else c

        monkeypatch.setattr(oracle, "_sturm_count", noisy_count)
    p = ModelParams(n, 1, Fraction(3, 2), Fraction(1, 2))
    diag, off = symmetrize(TridiagonalReal.from_exact(qes_matrix(p, dim)))
    got = bisection_eigenvalues(diag, off, tol)
    assert [v.hex() for v in got] == [
        v.hex() for v in _bisection_per_eigenvalue(diag, off, tol)]


def _hex(values):
    return [v.hex() for v in values]


def _plain_descent(diag, off, tol, monkeypatch):
    # reference: the plain bisections, which compute every count, reached
    # as the fallback when QL gives no estimates
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_ql_eigenvalues", lambda diag, off_sq: None)
        return bisection_eigenvalues(diag, off, tol)


def _spy_descents(monkeypatch):
    # records (steered, returned None) for every steered run; the plain
    # bisections run exactly when there is none or it returned None
    runs = []
    steered = oracle._steered

    def steered_spy(*args):
        values = steered(*args)
        runs.append((True, values is None))
        return values

    monkeypatch.setattr(oracle, "_steered", steered_spy)
    return runs


def _model(n, k, beta, gamma, dim):
    params = ModelParams(n, k, Fraction(beta), Fraction(gamma))
    return symmetrize(TridiagonalReal.from_exact(qes_matrix(params, dim)))


MODEL_MATRICES = [
    (800, 1, 2, 1, 100, 1e-12),
    (400, 3, 1, 1, 1000, 1e-12),
    (300, 0, Fraction(3, 4), Fraction(1, 2), 3, 1e-12),
    (200, 0, 1, 1, 3, 1e-12),
    (120, 0, Fraction(1, 4), Fraction(1, 4), 100, 1e-12),
    (400, 0, 1, 1, 30, 1e-12),
    (250, 2, 5, Fraction(1, 4), 10000, 1e-12),
    (200, 1, Fraction(1, 4), 6, Fraction(7, 2), 1e-12),
    (400, 0, 1, 1, 30, 1e-3),
]


def _reference_sturm_count(diag, off_sq, x, pivmin):
    # the seed's kernel: clamp and count in two separate tests
    count = 0
    q = 1.0
    for i, d in enumerate(diag):
        q = (d - x) if i == 0 else (d - x) - off_sq[i - 1] / q
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


@pytest.mark.parametrize("n,k,beta,gamma,dim,tol", MODEL_MATRICES)
def test_sturm_count_equals_the_reference_kernel(n, k, beta, gamma, dim, tol):
    diag, off = _model(n, k, beta, gamma, dim)
    off_sq = tuple(e * e for e in off)
    pivmin = oracle._pivmin(off_sq)
    rng = random.Random(n + k)
    radius = 2.0 * max(off)
    xs = [rng.uniform(min(diag) - radius, max(diag) + radius) for _ in range(60)]
    tiny = sys.float_info.min
    xs += [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           tiny / 4, -tiny / 4, pivmin, -pivmin, pivmin / 2, -pivmin / 2, *diag]
    # with d_0 = +-0.0 the first pivot at x = 0.0, +-pivmin or +-pivmin/2
    # is exactly +-0.0, -+pivmin or inside the clamp, and so is the last
    # one with d_(n-1) = 0.0 and off_sq[n-2] = 0.0; with d_m set to
    # off_sq[m-1] / q_(m-1), pivot m at x = 0.0 is exactly 0.0
    m = n // 2
    q = oracle._pivots(diag, off_sq, 0.0, pivmin)[m - 1]
    variants = [
        (diag, off_sq),
        ((0.0,) + diag[1:], off_sq),
        ((-0.0,) + diag[1:], off_sq),
        (diag[:-1] + (0.0,), off_sq[:-1] + (0.0,)),
        (diag[:m] + (off_sq[m - 1] / q,) + diag[m + 1:], off_sq),
    ]
    for d, e in variants:
        for x in xs:
            assert oracle._sturm_count(d, e, x, pivmin) == (
                _reference_sturm_count(d, e, x, pivmin)), (d[0], d[-1], x)


@pytest.mark.parametrize("n,k,beta,gamma,dim,tol", MODEL_MATRICES)
def test_steered_search_gives_the_plain_descent_bit_for_bit(
        n, k, beta, gamma, dim, tol, monkeypatch):
    diag, off = _model(n, k, beta, gamma, dim)
    want = _hex(_plain_descent(diag, off, tol, monkeypatch))
    runs = _spy_descents(monkeypatch)
    assert _hex(bisection_eigenvalues(diag, off, tol)) == want
    assert runs == [(True, False)]  # no fallback


def test_steered_search_bit_for_bit_on_general_blocks(monkeypatch):
    p = ModelParams(200, 1, Fraction(3, 2), Fraction(1, 2))
    m = TridiagonalReal.from_exact(general_matrix(260, p, 3))
    blocks = [b for b in oracle._irreducible_blocks(m)
              if all(lo * up > 0.0 for lo, up in zip(b.lower, b.upper))]
    assert blocks
    for block in blocks:
        diag, off = symmetrize(block)
        want = _hex(_plain_descent(diag, off, 1e-12, monkeypatch))
        assert _hex(bisection_eigenvalues(diag, off, 1e-12)) == want


def _moved(estimates):
    scale = max(abs(e) for e in estimates)
    j = len(estimates) // 2
    return estimates[:j] + [estimates[j] + 1e-6 * scale] + estimates[j + 1:]


def _dropped(estimates):
    return estimates[:len(estimates) // 2] + estimates[len(estimates) // 2 + 1:]


@pytest.mark.parametrize("wrong,steered", [
    (_dropped, True),
    (lambda estimates: [math.nan] * len(estimates), False),
    (lambda estimates: None, False),  # QL did not converge
])
def test_wrong_estimates_fall_back_to_the_plain_descent(wrong, steered,
                                                        monkeypatch):
    diag, off = _model(200, 1, Fraction(3, 2), Fraction(1, 2), 100)
    want = _hex(_plain_descent(diag, off, 1e-12, monkeypatch))
    ql = oracle._ql_eigenvalues
    monkeypatch.setattr(oracle, "_ql_eigenvalues",
                        lambda diag, off_sq: wrong(ql(diag, off_sq)))
    runs = _spy_descents(monkeypatch)
    assert _hex(bisection_eigenvalues(diag, off, 1e-12)) == want
    # a steered run that gave up, or none: the plain bisections ran
    assert runs == ([(True, True)] if steered else [])


def _count_calls(monkeypatch):
    # the points of every real count taken from now on
    calls = []
    count = oracle._sturm_count

    def counting(diag, off_sq, x, pivmin):
        calls.append(x)
        return count(diag, off_sq, x, pivmin)

    monkeypatch.setattr(oracle, "_sturm_count", counting)
    return calls


def test_a_moved_estimate_is_recovered_in_its_bracket(monkeypatch):
    # the estimate 1e-6 G off still lies in the bracket of its eigenvalue
    # alone, so the steered search gallops back from it
    diag, off = _model(200, 1, Fraction(3, 2), Fraction(1, 2), 100)
    want = _hex(_plain_descent(diag, off, 1e-12, monkeypatch))
    calls = _count_calls(monkeypatch)
    assert _hex(bisection_eigenvalues(diag, off, 1e-12)) == want
    unmoved = len(calls)
    calls.clear()
    ql = oracle._ql_eigenvalues
    monkeypatch.setattr(oracle, "_ql_eigenvalues",
                        lambda diag, off_sq: _moved(ql(diag, off_sq)))
    runs = _spy_descents(monkeypatch)
    assert _hex(bisection_eigenvalues(diag, off, 1e-12)) == want
    assert runs == [(True, False)]  # no fallback
    assert len(calls) <= unmoved + 128


def _steered_bit_for_bit(diag, off, tol, monkeypatch):
    # every estimate k ulps off, and one on an end of a final bracket of
    # plain bisection: the values stay those of plain bisection
    want = _hex(_plain_descent(diag, off, tol, monkeypatch))
    estimates = oracle._ql_eigenvalues(diag, tuple(e * e for e in off))
    c = len(diag) // 2
    lo, hi = _final_brackets(diag, off, tol)[c]
    wrong = [[e + k * math.ulp(e) for e in estimates]
             for k in (0, 1, -1, 2, -2, 7, -7, 2**10, -2**10, 2**30, -2**30)]
    wrong += [estimates[:c] + [end] + estimates[c + 1:] for end in (lo, hi)]
    with monkeypatch.context() as patch:
        for given in wrong:
            patch.setattr(oracle, "_ql_eigenvalues",
                          lambda diag, off_sq: list(given))
            assert _hex(bisection_eigenvalues(diag, off, tol)) == want


def test_steering_under_perturbed_estimates_on_random_matrices(monkeypatch):
    rng = random.Random(2024)  # the matrices of the test below
    for _ in range(60):
        n = rng.randint(1, 30)
        diag = tuple(rng.choice((0.0, 1.0, -1.0)) * 10.0 ** rng.uniform(-8, 8)
                     for _ in range(n))
        off = tuple(10.0 ** rng.uniform(-12, 6) for _ in range(n - 1))
        for tol in (1e-12, 1e-4):
            _steered_bit_for_bit(diag, off, tol, monkeypatch)


@pytest.mark.parametrize("n,k,beta,gamma,dim,tol", [
    MODEL_MATRICES[3], MODEL_MATRICES[4], MODEL_MATRICES[7]])
def test_steering_under_perturbed_estimates(n, k, beta, gamma, dim, tol,
                                            monkeypatch):
    _steered_bit_for_bit(*_model(n, k, beta, gamma, dim), tol, monkeypatch)


def test_steered_search_stays_within_budget(monkeypatch):
    # the plain bisections take 43194 counts here, the steered ones 4341
    diag, off = _model(800, 1, 2, 1, 100)
    calls = _count_calls(monkeypatch)
    bisection_eigenvalues(diag, off, 1e-12)
    assert len(calls) <= 5000


@pytest.mark.parametrize("diag,off", [
    ((3.5,), ()),
    ((0.0, 0.0), (1.0,)),
    ((1.0, 2.0), (0.5,)),
    ((1e308, 1e308), (1e100,)),
    ((1.0, 2.0, 3.0), (1e-170, 1e-200)),  # squares underflow to zero
    ((0.0, 0.0, 1e-300), (1e-160, 1e-161)),  # subnormal squares
    ((1.0, -1.0, 1.0, -1.0), (1e-200, 1.0, 1e-200)),
])
def test_ql_estimates_at_the_edges(diag, off, monkeypatch):
    estimates = oracle._ql_eigenvalues(diag, tuple(e * e for e in off))
    assert estimates is not None and len(estimates) == len(diag)
    assert all(math.isfinite(e) for e in estimates)
    assert _hex(bisection_eigenvalues(diag, off, 1e-12)) == _hex(
        _plain_descent(diag, off, 1e-12, monkeypatch))


def test_steered_search_bit_for_bit_on_random_matrices(monkeypatch):
    # graded and clustered spectra, entries over many decades; in 51 of
    # the 120 cases a final bracket holds repeated values, which the
    # steered search accepts as it is
    rng = random.Random(2024)
    runs = _spy_descents(monkeypatch)
    for _ in range(60):
        n = rng.randint(1, 30)
        diag = tuple(rng.choice((0.0, 1.0, -1.0)) * 10.0 ** rng.uniform(-8, 8)
                     for _ in range(n))
        off = tuple(10.0 ** rng.uniform(-12, 6) for _ in range(n - 1))
        for tol in (1e-12, 1e-4):
            estimates = oracle._ql_eigenvalues(diag, tuple(e * e for e in off))
            assert estimates is not None
            assert all(math.isfinite(e) for e in estimates)
            want = _hex(_plain_descent(diag, off, tol, monkeypatch))
            runs.clear()
            assert _hex(bisection_eigenvalues(diag, off, tol)) == want
            assert runs == [(True, False)]  # no fallback


def _check_indices(diag, off, tol):
    # single indices at both ends, a third and the middle are bit for bit
    # their entries of the whole spectrum
    n = len(diag)
    want = _hex(bisection_eigenvalues(diag, off, tol))
    for index in (0, n // 3, n // 2, n - 1):
        assert _hex(bisection_eigenvalues(diag, off, tol, index)) == (
            [want[index]]), index


@pytest.mark.parametrize("n,k,beta,gamma,dim,tol", MODEL_MATRICES)
def test_one_index_is_its_entry_of_the_spectrum(n, k, beta, gamma, dim, tol):
    _check_indices(*_model(n, k, beta, gamma, dim), tol)


def test_one_index_is_its_entry_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 30)
        diag = tuple(rng.choice((0.0, 1.0, -1.0)) * 10.0 ** rng.uniform(-8, 8)
                     for _ in range(n))
        off = tuple(10.0 ** rng.uniform(-12, 6) for _ in range(n - 1))
        for tol in (1e-12, 1e-4):
            _check_indices(diag, off, tol)


@pytest.mark.parametrize("n,dim,tol", [(50, 3, 1e-12), (200, 100, 1e-12),
                                       (120, 7, 1e-3)])
def test_single_index_equals_bisection_per_eigenvalue_under_noisy_counts(
        n, dim, tol, monkeypatch):
    count = oracle._sturm_count

    def noisy_count(diag, off_sq, x, pivmin):
        c = count(diag, off_sq, x, pivmin)
        return c + hash(x) % 3 - 1 if 0 < c < len(diag) else c

    monkeypatch.setattr(oracle, "_sturm_count", noisy_count)
    diag, off = _model(n, 1, Fraction(3, 2), Fraction(1, 2), dim)
    want = _hex(_bisection_per_eigenvalue(diag, off, tol))
    for state in (0, n // 2, n - 1):
        got = bisection_eigenvalues(diag, off, tol, state)
        assert _hex(got) == [want[state]], state


def _check_resolution(diag, off, tol):
    # both bisections end in brackets around the same jump of the count,
    # so a value at tol and one at a tighter tol differ by at most the sum
    # of their resolutions
    tight = tol / 1024
    for v, w in zip(bisection_eigenvalues(diag, off, tol),
                    bisection_eigenvalues(diag, off, tight)):
        assert abs(v - w) <= oracle.resolution(v, tol) + oracle.resolution(
            w, tight), (v, w, tol)


@pytest.mark.parametrize("n,k,beta,gamma,dim,tol",
                         [row for row in MODEL_MATRICES if row[0] <= 400])
def test_values_at_two_tolerances_agree_within_their_resolutions(
        n, k, beta, gamma, dim, tol):
    _check_resolution(*_model(n, k, beta, gamma, dim), tol)


def test_values_at_two_tolerances_agree_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 30)
        diag = tuple(rng.choice((0.0, 1.0, -1.0)) * 10.0 ** rng.uniform(-8, 8)
                     for _ in range(n))
        off = tuple(10.0 ** rng.uniform(-12, 6) for _ in range(n - 1))
        for tol in (1e-12, 1e-4, 1.0):
            _check_resolution(diag, off, tol)


@pytest.mark.parametrize("index", [-1, 4, 5, 1.5, 2.0])
def test_index_must_lie_within_the_spectrum(index):
    # a float must not pick an eigenvalue, even an integral one
    with pytest.raises(ValueError):
        bisection_eigenvalues((1.0, 2.0, 3.0, 4.0), (0.5, 0.5, 0.5), 1e-12,
                              index)


@pytest.mark.parametrize("offdiag", [(), (0.5, 0.5), (0.5,) * 4])
def test_offdiagonal_must_have_length_n_minus_one(offdiag):
    with pytest.raises(ValueError, match="off-diagonal"):
        bisection_eigenvalues((1.0, 2.0, 3.0, 4.0), offdiag)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError):
        bisection_eigenvalues((0.0, 0.0), (1.0,), tol)


def test_spectrum_is_simple_for_model_matrices():
    for n, k in ((2, 0), (4, 1), (6, 2)):
        p = ModelParams(n, k, Fraction(1), Fraction(1))
        values = qes_spectrum(p, 5, 1e-12)
        assert len(values) == n
        for a, b in zip(values, values[1:]):
            assert b - a > 1e-6


def test_block_splitting_at_zero_coupling():
    # lower*upper == 0 decouples the matrix into blocks
    m = TridiagonalReal(
        diag=(1.0, 2.0, 10.0, 11.0),
        lower=(0.5, 0.0, 0.5),
        upper=(0.5, 3.0, 0.5),
    )
    assert [(b.diag, b.lower, b.upper) for b in oracle._irreducible_blocks(m)] == [
        ((1.0, 2.0), (0.5,), (0.5,)), ((10.0, 11.0), (0.5,), (0.5,))]


def test_symmetrize_rejects_a_negative_superdiagonal_product():
    m = TridiagonalReal(diag=(0.0, 0.0), lower=(1.0,), upper=(-1.0,))
    with pytest.raises(ValueError):
        symmetrize(m)


@pytest.mark.parametrize("n,k,beta,gamma,dim", [
    (2, 0, 1, 1, 3),
    (5, 1, Fraction(3, 2), Fraction(1, 2), Fraction(7, 2)),
    (30, 2, 2, Fraction(1, 4), 100),
])
def test_truncated_spectrum_blocks(n, k, beta, gamma, dim):
    # the kept blocks: the QES block alone, bit for bit, except at n + 1,
    # where the 1x1 tail block beta*(4n+2k+D) beyond the zero at row n
    # is symmetric too and adds its bisected entry
    p = ModelParams(n, k, Fraction(beta), Fraction(gamma))
    want = bisection_eigenvalues(
        *symmetrize(TridiagonalReal.from_exact(qes_matrix(p, dim))))
    assert _hex(qes_spectrum(p, dim)) == _hex(want)
    for n_trunc in (n, n + 2, n + 40):
        assert _hex(truncated_spectrum(p, dim, n_trunc)) == _hex(want), n_trunc
    rest = truncated_spectrum(p, dim, n + 1)
    assert len(rest) == n + 1
    for value in want:
        rest.remove(value)
    assert rest == [pytest.approx(float(p.beta * (4 * n + 2 * k + dim)),
                                  rel=1e-9)]


def test_qes_spectrum_of_a_matrix_that_splits():
    # at gamma = D = 1e-200 the first off-diagonal product underflows to
    # 0.0, so the QES matrix splits into blocks of 1 and 5 rows; every
    # eigenvalue lies within tol of its diagonal entry beta*(4m + D)
    tiny = Fraction(1, 10 ** 200)
    p = ModelParams(6, 0, Fraction(1), tiny)
    m = TridiagonalReal.from_exact(qes_matrix(p, tiny))
    assert [b.n for b in oracle._irreducible_blocks(m)] == [1, 5]
    values = qes_spectrum(p, tiny, 1e-12)
    assert len(values) == 6 and values == sorted(values)
    for row, value in enumerate(values):
        assert abs(value - float(p.beta * (4 * row + tiny))) <= 1e-12


def test_characteristic_polynomial_preserved_by_symmetrization():
    # exact char-poly coefficients of the rational matrix vs the float
    # recurrence on the symmetrized data; the recurrence only sees the
    # off-diagonal products, which symmetrization preserves
    for n, k in ((2, 0), (3, 1), (4, 0), (5, 2)):
        p = ModelParams(n, k, Fraction(1), Fraction(1))
        q = qes_matrix(p, 7)
        lower, q_diag, upper = q

        exact = [Fraction(1)]  # leading coefficient of p_0
        polys = [[Fraction(1)], [-q_diag[0], Fraction(1)]]
        for i in range(1, n):
            d = q_diag[i]
            prod = lower[i - 1] * upper[i - 1]
            nxt = [Fraction(0)] * (i + 2)
            for m_idx, c in enumerate(polys[-1]):
                nxt[m_idx + 1] += c
                nxt[m_idx] += -d * c
            for m_idx, c in enumerate(polys[-2]):
                nxt[m_idx] += -prod * c
            polys.append(nxt)
        exact = polys[-1]

        tri = TridiagonalReal.from_exact(q)
        diag, off = symmetrize(tri)
        numeric = [1.0]
        prev, curr = [1.0], [-diag[0], 1.0]
        for i in range(1, n):
            nxt = [0.0] * (i + 2)
            for m_idx, c in enumerate(curr):
                nxt[m_idx + 1] += c
                nxt[m_idx] += -diag[i] * c
            for m_idx, c in enumerate(prev):
                nxt[m_idx] += -(off[i - 1] ** 2) * c
            prev, curr = curr, nxt
        numeric = curr

        for ec, nc in zip(exact, numeric):
            assert nc == pytest.approx(float(ec), rel=1e-10, abs=1e-10)


def test_inverse_iteration_single_state():
    m = TridiagonalReal(diag=(5.0,), lower=(), upper=())
    assert inverse_iteration(m, 5.0) == [1.0]


def test_inverse_iteration_limit_matrix_direction():
    m = kac_tridiagonal(3)
    vec = inverse_iteration(m, 2.0)
    expected = [1.0 / math.sqrt(6), 2.0 / math.sqrt(6), 1.0 / math.sqrt(6)]
    for got, want in zip(vec, expected):
        assert got == pytest.approx(want, abs=1e-9)


def test_inverse_iteration_residual_bound():
    p = ModelParams(2, 0, Fraction(1), Fraction(1))
    m = TridiagonalReal.from_exact(qes_matrix(p, 3))
    eigenvalue = qes_spectrum(p, 3)[0]
    vec = inverse_iteration(m, eigenvalue)
    applied = m.apply(vec)
    residual = math.sqrt(
        sum((a - eigenvalue * v) ** 2 for a, v in zip(applied, vec))
    )
    assert residual <= 1e-10 * m.inf_norm()


def test_inverse_iteration_rejects_inaccurate_eigenvalue():
    # the one-step vector is only returned when it meets the residual bound
    m = kac_tridiagonal(3)
    with pytest.raises(RuntimeError):
        inverse_iteration(m, 1.0)


def test_eigenvector_matches_exact_column():
    # the limit matrix has exactly known integer eigenvectors
    dec = kac_involution(5)
    m = kac_tridiagonal(5)
    for j, z in enumerate(kac_eigenvalues(5)):
        vec = inverse_iteration(m, float(z))
        column = [float(dec.m[i][j]) for i in range(5)]
        norm = math.sqrt(sum(c * c for c in column))
        column = [c / norm for c in column]
        # compare up to overall sign
        direct = max(abs(g - w) for g, w in zip(vec, column))
        flipped = max(abs(g + w) for g, w in zip(vec, column))
        assert min(direct, flipped) <= 1e-9


def test_single_state_spectrum_exact():
    p = ModelParams(1, 2, Fraction(5, 2), Fraction(1))
    assert qes_spectrum(p, 9)[0] == pytest.approx(float(Fraction(5, 2) * 13), abs=1e-12)


def test_wavefunction_residual_against_radial_equation():
    # finite-difference residual of the second-order ODE at sampled radii,
    # relative to the size of the equation's individual terms
    p = ModelParams(2, 0, Fraction(1), Fraction(1))
    d = 3
    wf, energy = radial_wavefunction(p, d, state=0)
    a = float(qes_coupling(p, d))
    b = 2.0 * float(p.beta) * float(p.gamma)
    c = float(p.gamma) ** 2
    ell = wf.ell

    h = 2.5e-4
    worst_rel = 0.0
    for r in [0.5 + 0.1 * i for i in range(16)]:
        psi = wf.value(r)
        second = (wf.value(r + h) - 2.0 * psi + wf.value(r - h)) / (h * h)
        potential = ell * (ell + 1) / (r * r) + a * r**2 + b * r**4 + c * r**6
        residual = -second + potential * psi - energy * psi
        scale = max(abs(second), abs(potential * psi), abs(energy * psi))
        worst_rel = max(worst_rel, abs(residual) / scale)
    assert worst_rel <= 1e-6


def test_wavefunction_coefficients_solve_exact_system():
    # h must satisfy the terminating three-term recursion: Q h = E h
    p = ModelParams(4, 1, Fraction(1), Fraction(2))
    wf, energy = radial_wavefunction(p, 5, state=2)
    m = TridiagonalReal.from_exact(qes_matrix(p, 5))
    applied = m.apply(list(wf.h))
    for got, hv in zip(applied, wf.h):
        assert got == pytest.approx(energy * hv, abs=1e-8)


@pytest.mark.parametrize("n,beta,gamma,dim,states", [
    (1, 2, 1, 9, range(1)),
    (2, 1, 1, 3, range(2)),
    (7, Fraction(3, 2), Fraction(1, 2), Fraction(7, 2), range(7)),
    (200, 1, 1, 100, (0, 100, 199)),
    (120, Fraction(1, 4), Fraction(1, 4), 100, (60,)),
])
def test_wavefunction_energy_is_the_spectrum_entry(n, beta, gamma, dim, states,
                                                  capsys):
    # the library's and the CLI's default tolerance is the one TOL
    from qes_sextic import cli

    p = ModelParams(n, 0, Fraction(beta), Fraction(gamma))
    spectrum = qes_spectrum(p, dim)
    assert cli.main(["spectrum", "-N", str(n), "--beta", str(beta),
                     "--gamma", str(gamma), "-D", str(dim)]) == 0
    printed = json.loads(capsys.readouterr().out)["numeric"]
    assert printed["tol"] == oracle.TOL
    assert _hex(printed["eigenvalues"]) == _hex(spectrum)
    for state in states:
        _, energy = radial_wavefunction(p, dim, state)
        assert energy.hex() == spectrum[state].hex(), state


def test_wavefunction_bisects_its_state_alone(monkeypatch):
    # the whole spectrum takes 1651 counts and one QL iteration here
    calls = 0
    count = oracle._sturm_count

    def counting(*args):
        nonlocal calls
        calls += 1
        return count(*args)

    def no_ql(diag, off_sq):
        raise AssertionError("QL estimates of the whole spectrum")

    monkeypatch.setattr(oracle, "_sturm_count", counting)
    monkeypatch.setattr(oracle, "_ql_eigenvalues", no_ql)
    radial_wavefunction(ModelParams(200, 0, Fraction(1), Fraction(1)), 100, 100)
    assert calls <= 64


def test_wavefunction_of_a_split_matrix_is_rejected(monkeypatch):
    # a zero coupling splits the spectrum into blocks, but no eigenvector
    # of the symmetric form exists across them
    diagonals = ((Fraction(1), Fraction(0), Fraction(1)),
                 (Fraction(5), Fraction(1), Fraction(4), Fraction(0)),
                 (Fraction(1),) * 3)
    monkeypatch.setattr(oracle, "qes_matrix", lambda params, dim: diagonals)
    p = ModelParams(4, 0, Fraction(1), Fraction(1))
    for state in range(4):
        with pytest.raises(ValueError, match="product 0.0"):
            radial_wavefunction(p, 3, state)


def _dense_shifted_solver(m: TridiagonalReal, shift: float):
    """Reference: dense LU with partial pivoting of (M - shift*I)."""
    n = m.n
    a = [[0.0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = m.diag[i] - shift
        if i > 0:
            a[i][i - 1] = m.lower[i - 1]
        if i + 1 < n:
            a[i][i + 1] = m.upper[i]
    perm = list(range(n))
    tiny = sys.float_info.epsilon * max(m.inf_norm(), abs(shift), 1.0)
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            perm[col], perm[pivot_row] = perm[pivot_row], perm[col]
        pivot = a[col][col]
        if abs(pivot) < tiny:
            pivot = tiny if pivot >= 0 else -tiny
            a[col][col] = pivot
        for row in range(col + 1, n):
            factor = a[row][col] / pivot
            a[row][col] = factor
            for j in range(col + 1, n):
                a[row][j] -= factor * a[col][j]

    def solve(b: list[float]) -> list[float]:
        y = [b[perm[i]] for i in range(n)]
        for i in range(n):
            for j in range(i):
                y[i] -= a[i][j] * y[j]
        x = y[:]
        for i in reversed(range(n)):
            for j in range(i + 1, n):
                x[i] -= a[i][j] * x[j]
            x[i] /= a[i][i]
        return x

    return solve


def _residual(m: TridiagonalReal, eigenvalue: float, vec: list[float]) -> float:
    return math.sqrt(
        sum((a - eigenvalue * v) ** 2 for a, v in zip(m.apply(vec), vec))
    )


def _reference_inverse_iteration(m: TridiagonalReal, eigenvalue: float):
    """Classical inverse iteration on the asymmetric matrix with the dense
    LU: a flat start, then a random one, 50 steps each.  Returns the unit
    vector, or None where it does not reach the residual bound."""
    n = m.n
    target = 1e-10 * max(m.inf_norm(), 1.0)
    solve = _dense_shifted_solver(m, eigenvalue)
    rng = random.Random(12345)
    for start in ([1.0] * n, [rng.uniform(-1.0, 1.0) for _ in range(n)]):
        vec = start
        for _ in range(50):
            new = solve(vec)
            scale = math.sqrt(sum(v * v for v in new))
            if scale == 0.0 or not math.isfinite(scale):
                break
            vec = [v / scale for v in new]
            if _residual(m, eigenvalue, vec) <= target:
                return vec
    return None


def _check_against_dense_reference(p: ModelParams, dim, states):
    # the one-pass eigenvector meets the residual bound on the asymmetric
    # matrix, and equals the reference up to sign wherever that converges
    m = TridiagonalReal.from_exact(qes_matrix(p, dim))
    values = qes_spectrum(p, dim)
    for state in states:
        vec = inverse_iteration(m, values[state])
        assert all(math.isfinite(v) for v in vec)
        assert _residual(m, values[state], vec) <= 1e-10 * m.inf_norm()
        reference = _reference_inverse_iteration(m, values[state])
        if reference is not None:
            assert min(
                max(abs(a - b) for a, b in zip(vec, reference)),
                max(abs(a + b) for a, b in zip(vec, reference)),
            ) <= 1e-12


# (N, D, states) on k=0, beta=gamma=1; the reference does not converge at
# N=200 for state 100 at D=3 and for states 0, 100, 199 at D=100 and 1000
LU_GRID = [
    (1, 3, (0,)),
    (2, 3, (0, 1)),
    (5, 100, (0, 2, 4)),
    (50, 3, (0, 25, 49)),
    (110, 100, (0, 55, 109)),
    (200, 3, (0, 100, 199)),
    (200, 100, (0, 100, 199)),
    (200, 1000, (0, 100, 199)),
]


@pytest.mark.parametrize("n,dim,states", LU_GRID)
def test_tridiagonal_lu_matches_dense_reference(n, dim, states):
    # the twisted factorization is a pair of tridiagonal LU factorizations
    # (top-down LDL^T and bottom-up UDU^T); the reference is the dense LU
    _check_against_dense_reference(ModelParams(n, 0, Fraction(1), Fraction(1)),
                                   dim, states)


def test_tridiagonal_lu_matches_dense_reference_small_gamma():
    # the reference does not converge on these states
    _check_against_dense_reference(
        ModelParams(120, 0, Fraction(1, 4), Fraction(1, 4)), 100, (30, 60, 90))
