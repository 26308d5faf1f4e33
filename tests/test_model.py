"""Tests for the model matrices, the lambda-split and the energy map."""

import math
import random
from fractions import Fraction

import pytest

from qes_sextic.exact import TPoly
from qes_sextic.model import (
    ModelParams,
    general_matrix,
    qes_coupling,
    qes_matrix,
)
from qes_sextic.oracle import RadialWavefunction, qes_spectrum, truncated_spectrum
from qes_sextic.rspt import energy_series, perturbation_series
from reference import (
    evaluate_float,
    perturbation_split,
    split_reassembly_residual,
    t_float,
)


def params(n=2, k=0, beta=1, gamma=1):
    return ModelParams(n, k, Fraction(beta), Fraction(gamma))


def test_parameter_validation():
    with pytest.raises(ValueError):
        ModelParams(0, 0, Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        ModelParams(2, -1, Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        ModelParams(2, 0, Fraction(-1), Fraction(1))
    with pytest.raises(ValueError):
        ModelParams(2, 0, Fraction(1), Fraction(0))
    with pytest.raises(TypeError):
        ModelParams(2, 0, 1.0, Fraction(1))
    # the model's other size checks
    with pytest.raises(ValueError, match="truncation size"):
        general_matrix(0, params(2, 0), 3)
    for build in (qes_coupling, qes_matrix, lambda p, d: general_matrix(3, p, d)):
        for dim in (0, -1, Fraction(-1, 2)):
            with pytest.raises(ValueError, match="dimension D must be positive"):
                build(params(2, 0), dim)
    with pytest.raises(ValueError, match="rho"):
        split_reassembly_residual(params(2, 0), 0)


def test_exact_t_detection():
    # beta^2/(2*gamma) = 1 when beta=1, gamma=1/2
    assert params(beta=1, gamma=Fraction(1, 2)).exact_t() == 1
    assert params(beta=3, gamma=Fraction(1, 2)).exact_t() == 3
    assert params(beta=1, gamma=1).exact_t() is None  # t = 1/sqrt(2)
    assert params(beta=2, gamma=Fraction(9, 8)).exact_t() == Fraction(4, 3)


def test_coupling_values():
    assert qes_coupling(params(2, 0), 3) == -8
    assert qes_coupling(params(1, 0), 3) == -4
    assert qes_coupling(params(6, 2, beta=1, gamma=2), 5) == -61


def test_single_state_matrix():
    for k, beta, d in [(0, 1, 3), (3, 2, 5), (1, Fraction(1, 2), 7)]:
        lower, diag, upper = qes_matrix(params(1, k, beta=beta), d)
        assert lower == () and upper == ()
        assert diag == (Fraction(beta) * (2 * k + d),)


def test_two_state_matrix_entries():
    # [[3, -6], [-4, 7]] as (subdiagonal, diagonal, superdiagonal)
    assert qes_matrix(params(2, 0), 3) == ((-4,), (3, 7), (-6,))


def test_qes_matrix_is_three_exact_diagonals_at_large_n():
    lower, diag, upper = qes_matrix(params(10_000, 0), 10)
    assert (len(lower), len(diag), len(upper)) == (9_999, 10_000, 9_999)
    assert all(type(e) is Fraction for e in lower + diag + upper)
    assert (lower[0], diag[0], upper[0]) == (4 * (1 - 10_000), 10, -20)


def test_two_state_eigenvalues_match_quadratic_formula():
    # char poly of [[3,-6],[-4,7]] is E^2 - 10E - 3, roots 5 +/- 2*sqrt(7)
    lo, hi = qes_spectrum(params(2, 0), 3)
    assert lo == pytest.approx(5 - 2 * math.sqrt(7), abs=1e-11)
    assert hi == pytest.approx(5 + 2 * math.sqrt(7), abs=1e-11)


def test_general_matrix_terminating_row_vanishes():
    p = params(3, 1, beta=Fraction(2, 3), gamma=Fraction(5, 4))
    d = Fraction(7, 2)
    g_lower, g_diag, g_upper = general_matrix(10, p, d)
    assert g_lower[p.n - 1] == 0  # exact zero, not small
    # and the terminating block equals the dedicated constructor
    q_lower, q_diag, q_upper = qes_matrix(p, d)
    assert g_lower[:p.n - 1] == q_lower
    assert g_diag[:p.n] == q_diag
    assert g_upper[:p.n - 1] == q_upper


def test_general_matrix_equals_qes_matrix_at_same_size():
    p = params(4, 2, beta=2, gamma=3)
    d = 5
    assert general_matrix(4, p, d) == qes_matrix(p, d)


def test_truncated_spectrum_contains_terminating_block():
    p = params(2, 0)
    exact_pair = [5 - 2 * math.sqrt(7), 5 + 2 * math.sqrt(7)]
    spectrum = truncated_spectrum(p, 3, 42)
    for value in exact_pair:
        deviation = min(abs(g - value) for g in spectrum) / abs(value)
        assert deviation <= 1e-8


@pytest.mark.parametrize("margin", [0, 20, 40])
def test_embedding_at_several_truncation_margins(margin):
    for n, k, beta, gamma, d in [
        (2, 0, 1, 1, 3),
        (3, 1, 2, Fraction(1, 2), 5),
        (5, 2, Fraction(1, 2), 3, Fraction(7, 2)),
    ]:
        p = params(n, k, beta=beta, gamma=gamma)
        block = qes_spectrum(p, d)
        big = truncated_spectrum(p, d, n + margin)
        for value in block:
            deviation = min(abs(g - value) for g in big)
            assert deviation <= 1e-9 * max(1.0, abs(value))


def test_split_small_cases():
    c, zero = TPoly.constant, TPoly.zero()
    s = perturbation_split(params(2, 0))
    assert s.h0 == ((c(-1),), (zero, zero), (c(-1),))
    assert s.h1 == ((zero,), (zero, TPoly((0, 2))), (zero,))
    assert s.h2 == ((zero,), (zero, zero), (zero,))  # superdiagonal -(1)*(0)

    s = perturbation_split(params(3, 1))
    t = TPoly.t()
    assert s.h1[1] == (t, 3 * t, 5 * t)
    assert s.h2 == ((zero, zero), (zero,) * 3, (c(-2), c(-8)))


def test_split_band_structure():
    p = params(5, 2, beta=3, gamma=Fraction(1, 2))
    s = perturbation_split(p)
    n = p.n
    for term in (s.h0, s.h1, s.h2):
        assert tuple(map(len, term)) == (n - 1, n, n - 1)
    for i in range(n):
        assert s.h0[1][i].is_zero
        if i >= 1:
            assert s.h0[0][i - 1] == TPoly.constant(-(n - i))
        if i + 1 < n:
            assert s.h0[2][i] == TPoly.constant(-(i + 1))
            assert s.h2[2][i] == TPoly.constant(-(i + 1) * (2 * i + 2 * p.k))
        assert s.h1[1][i] == TPoly((0, 2 * i + p.k))
        assert s.h1[1][i].degree <= 1
    assert all(e.is_zero for e in s.h1[0] + s.h1[2] + s.h2[0] + s.h2[1])


def test_split_reassembly_is_exactly_zero():
    cases = [
        (params(2, 0), 1),
        (params(2, 0), 2),
        (params(4, 2, beta=Fraction(3, 2), gamma=2), 2),
        (params(6, 1, beta=Fraction(1, 3), gamma=Fraction(5, 4)), 3),
        (params(3, 0, beta=5, gamma=Fraction(7, 3)), 4),
    ]
    for p, rho in cases:
        assert split_reassembly_residual(p, rho).is_zero


def test_reassembled_split_reproduces_numeric_spectrum():
    # fixes all sign conventions: assemble h0 + lam*h1 + lam^2*h2 at
    # D=100, map eigenvalues through the energy formula and compare with
    # the spectrum of the physical matrix
    from qes_sextic.oracle import TridiagonalReal, bisection_eigenvalues, symmetrize

    p = params(4, 0)
    d = 100
    lam = 1.0 / math.sqrt(d)
    t0 = t_float(p)
    s = perturbation_split(p)

    diag = [evaluate_float(e, t0) * lam for e in s.h1[1]]
    lower = [evaluate_float(e, t0) for e in s.h0[0]]
    upper = [
        evaluate_float(a, t0) + evaluate_float(b, t0) * lam * lam
        for a, b in zip(s.h0[2], s.h2[2])
    ]
    eps_values = bisection_eigenvalues(
        *symmetrize(TridiagonalReal(tuple(diag), tuple(lower), tuple(upper)))
    )
    # E = beta*D + 2*sqrt(2*gamma*D)*eps
    scale = 2.0 * math.sqrt(2.0 * float(p.gamma) * d)
    mapped = [float(p.beta) * d + scale * e for e in eps_values]
    reference = qes_spectrum(p, d)
    for got, want in zip(mapped, reference):
        assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


def test_energy_map_single_state_exact_solvability():
    # the 1x1 block has eigenvalue beta*(2k+D); eps = 0 at k = 0
    p = params(1, 0, beta=Fraction(3, 2))
    assert qes_spectrum(p, 6)[0] == pytest.approx(9.0, abs=1e-12)


def test_energy_map_rejects_bad_dimension():
    p = params(1, 0)
    res = perturbation_series(p, 2)
    for d in (0, -1):
        with pytest.raises(ValueError):
            energy_series(res, 0, p, d)


def test_offdiagonal_products_strictly_positive():
    rng = random.Random(555)
    for _ in range(30):
        p = ModelParams(
            rng.randint(2, 9),
            rng.randint(0, 4),
            Fraction(rng.randint(1, 20), rng.randint(1, 10)),
            Fraction(rng.randint(1, 20), rng.randint(1, 10)),
        )
        d = Fraction(rng.randint(1, 30), rng.randint(1, 4))
        lower, _, upper = qes_matrix(p, d)
        for lo, up in zip(lower, upper):
            assert lo * up > 0


def test_wavefunction_single_term_value():
    wf = RadialWavefunction(h=(1.0,), beta=1.0, gamma=1.0, ell=0.0)
    assert wf.value(1.0) == pytest.approx(math.exp(-0.75))


def test_wavefunction_leading_power_scaling():
    wf = RadialWavefunction(h=(1.0, 0.0), beta=1.0, gamma=1.0, ell=2.0)
    for r in (1e-3, 1e-4, 1e-5):
        assert wf.value(r) / r ** (wf.ell + 1) == pytest.approx(1.0, rel=1e-5)


def test_wavefunction_requires_positive_radius():
    wf = RadialWavefunction(h=(1.0,), beta=1.0, gamma=1.0, ell=0.0)
    with pytest.raises(ValueError):
        wf.value(0.0)
