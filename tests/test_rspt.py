"""Tests for the exact perturbation recursion."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qes_sextic import kac, rspt
from qes_sextic.exact import ExactMatrix, TPoly
from qes_sextic.kac import KacDecomposition, kac_involution
from qes_sextic.model import ModelParams
from qes_sextic.oracle import qes_spectrum
from qes_sextic.rspt import (
    energy_coefficients,
    energy_series,
    first_order_constraints,
    perturbation_bands,
    perturbation_series,
    unperturbed_levels,
)
from reference import (
    energy_series_reference,
    evaluate_float,
    order_residual,
    perturbation_split,
    t_float,
)


def run(n, k, order, beta=1, gamma=1):
    p = ModelParams(n, k, Fraction(beta), Fraction(gamma))
    return p, perturbation_series(p, order)


def conjugated_g(split):
    """G1 = P h1 P and G2 = P h2 P by the dense Kac conjugation."""
    dec = kac_involution(len(split.h0[1]))
    return tuple(
        dec.conjugate(ExactMatrix.tridiagonal(*h)) for h in (split.h1, split.h2)
    )


def dense_series(split, max_order):
    """Reference: the recursion on dense n x n matrices with G from the Kac
    conjugation.  Returns (eps, w) laid out as in SeriesResult."""
    n = len(split.h0[1])
    g1, g2 = conjugated_g(split)
    eps0 = unperturbed_levels(n)
    eps_rows = [tuple(TPoly.constant(e) for e in eps0)]
    ws = [ExactMatrix.diagonal([1] * n)]
    for order in range(1, max_order + 1):
        r = g1 @ ws[order - 1]
        if order >= 2:
            r = r + g2 @ ws[order - 2]
        for m in range(1, order):
            r = r - ws[order - m] @ ExactMatrix.diagonal(eps_rows[m])
        eps_rows.append(tuple(r[i, i] for i in range(n)))
        ws.append(ExactMatrix([
            [
                TPoly.zero() if i == j else r[i, j] / (eps0[j] - eps0[i])
                for j in range(n)
            ]
            for i in range(n)
        ]))
    return tuple(eps_rows), tuple(ws[1:])


def band_matrix(bands, n):
    return ExactMatrix([
        [bands[j - i](i) if j - i in bands else 0 for j in range(n)]
        for i in range(n)
    ])


def test_closed_form_g_equals_kac_conjugation():
    for n in range(1, 13):
        for k in range(4):
            split = perturbation_split(ModelParams(n, k, Fraction(1), Fraction(1)))
            g1, g2 = conjugated_g(split)
            b1, b2 = perturbation_bands(n, k)
            assert g1 == band_matrix(b1, n) * TPoly.t()
            assert g2 == band_matrix(b2, n)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(0, 3), order=st.integers(0, 8))
def test_series_equals_dense_reference(n, k, order):
    p, res = run(n, k, order)
    eps, w = dense_series(perturbation_split(p), order)
    assert res.eps == eps
    assert res.w == w


def test_series_needs_no_kac_conjugation_or_dense_product(monkeypatch):
    _, expected = run(6, 2, 8)

    def refuse(*args, **kwargs):
        raise AssertionError("the series path called the dense machinery")

    monkeypatch.setattr(kac, "kac_involution", refuse)
    monkeypatch.setattr(rspt, "kac_involution", refuse)
    monkeypatch.setattr(KacDecomposition, "conjugate", refuse)
    monkeypatch.setattr(ExactMatrix, "__matmul__", refuse)
    _, res = run(6, 2, 8)
    assert res.eps == expected.eps
    assert res.w == expected.w


def test_window_covers_orders_clipped_by_max_order(monkeypatch):
    # n >= 2K + 1: every order above K/2 is clipped to K - o rows, not by n
    p = ModelParams(13, 1, Fraction(1), Fraction(1))
    reach = []
    band_product = rspt._band_product

    def spy(bands, x, i, j):
        reach.append(abs(i - j))
        return band_product(bands, x, i, j)

    monkeypatch.setattr(rspt, "_band_product", spy)
    res = perturbation_series(p, 6)
    assert max(reach) == 3  # the energies' window, min(o, 6 - o)
    reach.clear()
    first = res.w
    assert max(reach) == 6  # the whole band, |i - j| <= o
    eps, w = dense_series(perturbation_split(p), 6)
    assert res.eps == eps
    assert first == w
    assert res.w == first  # .w stores nothing
    assert res.eps == eps


def half_binomial(m: int) -> Fraction:
    """Binomial coefficient C(1/2, m), exactly."""
    out = Fraction(1)
    half = Fraction(1, 2)
    for i in range(m):
        out *= (half - i) / (i + 1)
    return out


def closed_form_order(order: int, upper: bool) -> TPoly:
    """Taylor coefficient of t*lam + (-1)^upper... the exact two-state
    eigenvalue t*lam +/- sqrt(1 + t^2 lam^2), order by order in lam."""
    sign = 1 if upper else -1
    if order == 0:
        return TPoly.constant(sign)
    if order == 1:
        return TPoly.t()
    if order % 2 == 1:
        return TPoly.zero()
    coeff = sign * half_binomial(order // 2)
    return TPoly([0] * order + [coeff])


def test_zeroth_order_is_ascending_ladder():
    assert unperturbed_levels(4) == (-3, -1, 1, 3)
    _, res = run(4, 0, 0)
    assert [e.coefficient(0) for e in res.eps[0]] == [-3, -1, 1, 3]
    assert res.max_order == 0


def test_two_state_low_orders():
    _, res = run(2, 0, 4)
    t = TPoly.t()
    assert res.eps[1] == (t, t)  # both first-order corrections equal
    assert res.eps[2] == (
        TPoly((0, 0, Fraction(-1, 2))),
        TPoly((0, 0, Fraction(1, 2))),
    )
    assert res.eps[3] == (TPoly.zero(), TPoly.zero())
    assert res.eps[4] == (
        TPoly((0, 0, 0, 0, Fraction(1, 8))),
        TPoly((0, 0, 0, 0, Fraction(-1, 8))),
    )


def test_two_state_matches_closed_form_to_high_order():
    _, res = run(2, 0, 12)
    for order in range(13):
        assert res.eps[order][0] == closed_form_order(order, upper=False)
        assert res.eps[order][1] == closed_form_order(order, upper=True)


def test_single_state_series_is_linear():
    for k in (0, 1, 3):
        _, res = run(1, k, 6)
        assert res.eps[0][0] == TPoly.zero()
        assert res.eps[1][0] == TPoly((0, k))
        for order in range(2, 7):
            assert res.eps[order][0].is_zero


def test_correction_matrices_have_zero_diagonal():
    _, res = run(5, 2, 6)
    ws = res.w
    for order in range(1, 7):
        w = ws[order - 1]
        for i in range(5):
            assert w[i, i].is_zero


def test_order_identities_hold_in_original_basis():
    for n, k, max_order in ((5, 2, 6), (1, 0, 4), (2, 0, 6), (4, 3, 6), (7, 1, 5)):
        p = ModelParams(n, k, Fraction(1), Fraction(1))
        split = perturbation_split(p)
        res = perturbation_series(p, max_order)
        for order in range(1, max_order + 1):
            assert order_residual(split, res, order).is_zero


def test_recursion_residual_definition():
    # eps^(k) + W^(k) eps0 - eps0 W^(k) must reproduce R^(k) rebuilt from
    # scratch out of G1, G2 and the lower orders
    p = ModelParams(4, 1, Fraction(1), Fraction(1))
    res = perturbation_series(p, 5)
    g1, g2 = conjugated_g(perturbation_split(p))
    eps0 = ExactMatrix.diagonal(list(unperturbed_levels(4)))
    ws = [ExactMatrix.diagonal([1] * 4)] + list(res.w)
    for order in range(1, 6):
        r = g1 @ ws[order - 1]
        if order >= 2:
            r = r + g2 @ ws[order - 2]
        for m in range(1, order):
            r = r - ws[order - m] @ ExactMatrix.diagonal(res.eps[m])
        lhs = (
            ExactMatrix.diagonal(res.eps[order])
            + ws[order] @ eps0
            - eps0 @ ws[order]
        )
        assert (lhs - r).is_zero


def test_degree_and_parity_bound():
    _, res = run(4, 1, 7)
    ws = res.w
    for order in range(8):
        for value in res.eps[order]:
            assert value.degree <= order
            for power, c in enumerate(value.coeffs):
                if (power - order) % 2 != 0:
                    assert c == 0
        if order >= 1:
            w = ws[order - 1]
            for row in w.rows:
                for entry in row:
                    assert entry.degree <= order
                    for power, c in enumerate(entry.coeffs):
                        if (power - order) % 2 != 0:
                            assert c == 0


def test_reflection_symmetry_across_states():
    # states j and n-1-j are exchanged by lam -> -lam, so even orders of
    # eps are antisymmetric and odd orders symmetric across the spectrum,
    # and W^(o) is (-1)^o times itself reflected through both indices; for
    # odd n the middle state is its own mirror image, so its even orders
    # vanish.  Checked on the dense reference, which computes every state.
    cases = [(6, 2, 5), (8, 1, 6)]
    cases += [(n, k, 8) for n in (1, 3, 5, 7, 9) for k in range(4)]
    for n, k, max_order in cases:
        split = perturbation_split(ModelParams(n, k, Fraction(1), Fraction(1)))
        eps, w = dense_series(split, max_order)
        for order in range(max_order + 1):
            sign = -1 if order % 2 == 0 else 1
            for j in range(n):
                assert eps[order][n - 1 - j] == eps[order][j] * sign
            if n % 2 == 1 and order % 2 == 0:
                assert eps[order][n // 2].is_zero, (n, k, order)
            if order >= 1:
                for i in range(n):
                    for j in range(n):
                        assert w[order - 1][n - 1 - i, n - 1 - j] == (
                            w[order - 1][i, j] * -sign), (n, k, order, i, j)


def test_series_equals_dense_reference_on_a_grid():
    # both parities of n, and windows clipped by max_order, whatever the
    # hypothesis test draws
    for n in range(1, 10):
        for k in (0, 3):
            p = ModelParams(n, k, Fraction(1), Fraction(1))
            split = perturbation_split(p)
            for max_order in (0, 1, 2, 5, 8):
                res = perturbation_series(p, max_order)
                eps, w = dense_series(split, max_order)
                assert res.eps == eps, (n, k, max_order)
                assert res.w == w, (n, k, max_order)


def tpoly_band_product(bands, x, i, j):
    """Entry (i, j) of the band matrix times the n x n TPoly array x."""
    return sum(
        (x[i + d][j] * entry(i) for d, entry in bands.items()
         if 0 <= i + d < len(x) and not x[i + d][j].is_zero),
        TPoly.zero(),
    )


def tpoly_recursion(n, k, max_order, horizon):
    """Reference: the windowed, reflection-halved recursion on dense n x n
    lists of TPoly, with t explicit.  Returns (eps, w) as nested lists,
    w[order][i][j] = W^(order)_ij."""
    zero, one = TPoly.zero(), TPoly.one()
    eps = [[TPoly.constant(e) for e in unperturbed_levels(n)]]
    eps += [[zero] * n for _ in range(max_order)]
    w = [[[one if i == j else zero for j in range(n)] for i in range(n)]]
    w += [[[zero] * n for _ in range(n)] for _ in range(max_order)]
    g1, g2 = perturbation_bands(n, k)
    t = TPoly.t()
    for j in range((n + 1) // 2):
        mirror = n - 1 - j > j
        for order in range(1, max_order + 1):
            width = min(order, horizon - order)
            for i in range(max(0, j - width), min(n, j + width + 1)):
                r = t * tpoly_band_product(g1, w[order - 1], i, j)
                if order >= 2:
                    r = r + tpoly_band_product(g2, w[order - 2], i, j)
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


@pytest.mark.parametrize("n, max_order",
                         [(20, 12), (9, 12), (5, 20), (8, 16), (6, 30)])
@pytest.mark.parametrize("k", [0, 3])
def test_series_equals_tpoly_reference_at_bench_shapes(n, k, max_order):
    # orders where odd.odd products shift by u and the u-lists grow long,
    # beyond the dense reference's reach
    _, res = run(n, k, max_order)
    eps, _ = tpoly_recursion(n, k, max_order, max_order)
    assert res.eps == tuple(map(tuple, eps))
    _, w = tpoly_recursion(n, k, max_order, 2 * max_order)
    assert res.w == tuple(ExactMatrix(rows) for rows in w[1:])


def test_recursion_does_no_tpoly_arithmetic(monkeypatch):
    p, expected = run(6, 2, 8)

    def refuse(*args, **kwargs):
        raise AssertionError("the recursion did TPoly arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                 "__truediv__"):
        monkeypatch.setattr(TPoly, name, refuse)
    assert perturbation_series(p, 8).eps == expected.eps


def test_recursion_builds_no_tpoly(monkeypatch):
    # the engine returns ints at both horizons; perturbation_series and
    # SeriesResult.w build every TPoly, and write every mirror
    p = ModelParams(7, 2, Fraction(1), Fraction(1))
    eps, w = dense_series(perturbation_split(p), 6)

    def refuse(*args, **kwargs):
        raise AssertionError("the recursion built a TPoly")

    monkeypatch.setattr(TPoly, "__init__", refuse)
    for horizon in (6, 12):
        states = rspt._recursion(7, 2, 6, horizon)
        assert len(states) == 4  # j <= (n-1)/2 only
        for es, cols in states:
            assert len(es) == len(cols) == 7
            cs = [c for e in es for c in e]
            cs += [c for col in cols for x in col.values() for c in x]
            assert cs and all(type(c) is int for c in cs), horizon
    monkeypatch.undo()
    res = perturbation_series(p, 6)
    assert res.eps == eps
    assert res.w == w


def test_every_coefficient_is_dyadic():
    # eps0_j - eps0_i = 2(j - i): the odd part of each divisor must cancel
    for n in range(1, 13):
        for k in range(4):
            _, res = run(n, k, 8)
            polys = [e for row in res.eps for e in row]
            polys += [e for w in res.w for row in w.rows for e in row]
            for poly in polys:
                for c in poly.coeffs:
                    d = c.denominator
                    assert d & (d - 1) == 0, (n, k, poly)


def assert_integer_at_scale(polys, order, case):
    for poly in polys:
        for c in poly.coeffs:
            assert (c * 2**order).denominator == 1, (case, order, poly)


def test_every_order_is_an_integer_at_scale_two_to_the_order():
    # the paper's "integer arithmetics": 2^o eps^(o) and 2^o W^(o) have
    # integer coefficients, so the series needs no rational arithmetic;
    # K = 14 only up to N = 15 keeps the grid near 5 s
    for n in range(1, 31):
        for k in range(5):
            for max_order in (1, 4, 9, 14) if n <= 15 else (1, 4, 9):
                _, res = run(n, k, max_order)
                for order, row in enumerate(res.eps):
                    assert_integer_at_scale(row, order, (n, k, max_order))
    for n in range(1, 16):
        for k in range(4):
            _, res = run(n, k, 12)
            for order, w in enumerate(res.w, start=1):
                polys = [e for row in w.rows for e in row]
                assert_integer_at_scale(polys, order, (n, k, 12))


@pytest.mark.parametrize("n,g,band", [
    pytest.param(4, 1, lambda n, k: lambda i: (i - n) * (i - 1 + k) + 1,
                 id="G2-N4"),
    # the remainder sits off the constant coefficient here, so a guard
    # has to check every coefficient of the quotient
    pytest.param(3, 0, lambda n, k: lambda i: i - n + 1, id="G1-N3"),
])
def test_a_remainder_off_the_scale_raises(monkeypatch, n, g, band):
    # G2's or G1's -1 band off by one: W^(4) is no longer an integer at
    # the scale 2^4, and the division says so instead of flooring
    bands = rspt.perturbation_bands

    def perturbed(n, k):
        gs = bands(n, k)
        gs[g][-1] = band(n, k)
        return gs

    monkeypatch.setattr(rspt, "perturbation_bands", perturbed)
    p = ModelParams(n, 0, Fraction(1), Fraction(1))
    with pytest.raises(ArithmeticError, match=r"W\^\(4\) leaves the scale 2\^4"):
        perturbation_series(p, 8)


@pytest.mark.parametrize("max_order", [-1, 1.5])
def test_max_order_must_be_a_non_negative_integer(max_order):
    with pytest.raises(ValueError, match="max_order"):
        perturbation_series(ModelParams(2, 0, 1, 1), max_order)


def test_series_takes_the_model_params_alone():
    # a split, or any record with n and k, would skip ModelParams' checks
    p = ModelParams(3, 1, 1, 1)
    for other in (perturbation_split(p), SimpleNamespace(n=3, k=1)):
        with pytest.raises(TypeError, match="ModelParams"):
            perturbation_series(other, 2)


def test_order_and_state_must_lie_within_the_series():
    p, res = run(3, 1, 2)
    for order in (0, 3):
        with pytest.raises(IndexError, match=r"orders 1\.\.2"):
            order_residual(perturbation_split(p), res, order)
    for state in (-1, 3):
        with pytest.raises(IndexError, match=r"state must be in 0\.\.2"):
            energy_coefficients(res, state)


@pytest.mark.parametrize("n", [7, 8])
def test_recursion_runs_only_the_lower_half_of_the_states(n, monkeypatch):
    # the reflection supplies states above (n-1)/2; the middle state of odd
    # n is computed
    columns = set()
    band_product = rspt._band_product

    def spy(bands, x, i, j):
        columns.add(j)
        return band_product(bands, x, i, j)

    monkeypatch.setattr(rspt, "_band_product", spy)
    _, res = run(n, 1, 6)
    assert columns == set(range((n + 1) // 2))
    res.w  # the whole band runs the same recursion
    assert columns == set(range((n + 1) // 2))


def test_first_two_orders_closed_form():
    # the paper's headline claim: every state is exactly solvable through
    # second order, and the levels stay equidistant there
    t = TPoly.t()
    for n in range(1, 13):
        for k in range(5):
            _, res = run(n, k, 2)
            for j, eps0 in enumerate(unperturbed_levels(n)):
                assert res.eps[1][j] == t * (n - 1 + k), (n, k, j)
                assert res.eps[2][j] == eps0 * (t * t + (n - 2 + 2 * k)) / 2, (
                    n, k, j)


def test_first_order_constraints_hold():
    _, res = run(2, 0, 2)
    residual_minus, residual_plus = first_order_constraints(res)
    assert residual_minus.is_zero
    assert residual_plus.is_zero


def test_first_order_constraints_are_gauge_invariant(monkeypatch):
    rng = random.Random(17)
    _, res = run(2, 0, 2)
    w = res.w
    for _ in range(10):
        gauge = ExactMatrix.diagonal(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2)]
        )
        gauged = (w[0] + gauge,) + w[1:]
        monkeypatch.setattr(rspt.SeriesResult, "w",
                            property(lambda self, gauged=gauged: gauged))
        assert res.w[0] == w[0] + gauge
        residual_minus, residual_plus = first_order_constraints(res)
        assert residual_minus.is_zero
        assert residual_plus.is_zero


def test_first_order_quantities_vanish_at_zero_coupling():
    _, res = run(2, 0, 1)
    for value in res.eps[1]:
        assert value.evaluate(0) == 0
    w = res.w[0]
    for row in w.rows:
        for entry in row:
            assert entry.evaluate(0) == 0


def test_first_order_constraints_require_two_state_s_wave():
    _, res = run(3, 0, 1)
    with pytest.raises(ValueError):
        first_order_constraints(res)


def test_energy_coefficients_two_state():
    _, res = run(2, 0, 5)
    t = TPoly.t()
    upper = energy_coefficients(res, 1)
    assert upper == [
        t,
        TPoly.constant(2),
        2 * t,
        TPoly((0, 0, 1)),
        TPoly.zero(),
        TPoly((0, 0, 0, 0, Fraction(-1, 4))),
        TPoly.zero(),
    ]
    lower = energy_coefficients(res, 0)
    assert lower == [
        t,
        TPoly.constant(-2),
        2 * t,
        TPoly((0, 0, -1)),
        TPoly.zero(),
        TPoly((0, 0, 0, 0, Fraction(1, 4))),
        TPoly.zero(),
    ]


def test_energy_coefficients_single_state():
    _, res = run(1, 0, 4)
    coeffs = energy_coefficients(res, 0)
    assert coeffs[0] == TPoly.t()
    for c in coeffs[1:]:
        assert c.is_zero


def test_energy_series_single_state_is_exact():
    p, res = run(1, 2, 3, beta=Fraction(3, 2))
    for d in (10, 100):
        value = energy_series(res, 0, p, d)
        assert value == pytest.approx(float(p.beta) * (2 * p.k + d), rel=1e-15)


def test_energy_series_rejects_another_models_params():
    # the N=3 k=1 series at N=5 k=0 params once summed to the N=3 k=1
    # energy, 1185.20, where the N=5 k=0 model has 1007.99
    _, res = run(3, 1, 6)
    for other in (ModelParams(5, 0, 1, 1), ModelParams(3, 0, 1, 1),
                  ModelParams(5, 1, 1, 1)):
        with pytest.raises(ValueError, match="N=3 k=1"):
            energy_series(res, 2, other, 1000)
    # the couplings are the caller's to choose
    assert math.isfinite(energy_series(res, 2, ModelParams(3, 1, 2, 3), 1000))


@pytest.mark.parametrize("beta, gamma, dim, t_value", [
    (1, 1, 10**400, None),
    (1, 1, Fraction(1, 10**400), None),  # positive, though 0.0 in float64
    (1, 1, 100, Fraction(10**400)),
    (10**400, 1, 100, None),
    (1, Fraction(1, 10**400), 100, None),
], ids=("huge D", "tiny D", "huge t", "huge beta", "tiny gamma"))
def test_energy_series_beyond_float64_is_value_error(beta, gamma, dim, t_value):
    # every float conversion of D, t, beta and gamma is inside the range
    # guard, and D's sign is read off the exact D
    p, res = run(3, 1, 4, beta, gamma)
    with pytest.raises(ValueError, match="beyond the float64 range"):
        energy_series(res, 0, p, dim, t_value)


def _outcome(sum_series, *args):
    try:
        return sum_series(*args).hex()
    except ValueError as exc:
        return str(exc)


# couplings, t and D between 1e-6 and 1e6; D scaled by 10^-60 to 10^60
rationals = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))
scales = st.integers(-60, 60).map(lambda e: Fraction(10) ** e)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 9), k=st.integers(0, 3), order=st.integers(0, 14),
       beta=rationals, gamma=rationals, dim=rationals, scale=scales,
       t_value=st.none() | rationals | rationals.map(lambda t: -t))
def test_energy_series_is_the_float_sum_of_the_energy_coefficients(
        n, k, order, beta, gamma, dim, scale, t_value):
    # bit for bit, and the same ValueError where the sum overflows
    p, res = run(n, k, order, beta, gamma)
    for state in range(n):
        args = (res, state, p, dim * scale, t_value)
        assert (_outcome(energy_series, *args)
                == _outcome(energy_series_reference, *args))


def test_series_approaches_oracle_with_expected_rate():
    # truncation error must scale like lam^(K+1); fitted log-log slope
    # within 20% of -(K+1)/2, using exactly representable couplings
    order = 4
    dims = [100, 1000, 10000]
    for n, k, t0 in ((3, 0, Fraction(1, 2)), (5, 2, Fraction(1))):
        p = ModelParams(n, k, t0, Fraction(1, 2))  # sqrt(2*gamma) = 1
        assert p.exact_t() == t0
        res = perturbation_series(p, order + 1)
        for j in range(n):
            errors = []
            for d in dims:
                oracle_value = qes_spectrum(p, d, 1e-13)[j]
                value = energy_series(res, j, p, d)
                errors.append(abs(value - oracle_value))
            if any(e < 1e-13 * max(1.0, abs(o)) for e, o in
                   [(errors[i], qes_spectrum(p, dims[i], 1e-13)[j])
                    for i in range(3)]):
                continue  # below measurement resolution; nothing to fit
            lx = [math.log(d) for d in dims]
            ly = [math.log(e) for e in errors]
            mean_x, mean_y = sum(lx) / 3, sum(ly) / 3
            slope = sum(
                (x - mean_x) * (y - mean_y) for x, y in zip(lx, ly)
            ) / sum((x - mean_x) ** 2 for x in lx)
            target = -(order + 1) / 2
            assert abs(slope - target) <= 0.2 * abs(target)


def test_exact_tail_explains_the_ac6_red_state():
    # AC-6's red state: N=6 k=2, state 5, orders 1..7 in the partial sum.
    # The omitted terms 2*sqrt(2*gamma)*eps^(m)*lam^(m-1), m = 8..18, are
    # exact, and their sum is the oracle's error at D = 100 and 1000.  At
    # D = 100 the first of them is cancelled 30-fold and more by the next
    # ones: the dip that pulls AC-6's three-point fit toward -2.
    state, kept, last = 5, 7, 18
    p, partial = run(6, 2, kept)
    _, full = run(6, 2, last)
    t0 = t_float(p)
    for d in (100, 1000):
        lam = 1.0 / math.sqrt(d)
        error = qes_spectrum(p, d)[state] - energy_series(partial, state, p, d)
        terms = [2.0 * math.sqrt(2.0 * float(p.gamma))
                 * evaluate_float(full.eps[m][state], t0) * lam ** (m - 1)
                 for m in range(kept + 1, last + 1)]
        assert sum(terms) == pytest.approx(error, rel=0.01), d
        if d == 100:
            assert abs(terms[0]) >= 30 * abs(error)


def test_no_floats_anywhere_in_exact_results():
    _, res = run(5, 1, 6)
    seen = []

    def walk(value):
        if isinstance(value, TPoly):
            seen.extend(value.coeffs)
        elif isinstance(value, ExactMatrix):
            for row in value.rows:
                for e in row:
                    walk(e)
        elif isinstance(value, tuple):
            for item in value:
                walk(item)

    walk(res.eps)
    walk(res.w)
    assert seen, "walk found no scalars"
    for scalar in seen:
        assert isinstance(scalar, Fraction)
        assert not isinstance(scalar, float)
        assert isinstance(scalar.numerator, int)
        assert isinstance(scalar.denominator, int)
