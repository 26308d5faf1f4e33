"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from qes_sextic.exact import ExactMatrix, TPoly
from qes_sextic.kac import kac_eigenvalues, kac_involution, kac_matrix
from qes_sextic.model import ModelParams
from qes_sextic.oracle import qes_spectrum, truncated_spectrum
from qes_sextic.rspt import (
    energy_coefficients,
    energy_series,
    first_order_constraints,
    perturbation_series,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
EPS = sys.float_info.epsilon


def report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"{name}: {tag}"
    if detail and not ok:
        line += f"  [{detail}]"
    print(line)


# ---------------------------------------------------------------------------

def test_ac1_equidistant_spectrum():
    """AC-1: exact decomposition identities and the integer ladder, N <= 25."""
    failures = []
    for n in range(1, 26):
        m, t = ExactMatrix(kac_involution(n).m), ExactMatrix(kac_matrix(n))
        if m @ m != ExactMatrix.diagonal([2 ** (n - 1)] * n):
            failures.append(f"involution N={n}")
        if t @ m != m @ ExactMatrix.diagonal(kac_eigenvalues(n)):
            failures.append(f"eigencolumns N={n}")
        if kac_eigenvalues(n) != tuple(range(n - 1, -n, -2)):
            failures.append(f"ladder N={n}")
    ok = not failures
    report("AC-1 equidistant integer spectrum", ok, "; ".join(failures))
    assert ok, failures


def test_ac2_reference_involution_matrices():
    """AC-2: the five smallest eigenvector matrices, scale included."""
    reference = {
        1: [[1]],
        2: [[1, 1], [1, -1]],
        3: [[1, 1, 1], [2, 0, -2], [1, -1, 1]],
        4: [[1, 1, 1, 1], [3, 1, -1, -3], [3, -1, -1, 3], [1, -1, 1, -1]],
        5: [
            [1, 1, 1, 1, 1],
            [4, 2, 0, -2, -4],
            [6, 0, -2, 0, 6],
            [4, -2, 0, 2, -4],
            [1, -1, 1, -1, 1],
        ],
    }
    scale_squared = {1: 1, 2: 2, 3: 4, 4: 8, 5: 16}
    failures = []
    for n, rows in reference.items():
        dec = kac_involution(n)
        if ExactMatrix(dec.m) != ExactMatrix(rows):
            failures.append(f"entries N={n}")
        if 2 ** dec.scale_pow != scale_squared[n]:
            failures.append(f"scale N={n}")
    ok = not failures
    report("AC-2 reference eigenvector matrices", ok, "; ".join(failures))
    assert ok, failures


def test_ac3_two_state_energy_series():
    """AC-3: N=2 dimensionless coefficients through order 5, exact."""
    p = ModelParams(2, 0, Fraction(1), Fraction(1))
    result = perturbation_series(p, 5)
    t = TPoly.t()
    expected_upper = [t, TPoly.constant(2), 2 * t, TPoly((0, 0, 1)),
                      TPoly.zero(), TPoly((0, 0, 0, 0, Fraction(-1, 4))),
                      TPoly.zero()]
    expected_lower = [t, TPoly.constant(-2), 2 * t, TPoly((0, 0, -1)),
                      TPoly.zero(), TPoly((0, 0, 0, 0, Fraction(1, 4))),
                      TPoly.zero()]
    got_lower = energy_coefficients(result, 0)
    got_upper = energy_coefficients(result, 1)
    # the lambda^4 coefficient is the highlighted exact zero
    ok = (
        got_upper == expected_upper
        and got_lower == expected_lower
        and got_upper[6].is_zero
        and got_lower[6].is_zero
    )
    report("AC-3 two-state compact energy series", ok,
           f"upper={[str(c) for c in got_upper]}")
    assert ok


def test_ac4_first_order_degeneracy_and_constraints():
    """AC-4: equal first-order corrections and zero constraint residuals."""
    p = ModelParams(2, 0, Fraction(1), Fraction(1))
    result = perturbation_series(p, 2)
    t = TPoly.t()
    degenerate = result.eps[1][0] == t and result.eps[1][1] == t
    residual_minus, residual_plus = first_order_constraints(result)
    ok = degenerate and residual_minus.is_zero and residual_plus.is_zero
    report("AC-4 first-order degeneracy and constraints", ok,
           f"eps1={[str(e) for e in result.eps[1]]}, "
           f"residuals=({residual_minus}, {residual_plus})")
    assert ok


def test_ac5_closed_form_oracle_to_order_twelve():
    """AC-5: N=2 corrections equal the binomial series of the exact
    two-state eigenvalue t*lam +/- sqrt(1 + t^2 lam^2) through order 12."""

    def half_binomial(m):
        out = Fraction(1)
        for i in range(m):
            out *= (Fraction(1, 2) - i) / (i + 1)
        return out

    p = ModelParams(2, 0, Fraction(1), Fraction(1))
    result = perturbation_series(p, 12)
    failures = []
    for order in range(13):
        if order == 0:
            expected_upper = TPoly.constant(1)
        elif order == 1:
            expected_upper = TPoly.t()
        elif order % 2 == 1:
            expected_upper = TPoly.zero()
        else:
            expected_upper = TPoly([0] * order + [half_binomial(order // 2)])
        expected_lower = (
            expected_upper if order == 1 else -expected_upper
        )
        if result.eps[order][1] != expected_upper:
            failures.append(f"upper order {order}")
        if result.eps[order][0] != expected_lower:
            failures.append(f"lower order {order}")
    ok = not failures
    report("AC-5 closed-form oracle through order 12", ok, "; ".join(failures))
    assert ok, failures


def test_ac6_finite_dimension_convergence():
    """AC-6: truncation error decays with log-log slope -(K+1)/2 within
    20%, and the relative error at D=10^4 is at most 1e-10."""
    order = 6
    dims = [100, 1000, 10000]
    tol = 1e-12
    target = -(order + 1) / 2.0
    failures = []
    for n in (3, 6):
        for k in (0, 2):
            p = ModelParams(n, k, Fraction(1), Fraction(1))
            result = perturbation_series(p, order + 1)
            for j in range(n):
                points = []
                rel_at_largest = None
                for d in dims:
                    oracle_value = qes_spectrum(p, d, tol)[j]
                    series_value = energy_series(result, j, p, d)
                    err = abs(series_value - oracle_value)
                    if d == dims[-1]:
                        rel_at_largest = err / abs(oracle_value)
                    floor = 0.5 * tol + 2.0 * EPS * max(1.0, abs(oracle_value))
                    if err > floor:
                        points.append((math.log(d), math.log(err)))
                if rel_at_largest > 1e-10:
                    failures.append(
                        f"N={n} k={k} state {j}: rel error {rel_at_largest:.2e}"
                    )
                if len(points) < 2:
                    continue  # converged to roundoff at every D
                mean_x = sum(x for x, _ in points) / len(points)
                mean_y = sum(y for _, y in points) / len(points)
                slope = sum(
                    (x - mean_x) * (y - mean_y) for x, y in points
                ) / sum((x - mean_x) ** 2 for x, _ in points)
                if abs(slope - target) > 0.2 * abs(target):
                    failures.append(
                        f"N={n} k={k} state {j}: slope {slope:.3f} "
                        f"outside {target}+-20%"
                    )
    ok = not failures
    report("AC-6 finite-dimension convergence", ok, "; ".join(failures))
    assert ok, failures


def test_ac7_spectral_embedding():
    """AC-7: every terminating-block eigenvalue appears in the spectrum of
    the 40-rows-larger truncation of the un-terminated matrix."""
    failures = []
    for n in (2, 4, 6):
        p = ModelParams(n, 0, Fraction(1), Fraction(1))
        block_values = qes_spectrum(p, 5)
        big = truncated_spectrum(p, 5, n + 40)
        for j, value in enumerate(block_values):
            deviation = min(abs(g - value) for g in big) / abs(value)
            if deviation > 1e-8:
                failures.append(f"N={n} state {j}: deviation {deviation:.2e}")
    ok = not failures
    report("AC-7 spectral embedding of the terminating block", ok,
           "; ".join(failures))
    assert ok, failures


def test_ac8_exactness_and_determinism():
    """AC-8: no floats anywhere in exact results; exact constructors reject
    floats; golden outputs byte-identical across consecutive runs."""
    failures = []

    # type-walk across every exact product of a representative run
    p = ModelParams(4, 1, Fraction(2), Fraction(3))
    result = perturbation_series(p, 5)
    dec = kac_involution(4)
    scalars = []
    integers = []  # entries of the integer Kac matrices

    def walk(value):
        if isinstance(value, TPoly):
            scalars.extend(value.coeffs)
        elif isinstance(value, ExactMatrix):
            for row in value.rows:
                for entry in row:
                    walk(entry)
        elif isinstance(value, tuple):
            for item in value:
                walk(item)
        else:
            integers.append(value)

    walk(result.eps)
    walk(result.w)
    walk(dec.m)
    walk(kac_matrix(4))
    if not scalars or not integers:
        failures.append("type walk found nothing")
    for scalar in scalars:
        if isinstance(scalar, float) or not isinstance(scalar, Fraction):
            failures.append(f"non-rational scalar {scalar!r}")
            break
    for entry in integers:
        if type(entry) is not int:
            failures.append(f"non-integer Kac entry {entry!r}")
            break

    # the type system rejects floats at the boundary
    for build in (
        lambda: TPoly((1.0,)),
        lambda: ExactMatrix([[0.5]]),
        lambda: ModelParams(2, 0, 1.0, Fraction(1)),
    ):
        try:
            build()
        except TypeError:
            pass
        else:
            failures.append("float accepted by an exact constructor")

    # byte-identical golden outputs, twice per command
    commands = [
        ("pmatrix_N1.json", ("pmatrix", "-N", "1")),
        ("pmatrix_N2.json", ("pmatrix", "-N", "2")),
        ("pmatrix_N3.json", ("pmatrix", "-N", "3")),
        ("pmatrix_N4.json", ("pmatrix", "-N", "4")),
        ("pmatrix_N5.json", ("pmatrix", "-N", "5")),
        ("series_N2_k0_K5.json", ("series", "-N", "2", "-k", "0", "-K", "5")),
    ]
    for name, args in commands:
        runs = []
        for _ in range(2):
            completed = subprocess.run(
                [sys.executable, "-m", "qes_sextic", *args],
                capture_output=True,
            )
            if completed.returncode != 0:
                failures.append(f"{name}: exit {completed.returncode}")
            runs.append(completed.stdout)
        if runs[0] != runs[1]:
            failures.append(f"{name}: differs between runs")
        if runs[0] != (GOLDEN_DIR / name).read_bytes():
            failures.append(f"{name}: differs from golden file")

    ok = not failures
    report("AC-8 exactness and determinism", ok, "; ".join(failures))
    assert ok, failures
