"""Independent checks of every benchmark call's output.

Nothing here imports ``qes_sextic``.  The references are rebuilt from
the formulas in the package documentation:

* the physical QES matrix (``model`` docstring), whose symmetrized form
  goes to ``numpy.linalg.eigvalsh``;
* the dimensionless split H(lambda) = H0 + lambda*H1 + lambda^2*H2
  (same docstring), whose characteristic polynomial, evaluated by the
  tridiagonal continuant recurrence in 300-digit decimal arithmetic,
  measures how far a truncated series is from an exact eigenvalue;
* the Kac matrix (``kac`` docstring) for ``pmatrix``.

numpy is used only here, never inside a timed call.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
import math
from fractions import Fraction

import numpy as np

# ``eigvalsh`` and the package's bisection both resolve eigenvalues to a
# few ulps of the matrix norm (at most 1.2e-14 of it over the workloads);
# a wrong eigenvalue misses by far more
EIG_RTOL = 1e-11
# the series' numeric evaluations are plain float sums of the printed
# coefficients, so they agree with a re-summation to rounding
SUM_RTOL = 1e-9
# a series correct through order K leaves a residual of order K+1 in
# lambda; one wrong coefficient of order k <= K leaves order k
ORDER_MARGIN = 0.5
LAMBDAS = (Fraction(1, 2**20), Fraction(1, 2**24))
CHECK_T = Fraction(3, 4)
LARGE_D = Fraction(10**6)
_DEC = decimal.Context(prec=300)

# each parameter's name as an error message may spell it
_PARAM_WORDS = {
    "n": ("-n", "block size", "matrix size"),
    "k": ("-k", "angular momentum"),
    "beta": ("beta",),
    "gamma": ("gamma",),
    "dim": ("-d", "dimension"),
    "tol": ("tol",),
    "rmax": ("rmax",),
    "samples": ("samples",),
    "state": ("state",),
    "order": ("-k", "order"),
    "general": ("general", "truncation"),
}


class CheckError(Exception):
    """A call's output disagrees with the reference."""


class Checker:
    """Judges call outcomes; caches the eigenvalue references it builds."""

    def __init__(self):
        self._eigen_cache: dict = {}

    def judge(self, call, rc, out: str, err: str, timed_out: bool) -> tuple[str, str]:
        """Outcome of one call: ``("ok" | "defect" | "fail", reason)``."""
        if timed_out:
            return "fail", "timed out"
        expect = call.fixed if call.expect == "defect" else call.expect
        try:
            self._expect(expect, call, rc, out, err)
            return "ok", ""
        except CheckError as exc:
            reason = str(exc)
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError,
                decimal.DecimalException) as exc:
            reason = f"unreadable output: {exc!r}"
        if call.expect == "defect" and _shows_defect(call.defect, rc, out, err):
            return "defect", call.defect
        return "fail", reason

    def _expect(self, expect, call, rc, out, err):
        if "Traceback" in err:
            raise CheckError("traceback on stderr")
        if expect == "invalid":
            _check_invalid(call, rc, out, err)
        elif expect in ("ok", "slope"):
            if expect == "ok" and rc != 0:
                raise CheckError(f"exit {rc}: {err.strip()[-200:]}")
            getattr(self, "_check_" + call.command)(call.params, rc, out)
        else:
            raise ValueError(f"unknown expectation {expect!r}")

    # -- references --------------------------------------------------------

    def eigenvalues(self, p: dict, dim: Fraction) -> tuple[np.ndarray, float]:
        key = (p["n"], p["k"], p["beta"], p["gamma"], dim)
        if key not in self._eigen_cache:
            sub, diag, sup = qes_diagonals(p["n"], p["k"], p["beta"], p["gamma"], dim)
            off = [math.sqrt(float(lo * up)) for lo, up in zip(sub, sup)]
            d = [float(x) for x in diag]
            mat = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
            norm = float(np.abs(mat).sum(axis=1).max())
            self._eigen_cache[key] = (np.linalg.eigvalsh(mat), norm)
        return self._eigen_cache[key]

    def _match_eigenvalues(self, p, dim, values, what):
        ref, norm = self.eigenvalues(p, dim)
        if len(values) != len(ref):
            raise CheckError(f"{what}: {len(values)} eigenvalues, expected {len(ref)}")
        worst = max(abs(v - r) for v, r in zip(values, ref))
        if not worst <= EIG_RTOL * max(norm, 1.0):
            raise CheckError(f"{what}: eigenvalues off by {worst:.3g} (norm {norm:.3g})")

    # -- subcommands -------------------------------------------------------

    def _check_spectrum(self, p, rc, out):
        dim = p["dim"]
        if p.get("format") == "csv":
            rows = _csv_rows(out, ["state", "eigenvalue"])
            if [int(r[0]) for r in rows] != list(range(p["n"])):
                raise CheckError("csv states out of order")
            self._match_eigenvalues(p, dim, [float(r[1]) for r in rows], "csv")
            return
        doc = json.loads(out)
        _check_params(doc["params"], p, D=str(dim))
        numeric = doc["numeric"]
        if numeric["dtype"] != "float64":
            raise CheckError("numeric block not tagged float64")
        values = numeric["eigenvalues"]
        if values != sorted(values):
            raise CheckError("eigenvalues not ascending")
        self._match_eigenvalues(p, dim, values, "spectrum")
        coupling = p["beta"] ** 2 - p["gamma"] * (4 * p["n"] + 2 * p["k"] + dim - 2)
        if Fraction(doc["exact"]["coupling_a"]) != coupling:
            raise CheckError("wrong terminating coupling a")
        if p.get("show_matrix"):
            _check_matrix(doc["exact"]["matrix"], p, dim)
        if "general" in p:
            ref, norm = self.eigenvalues(p, dim)
            general = numeric["general_eigenvalues"]
            for r in ref:
                if min(abs(g - r) for g in general) > EIG_RTOL * max(norm, 1.0):
                    raise CheckError("QES eigenvalue missing from the truncation")
            checks = doc["checks"]
            if [c["name"] for c in checks] != ["embedding"] or not checks[0]["pass"]:
                raise CheckError("embedding check missing or red")
        elif doc["checks"]:
            raise CheckError("unexpected checks")

    def _check_series(self, p, rc, out):
        n, order = p["n"], p["order"]
        if p.get("format") == "csv":
            rows = _csv_rows(out, ["state", "lambda_power", "coefficients"])
            if len(rows) != n * (order + 2):
                raise CheckError(f"{len(rows)} csv rows, expected {n * (order + 2)}")
            energy = [[] for _ in range(n)]
            for state, power, coeffs in rows:
                if int(power) != len(energy[int(state)]) - 2:
                    raise CheckError("csv lambda powers out of order")
                energy[int(state)].append(
                    [] if coeffs == "0" else [Fraction(c) for c in coeffs.split(" ")])
            eps = [[[c / 2 for c in poly] for poly in e[1:]] for e in energy]
            _check_series_exact(p, eps, energy)
            return
        doc = json.loads(out)
        _check_params(doc["params"], p, K=order)
        states = doc["exact"]["states"]
        if [s["state"] for s in states] != list(range(n)):
            raise CheckError("series states out of order")
        eps = [[_poly(x) for x in s["eps"]] for s in states]
        energy = [[_poly(x) for x in s["energy_coefficients"]] for s in states]
        _check_series_exact(p, eps, energy)
        self._check_series_large_d(p, eps)
        _check_at_t(doc["exact"], p, eps, energy)
        _check_evaluations(doc, p, energy)

    def _check_series_large_d(self, p, eps):
        """The physical energies at D = 10^6 from the series against
        ``eigvalsh`` of the physical matrix."""
        ref, norm = self.eigenvalues(p, LARGE_D)
        scale = math.sqrt(2.0 * float(p["gamma"]))
        t = float(p["beta"]) / scale
        lam = 1.0 / math.sqrt(float(LARGE_D))
        for j, polys in enumerate(eps):
            total = sum(_evaluate_float(poly, t) * lam**k for k, poly in enumerate(polys))
            energy = scale * (t * float(LARGE_D) + 2.0 * math.sqrt(float(LARGE_D)) * total)
            if abs(energy - ref[j]) > EIG_RTOL * max(norm, 1.0):
                raise CheckError(f"series state {j} misses eigvalsh at D=1e6 by "
                                 f"{abs(energy - ref[j]):.3g}")

    def _check_validate(self, p, rc, out):
        doc = json.loads(out)
        order = p["order"]
        dims = sorted(p["dims"])
        _check_params(doc["params"], p, K=order, D=[str(d) for d in dims])
        target = -(order + 1) / 2.0
        if doc["exact"]["slope_target"] != target:
            raise CheckError("wrong slope target")
        rows = doc["numeric"]["rows"]
        if [(r["D"], r["state"]) for r in rows] != [
                (str(d), j) for d in dims for j in range(p["n"])]:
            raise CheckError("validate rows out of order")
        points = [[] for _ in range(p["n"])]
        for dim in dims:
            dim_rows = [r for r in rows if r["D"] == str(dim)]
            self._match_eigenvalues(p, dim, [r["oracle"] for r in dim_rows], "validate")
            for r in dim_rows:
                err = abs(r["series"] - r["oracle"])
                if r["abs_error"] != err:
                    raise CheckError("abs_error is not |series - oracle|")
                if r["rel_error"] != err / max(abs(r["oracle"]), 1e-30):
                    raise CheckError("rel_error is not abs_error/|oracle|")
                if r["resolvable"]:
                    points[r["state"]].append((float(r["D"]), err))
        checks = doc["checks"]
        if len(checks) != p["n"]:
            raise CheckError("one slope check per state expected")
        for j, check in enumerate(checks):
            if len(points[j]) < 2:
                if not check["pass"]:
                    raise CheckError("unfittable state reported red")
                continue
            slope = _fit_slope(points[j])
            if not math.isclose(check["slope"], slope, rel_tol=1e-9, abs_tol=1e-12):
                raise CheckError(f"state {j} slope {check['slope']} != refit {slope}")
            if check["pass"] != (abs(slope - target) <= 0.2 * abs(target)):
                raise CheckError(f"state {j} slope verdict wrong")
        expected_rc = 0 if all(c["pass"] for c in checks) else 1
        if rc != expected_rc:
            raise CheckError(f"exit {rc} but checks say {expected_rc}")

    def _check_pmatrix(self, p, rc, out):
        n = p["n"]
        if p.get("format") == "csv":
            rows = _csv_rows(out, [f"c{j}" for j in range(n)])
            m = [[int(x) for x in row] for row in rows]
        else:
            doc = json.loads(out)
            m = [[int(x) for x in row] for row in doc["exact"]["M"]]
            if doc["exact"]["scalePow"] != n - 1:
                raise CheckError("scalePow is not N-1")
            z = [int(x) for x in doc["exact"]["Z"]]
            if z != [n - 1 - 2 * j for j in range(n)]:
                raise CheckError("Z is not the Kac spectrum")
            if not all(c["pass"] for c in doc["checks"]):
                raise CheckError("pmatrix reports a red check")
            # T M = M diag(Z), T the Kac matrix of the kac docstring
            for i in range(n):
                for j in range(n):
                    tm = (n - i) * m[i - 1][j] if i > 0 else 0
                    tm += (i + 1) * m[i + 1][j] if i + 1 < n else 0
                    if tm != m[i][j] * z[j]:
                        raise CheckError("columns of M are not Kac eigenvectors")
        if len(m) != n or any(len(row) != n for row in m):
            raise CheckError("M is not N x N")
        for i in range(n):
            for j in range(n):
                mm = sum(m[i][s] * m[s][j] for s in range(n))
                if mm != (2 ** (n - 1) if i == j else 0):
                    raise CheckError("M*M != 2^(N-1) I")

    def _check_wavefunction(self, p, rc, out):
        rows = _csv_rows(out, ["r", "psi"])
        samples, rmax = p["samples"], p["rmax"]
        if len(rows) != samples:
            raise CheckError(f"{len(rows)} rows, expected {samples}")
        psi = []
        for i, (r, value) in enumerate(rows):
            if not math.isclose(float(r), rmax * (i + 1) / samples, rel_tol=1e-12):
                raise CheckError(f"row {i}: r = {r}")
            psi.append(float(value))
        if not all(math.isfinite(v) for v in psi):
            raise CheckError("non-finite psi")
        if not any(psi):
            raise CheckError("psi vanishes everywhere")


# ---------------------------------------------------------------------------
# references and helpers

def qes_diagonals(n, k, beta, gamma, dim):
    """Sub-, main and superdiagonal of the physical matrix (``model``
    docstring): A_m = 4*gamma*(m-N) at (m, m-1), B_m = beta*(4m+2k+D),
    C_m = -2*(m+1)*(2m+2k+D) at (m, m+1)."""
    sub = [4 * gamma * (m - n) for m in range(1, n)]
    diag = [beta * (4 * m + 2 * k + dim) for m in range(n)]
    sup = [-2 * (m + 1) * (2 * m + 2 * k + dim) for m in range(n - 1)]
    return sub, diag, sup


def _check_matrix(strings, p, dim):
    sub, diag, sup = qes_diagonals(p["n"], p["k"], p["beta"], p["gamma"], dim)
    n = p["n"]
    for i in range(n):
        for j in range(n):
            want = (diag[i] if i == j else sub[j] if i == j + 1
                    else sup[i] if j == i + 1 else 0)
            if Fraction(strings[i][j]) != want:
                raise CheckError(f"matrix entry ({i},{j}) is {strings[i][j]}")


def _check_series_exact(p, eps, energy):
    """Shape, zeroth order, parity of eps^(k) in t, the energy-coefficient
    map, and the order of the characteristic-polynomial residual."""
    n, order = p["n"], p["order"]
    t_check = p.get("t", CHECK_T)
    for j in range(n):
        if len(eps[j]) != order + 1 or len(energy[j]) != order + 2:
            raise CheckError("wrong number of orders")
        if eps[j][0] != _trim([Fraction(2 * j - (n - 1))]):
            raise CheckError(f"state {j}: eps^(0) is not 2j-(N-1)")
        for k, poly in enumerate(eps[j]):
            if len(poly) > k + 1 or any(c and (i - k) % 2 for i, c in enumerate(poly)):
                raise CheckError(f"state {j}: eps^({k}) breaks the parity of {k} in t")
        if energy[j][0] != [0, 1] or energy[j][1:] != [[2 * c for c in e] for e in eps[j]]:
            raise CheckError(f"state {j}: energy coefficients are not (t, 2*eps)")
        residual_order = _residual_order(p, eps[j], t_check)
        if residual_order is not None and residual_order < order + ORDER_MARGIN:
            raise CheckError(f"state {j}: series is exact only to order "
                             f"{residual_order:.2f} < {order + 1}")


def _residual_order(p, polys, t):
    """Order in lambda of the Newton step det(H-e)/det'(H-e) at the
    truncated series e(lambda); None when it vanishes identically."""
    steps = []
    for lam in LAMBDAS:
        value = sum(_evaluate(poly, t) * lam**k for k, poly in enumerate(polys))
        steps.append(_newton_step(p["n"], p["k"], t, lam, value))
    if steps[0] == 0 or steps[1] == 0:
        return None
    ratio = (abs(steps[0]) / abs(steps[1])).ln(_DEC)
    return float(ratio / _DEC.divide(_dec(LAMBDAS[0]), _dec(LAMBDAS[1])).ln(_DEC))


def _newton_step(n, k, t, lam, value):
    """f/f' for f(x) = det(H(lambda) - x) by the continuant recurrence;
    H from the ``model`` docstring: diagonal lambda*t*(2m+k), subdiagonal
    -(N-m) at (m, m-1), superdiagonal -(m+1)*(1 + lambda^2*(2m+2k))."""
    ctx = _DEC
    x = _dec(value)
    lam_d, t_d = _dec(lam), _dec(t)
    lam_sq = ctx.multiply(lam_d, lam_d)
    f_prev, f = decimal.Decimal(1), decimal.Decimal(1)
    g_prev, g = decimal.Decimal(0), decimal.Decimal(0)
    for m in range(n):
        shift = ctx.subtract(ctx.multiply(ctx.multiply(lam_d, t_d), 2 * m + k), x)
        if m == 0:
            f_new = shift
            g_new = decimal.Decimal(-1)
        else:
            coupling = ctx.multiply(
                -(n - m) * -m, ctx.add(1, ctx.multiply(lam_sq, 2 * (m - 1) + 2 * k)))
            f_new = ctx.subtract(ctx.multiply(shift, f), ctx.multiply(coupling, f_prev))
            g_new = ctx.subtract(ctx.subtract(ctx.multiply(shift, g), f),
                                 ctx.multiply(coupling, g_prev))
        f_prev, f = f, f_new
        g_prev, g = g, g_new
    return ctx.divide(f, g)


def _check_at_t(exact, p, eps, energy):
    t_sub = p.get("t")
    if t_sub is None:
        sq = p["beta"] ** 2 / (2 * p["gamma"])
        rn, rd = math.isqrt(sq.numerator), math.isqrt(sq.denominator)
        if rn * rn == sq.numerator and rd * rd == sq.denominator:
            t_sub = Fraction(rn, rd)
    if t_sub is None:
        if "at_t" in exact:
            raise CheckError("at_t present without a rational t")
        return
    at = exact["at_t"]
    if Fraction(at["t"]) != t_sub:
        raise CheckError("at_t uses the wrong t")
    for j, state in enumerate(at["states"]):
        if [Fraction(s) for s in state["eps"]] != [_evaluate(e, t_sub) for e in eps[j]]:
            raise CheckError(f"state {j}: substituted eps wrong")
        if [Fraction(s) for s in state["energy_coefficients"]] != [
                _evaluate(e, t_sub) for e in energy[j]]:
            raise CheckError(f"state {j}: substituted energy coefficients wrong")


def _check_evaluations(doc, p, energy):
    dims = p.get("dims")
    if not dims:
        if "numeric" in doc:
            raise CheckError("numeric block without -D")
        return
    scale = math.sqrt(2.0 * float(p["gamma"]))
    t = float(p["t"]) if "t" in p else float(p["beta"]) / scale
    evaluations = doc["numeric"]["evaluations"]
    if [e["D"] for e in evaluations] != [str(d) for d in dims]:
        raise CheckError("evaluations out of order")
    for entry, dim in zip(evaluations, dims):
        lam = 1.0 / math.sqrt(float(dim))
        for j, value in enumerate(entry["energies"]):
            terms = [_evaluate_float(c, t) * lam ** (m - 2) for m, c in enumerate(energy[j])]
            bound = SUM_RTOL * scale * sum(abs(x) for x in terms)
            if abs(value - scale * sum(terms)) > bound:
                raise CheckError(f"D={dim} state {j}: evaluation disagrees")


def _check_params(doc, p, **extra):
    want = {"N": p["n"], "k": p["k"], "beta": str(p["beta"]),
            "gamma": str(p["gamma"]), **extra}
    if doc != want:
        raise CheckError(f"params {doc} != {want}")


def _check_invalid(call, rc, out, err):
    if rc != 2:
        raise CheckError(f"exit {rc}, expected 2")
    if out.strip():
        raise CheckError("output printed for a rejected input")
    lines = err.strip().splitlines()
    if not lines or "error" not in lines[-1]:
        raise CheckError("no error line")
    if not any(word in lines[-1].lower() for word in _PARAM_WORDS[call.param]):
        raise CheckError(f"error does not name {call.param}: {lines[-1]!r}")


def _shows_defect(name, rc, out, err) -> bool:
    """The seed commit's behaviour on each known defect."""
    if name == "overflow-traceback":
        return rc == 1 and "Traceback" in err and "OverflowError" in err
    if name == "misleading-tol":
        return rc == 2 and "eigenvalue count failed at the upper bound" in err
    if name == "nan-rows":
        return rc == 0 and "nan" in out
    if name == "inverse-iteration":
        return rc == 2 and "inverse iteration did not converge" in err
    raise ValueError(f"unknown defect {name!r}")


def _csv_rows(out, header):
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != header:
        raise CheckError(f"csv header {rows[:1]} != {header}")
    return rows[1:]


def _fit_slope(points):
    lx = [math.log(d) for d, _ in points]
    ly = [math.log(e) for _, e in points]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((x - mx) * (y - my) for x, y in zip(lx, ly))
            / sum((x - mx) ** 2 for x in lx))


def _poly(strings):
    return [Fraction(s) for s in strings]


def _trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _evaluate(poly, t):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * t + c
    return acc


def _evaluate_float(poly, t):
    return sum(float(c) * t**i for i, c in enumerate(poly))


def _dec(value: Fraction) -> decimal.Decimal:
    return _DEC.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
