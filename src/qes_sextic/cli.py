"""Command-line front end and serialization.

Subcommands: ``spectrum``, ``series``, ``validate``, ``pmatrix``,
``wavefunction``.  Exact values are always serialized as strings
("num/den" rationals, coefficient lists for polynomials in t); numeric
values sit under a "numeric" key tagged "float64".  Exit status 0 means
every reported check passed; a CSV run names each failed one on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction

from .kac import kac_eigenvalues, kac_involution, kac_matrix
from .model import ModelParams, qes_coupling, qes_matrix

# ``oracle`` and ``rspt`` are imported inside the subcommands that run
# them, so a call pays the start-up of the layers it uses only

EMBEDDING_RTOL = 1e-8
SLOPE_RTOL = 0.20


# what each converter reads, as a refusal of unreadable text names it
_KINDS = {int: "an integer", float: "a number", Fraction: "a rational number"}


def _checked(convert, ok, rule: str):
    """Argument type: ``convert`` of the text, refused with ``rule`` unless
    ``ok`` holds of the value.  ``convert`` is a key of ``_KINDS`` or
    another checked type."""

    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"not {_KINDS[convert]}: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}: {text!r}")
        return value

    return parse


def _in_float64(value: Fraction) -> bool:
    # a finite float64 that is not 0.0 unless the rational is 0
    try:
        return bool(float(value)) or not value
    except OverflowError:
        return False


def _float64_rational(name: str):
    return _checked(Fraction, _in_float64, f"{name} beyond the float64 range")


_coupling = _float64_rational("coupling")
_dimension = _checked(_float64_rational("dimension"), lambda d: d > 0,
                      "dimension D must be positive")
_finite_positive = _checked(float, lambda x: math.isfinite(x) and x > 0.0,
                            "must be finite and positive")
_order = _checked(int, lambda k: k >= 0, "order K must be non-negative")


def _dimension_list(text: str) -> list[Fraction]:
    return [_dimension(part) for part in text.split(",") if part.strip()]


def _add_model_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("-N", dest="n", type=int, required=True,
                        help="number of exactly terminating states")
    parser.add_argument("-k", dest="k", type=int, default=0,
                        help="angular momentum (default 0)")
    parser.add_argument("--beta", type=_coupling, default=Fraction(1),
                        help="quartic-envelope coupling, rational (default 1)")
    parser.add_argument("--gamma", type=_coupling, default=Fraction(1),
                        help="sextic coupling, rational (default 1)")


class _Parser(argparse.ArgumentParser):
    """Sends a rejected argument to ``main``'s one-line error instead of
    printing the usage block and exiting, and reads '-' followed by a digit
    or '.' as a value, as in ``--t -1/2``; its subparsers inherit both."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qes-sextic",
        description="Exact 1/sqrt(D) perturbation series for the "
        "quasi-exactly-solvable sextic oscillator, with an independent "
        "floating-point cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="exact matrix and numeric spectrum at one D")
    _add_model_arguments(p)
    p.add_argument("-D", dest="dim", type=_dimension, required=True)
    p.add_argument("--general", type=int, metavar="N_TRUNC",
                   help="also check the QES block against this truncation "
                   "of the un-terminated matrix")
    p.add_argument("--show-matrix", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("series", help="exact energy-series coefficients")
    _add_model_arguments(p)
    p.add_argument("-K", dest="order", type=_order, default=10,
                   help="maximum correction order (default 10)")
    p.add_argument("-D", dest="dims", type=_dimension_list, default=[],
                   help="comma-separated dimensions for numeric evaluation")
    p.add_argument("--t", dest="t_value", type=_float64_rational("t"), default=None,
                   help="rational t to substitute into the coefficients")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("validate",
                       help="series-vs-eigensolver convergence check")
    _add_model_arguments(p)
    p.add_argument("-K", dest="order", type=_order, default=6)
    p.add_argument("-D", dest="dims", type=_dimension_list, required=True,
                   help="comma-separated dimensions, e.g. 100,1000,10000")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pmatrix",
                       help="integer eigenvector matrix of the limiting problem")
    p.add_argument("-N", dest="n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_pmatrix)

    p = sub.add_parser("wavefunction", help="sampled bound state as CSV")
    _add_model_arguments(p)
    p.add_argument("-D", dest="dim", type=_dimension, required=True)
    p.add_argument("--state", type=int, default=0,
                   help="state index by ascending energy (default 0)")
    p.add_argument("--rmax", type=_finite_positive, default=3.0)
    p.add_argument("--samples", default=64, type=_checked(
        int, lambda s: s > 0, "samples must be positive"))
    p.set_defaults(func=cmd_wavefunction)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, ZeroDivisionError, IndexError, RuntimeError,
            MemoryError) as exc:
        # str(MemoryError()) is empty: an empty message names the class
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# output helpers

def _report(fmt: str, checks, header, rows, document) -> int:
    """Writes a run's output and returns its exit status, 1 if a check
    failed, else 0.  CSV is the header and rows, which hold no checks, so
    each failed one gets a stderr line; JSON is ``document()`` with the
    checks added.  Only the chosen format is built."""
    failed = [c for c in checks if not c["pass"]]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
        for c in failed:
            print(f"check {c['name']} failed: residual {c['residual']}",
                  file=sys.stderr)
    else:
        sys.stdout.write(json.dumps({**document(), "checks": checks}, indent=2,
                                    sort_keys=True, allow_nan=False) + "\n")
    return 1 if failed else 0


def _params_doc(params: ModelParams, **extra) -> dict:
    return {"N": params.n, "k": params.k, "beta": str(params.beta),
            "gamma": str(params.gamma), **extra}


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args) -> int:
    from bisect import bisect_left

    from .oracle import TOL, qes_spectrum, truncated_spectrum

    params = ModelParams(args.n, args.k, args.beta, args.gamma)
    dim = args.dim
    coupling = qes_coupling(params, dim)
    if args.general is not None and args.general < params.n:
        raise ValueError("truncation size must be at least N")
    eigenvalues = qes_spectrum(params, dim)

    checks = []
    numeric = {
        "dtype": "float64",
        "tol": TOL,
        "eigenvalues": eigenvalues,
    }
    if args.general is not None:
        general = truncated_spectrum(params, dim, args.general)
        deviations = []
        for value in eigenvalues:
            scale = max(abs(value), 1e-30)
            # general is ascending, so the nearest value is a neighbour
            i = bisect_left(general, value)
            nearest = min(abs(g - value) for g in general[max(i - 1, 0):i + 1])
            deviations.append(nearest / scale)
        worst = max(deviations)
        numeric["general_eigenvalues"] = general
        numeric["embedding_deviations"] = deviations
        checks.append(
            {"name": "embedding", "pass": worst <= EMBEDDING_RTOL, "residual": worst}
        )

    def document():
        exact = {"coupling_a": str(coupling)}
        if args.show_matrix:
            # entry (i, j) near the diagonal is bands[j - i + 1][min(i, j)]
            bands, n = qes_matrix(params, dim), params.n
            exact["matrix"] = [[str(bands[j - i + 1][min(i, j)]) if abs(i - j) <= 1
                                else "0" for j in range(n)] for i in range(n)]
        return {"params": _params_doc(params, D=str(dim)), "exact": exact,
                "numeric": numeric}

    return _report(args.format, checks, ["state", "eigenvalue"],
                   ((i, repr(v)) for i, v in enumerate(eigenvalues)), document)


def cmd_series(args) -> int:
    from .rspt import energy_coefficients, energy_series, perturbation_series

    params = ModelParams(args.n, args.k, args.beta, args.gamma)
    result = perturbation_series(params, args.order)

    def document():
        t_sub = args.t_value if args.t_value is not None else params.exact_t()
        states, substituted = [], []
        for j in range(params.n):
            coeffs = energy_coefficients(result, j)
            eps = [result.eps[order][j] for order in range(args.order + 1)]
            states.append({
                "state": j,
                "energy_coefficients": [c.to_strings() for c in coeffs],
                "eps": [e.to_strings() for e in eps],
            })
            if t_sub is not None:
                substituted.append({
                    "state": j,
                    "energy_coefficients": [str(c.evaluate(t_sub)) for c in coeffs],
                    "eps": [str(e.evaluate(t_sub)) for e in eps],
                })
        exact = {"t_symbolic": "beta/sqrt(2*gamma)", "states": states}
        if t_sub is not None:
            exact["at_t"] = {"t": str(t_sub), "states": substituted}
        doc = {"params": _params_doc(params, K=args.order), "exact": exact}
        if args.dims:
            evaluations = []
            for dim in args.dims:
                values = [
                    energy_series(result, j, params, dim, t_value=args.t_value)
                    for j in range(params.n)
                ]
                evaluations.append({
                    "D": str(dim),
                    "lambda": 1.0 / math.sqrt(float(dim)),
                    "energies": values,
                })
            doc["numeric"] = {"dtype": "float64", "evaluations": evaluations}
        return doc

    # the CSV table holds the symbolic coefficients only
    rows = ((j, power - 2, " ".join(c.to_strings()) or "0")
            for j in range(params.n)
            for power, c in enumerate(energy_coefficients(result, j)))
    return _report(args.format, [], ["state", "lambda_power", "coefficients"],
                   rows, document)


def cmd_validate(args) -> int:
    from .oracle import TOL, qes_spectrum, resolution
    from .rspt import energy_series, perturbation_series

    params = ModelParams(args.n, args.k, args.beta, args.gamma)
    dims = sorted(args.dims)
    if not dims:
        raise ValueError("at least one dimension is required")
    for lower, upper in zip(dims, dims[1:]):
        if lower == upper:
            raise ValueError(f"dimension D={lower} is given more than once")
        # one point in the float64 log-log fit
        if math.log(float(lower)) == math.log(float(upper)):
            raise ValueError(f"dimensions D={lower} and D={upper} have the "
                             "same float64 logarithm")
    # one extra correction order so the partial sum is complete through
    # lambda^K and the first omitted term is O(lambda^(K+1))
    result = perturbation_series(params, args.order + 1)

    table = []
    points = [[] for _ in range(params.n)]  # resolvable (D, err) per state
    for dim in dims:
        oracle_values = qes_spectrum(params, dim)
        for j in range(params.n):
            series_value = energy_series(result, j, params, dim)
            oracle_value = oracle_values[j]
            abs_err = abs(series_value - oracle_value)
            rel_err = abs_err / max(abs(oracle_value), 1e-30)
            if not math.isfinite(rel_err):
                raise ValueError(
                    f"series error at D={dim} is beyond the float64 range")
            # differences below the eigensolver's resolution are roundoff
            # and cannot enter a slope fit
            floor = resolution(oracle_value, TOL)
            if abs_err > floor:
                points[j].append((float(dim), abs_err))
            table.append({
                "D": str(dim),
                "state": j,
                "series": series_value,
                "oracle": oracle_value,
                "abs_error": abs_err,
                "rel_error": rel_err,
                "resolvable": abs_err > floor,
            })

    target = -(args.order + 1) / 2.0
    checks = []
    slopes = []
    for j in range(params.n):
        pts = points[j]
        if len(pts) < 2:
            slopes.append(None)
            checks.append({
                "name": f"slope-state-{j}",
                "pass": True,
                "residual": 0.0,
                "note": ("one dimension; nothing to fit" if len(dims) < 2
                         else "error within the oracle's resolution; "
                         "nothing to fit"),
            })
            continue
        slope = _loglog_slope([p[0] for p in pts], [p[1] for p in pts])
        slopes.append(slope)
        deviation = abs(slope - target)
        checks.append({
            "name": f"slope-state-{j}",
            "pass": deviation <= SLOPE_RTOL * abs(target),
            "residual": deviation,
            "slope": slope,
        })

    header = ["state", "D", "series", "oracle", "abs_error", "rel_error"]
    rows = ((r["state"], r["D"], repr(r["series"]), repr(r["oracle"]),
             repr(r["abs_error"]), repr(r["rel_error"])) for r in table)
    return _report(args.format, checks, header, rows, lambda: {
        "params": _params_doc(params, K=args.order,
                              D=[str(d) for d in dims]),
        "exact": {"slope_target": target},
        "numeric": {"dtype": "float64", "rows": table, "slopes": slopes},
    })


def _loglog_slope(xs: list[float], ys: list[float]) -> float:
    # least-squares slope of log(y) against log(x); each y > resolution > 0
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mean_x = sum(lx) / len(lx)
    mean_y = sum(ly) / len(ly)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(lx, ly))
    den = sum((x - mean_x) ** 2 for x in lx)
    return num / den


def cmd_pmatrix(args) -> int:
    n, dec, z = args.n, kac_involution(args.n), kac_eigenvalues(args.n)
    m, scale = dec.m, 2 ** dec.scale_pow
    columns = list(zip(*m))

    def max_residual(left, target) -> int:
        # max |(left M)[i][j] - target(i, j)|, in integers
        return max(abs(sum(a * b for a, b in zip(row, col)) - target(i, j))
                   for i, row in enumerate(left) for j, col in enumerate(columns))

    checks = [
        {"name": name, "pass": residual == 0, "residual": str(residual)}
        for name, residual in (
            ("involution", max_residual(m, lambda i, j: scale if i == j else 0)),
            ("eigencolumns", max_residual(kac_matrix(n), lambda i, j: m[i][j] * z[j])),
        )
    ]
    m_strings = [[str(e) for e in row] for row in m]
    header = [f"c{j}" for j in range(n)]
    return _report(args.format, checks, header, m_strings, lambda: {
        "params": {"N": n},
        "exact": {
            "M": m_strings,
            "scalePow": dec.scale_pow,
            "Z": [str(v) for v in z],
        },
    })


def cmd_wavefunction(args) -> int:
    from .oracle import radial_wavefunction

    params = ModelParams(args.n, args.k, args.beta, args.gamma)
    wf, _energy = radial_wavefunction(params, args.dim, args.state)
    radii = [args.rmax * (i + 1) / args.samples for i in range(args.samples)]
    psi = [wf.value(r) for r in radii]
    if not any(psi):
        raise ValueError(f"psi of state {args.state} underflows to 0 at every "
                         "sample: below the float64 range")
    return _report("csv", [], ["r", "psi"],
                   ((repr(r), repr(v)) for r, v in zip(radii, psi)), None)

