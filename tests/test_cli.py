"""End-to-end CLI tests: functional checks plus golden-file stability."""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qes_sextic.exact import TPoly
from qes_sextic.model import ModelParams

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(*args, check=True):
    completed = subprocess.run(
        [sys.executable, "-m", "qes_sextic", *args],
        capture_output=True,
        text=True,
    )
    if check and completed.returncode != 0:
        raise AssertionError(
            f"CLI failed ({completed.returncode}): {completed.stderr}"
        )
    return completed


def run_cli_bytes(*args):
    completed = subprocess.run(
        [sys.executable, "-m", "qes_sextic", *args],
        capture_output=True,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    return completed.stdout


def parse_poly(items):
    return TPoly([Fraction(s) for s in items])


def failed_check_lines(checks):
    # what a CSV run writes to stderr for the failed checks of its JSON twin
    return [f"check {c['name']} failed: residual {c['residual']}"
            for c in checks if not c["pass"]]


def patch_general(monkeypatch, general):
    # the --general truncation returns ``general``; qes_spectrum, the
    # truncation at N rows, is left as it is
    from qes_sextic import oracle

    truncated = oracle.truncated_spectrum

    def patched(params, dim, n_trunc, tol=1e-12):
        if n_trunc == params.n:
            return truncated(params, dim, n_trunc, tol)
        return general

    monkeypatch.setattr(oracle, "truncated_spectrum", patched)


def test_spectrum_two_state():
    out = run_cli("spectrum", "-N", "2", "-k", "0",
                  "--beta", "1", "--gamma", "1", "-D", "3", "--show-matrix")
    doc = json.loads(out.stdout)
    assert doc["exact"]["coupling_a"] == "-8"
    assert doc["exact"]["matrix"] == [["3", "-6"], ["-4", "7"]]
    low, high = doc["numeric"]["eigenvalues"]
    assert low == pytest.approx(5 - 2 * math.sqrt(7), abs=1e-11)
    assert high == pytest.approx(5 + 2 * math.sqrt(7), abs=1e-11)
    assert doc["numeric"]["dtype"] == "float64"


def test_spectrum_single_state():
    out = run_cli("spectrum", "-N", "1", "-k", "3",
                  "--beta", "2", "--gamma", "1", "-D", "5")
    doc = json.loads(out.stdout)
    assert doc["numeric"]["eigenvalues"][0] == pytest.approx(22.0, abs=1e-12)


def test_spectrum_embedding_check():
    out = run_cli("spectrum", "-N", "2", "-k", "0",
                  "--beta", "1", "--gamma", "1", "-D", "3", "--general", "42")
    doc = json.loads(out.stdout)
    (check,) = doc["checks"]
    assert check["name"] == "embedding"
    assert check["pass"] is True
    assert check["residual"] <= 1e-8
    assert out.returncode == 0


def test_embedding_deviations_are_to_the_nearest_general_eigenvalue(
        monkeypatch, capsys):
    # a general spectrum whose nearest entry to each eigenvalue lies on
    # either side of it, and at either end of the list
    from qes_sextic import cli, oracle

    spectrum = oracle.qes_spectrum(ModelParams(6, 1, Fraction(1, 2), 3), 5)
    general = sorted([spectrum[0] - 7.0, spectrum[-1] + 7.0]
                     + [v * (1 + (-1) ** i * 1e-9 * (i + 1))
                        for i, v in enumerate(spectrum)]
                     + [0.5 * (a + b) for a, b in zip(spectrum, spectrum[1:])])
    patch_general(monkeypatch, general)
    assert cli.main(["spectrum", "-N", "6", "-k", "1", "--beta", "1/2",
                     "--gamma", "3", "-D", "5", "--general", "40"]) == 0
    numeric = json.loads(capsys.readouterr().out)["numeric"]
    assert numeric["eigenvalues"] == spectrum
    assert numeric["embedding_deviations"] == [
        min(abs(g - value) for g in general) / max(abs(value), 1e-30)
        for value in spectrum]


def test_spectrum_csv():
    out = run_cli("spectrum", "-N", "2", "-D", "3", "--format", "csv")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "state,eigenvalue"
    assert len(lines) == 3


def test_spectrum_csv_names_a_failed_embedding_check(monkeypatch, capsys):
    # a general spectrum that misses one QES eigenvalue fails the embedding
    # check; the CSV table stays that of a passing run
    from qes_sextic import cli, oracle

    argv = ["spectrum", "-N", "4", "-k", "1", "-D", "5", "--general", "30"]
    assert cli.main(argv + ["--format", "csv"]) == 0
    passing = capsys.readouterr()
    assert passing.err == ""
    params = ModelParams(4, 1, 1, 1)
    missed = oracle.qes_spectrum(params, 5)[2]
    general = oracle.truncated_spectrum(params, 5, 30)
    general.remove(min(general, key=lambda g: abs(g - missed)))
    patch_general(monkeypatch, general)
    assert cli.main(argv) == 1
    lines = failed_check_lines(json.loads(capsys.readouterr().out)["checks"])
    assert len(lines) == 1 and "embedding" in lines[0]
    assert cli.main(argv + ["--format", "csv"]) == 1
    out = capsys.readouterr()
    assert out.out == passing.out
    assert out.err.splitlines() == lines


def test_spectrum_csv_ignores_show_matrix(monkeypatch, capsys):
    # the table is that of a plain run, and no matrix is built for it:
    # cli's qes_matrix is the --show-matrix table's only input
    from qes_sextic import cli

    def refuse(*args):
        raise AssertionError("a CSV run built the --show-matrix table")

    argv = ["spectrum", "-N", "3", "-k", "1", "--beta", "3/2", "-D", "7/2",
            "--format", "csv"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    monkeypatch.setattr(cli, "qes_matrix", refuse)
    assert cli.main(argv + ["--show-matrix"]) == 0
    assert capsys.readouterr() == plain


def test_series_csv_does_not_evaluate_dimensions():
    # the table holds the symbolic coefficients only; an energy beyond the
    # float64 range at -D is never computed
    table = run_cli("series", "-N", "2", "-K", "6", "--format", "csv")
    out = run_cli("series", "-N", "2", "-K", "6", "--format", "csv",
                  "-D", "1e-200", check=False)
    assert out.returncode == 0, out.stderr
    assert out.stdout == table.stdout
    assert out.stdout.startswith("state,lambda_power,coefficients\n0,-2,0 1\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("dims", ["0", "-5", "10,0"])
def test_series_rejects_a_nonpositive_dimension_in_either_format(dims, fmt, capsys):
    from qes_sextic import cli

    code = cli.main(["series", "-N", "2", "-K", "2", "-D", dims, "--format", fmt])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    bad = dims.split(",")[-1]
    assert out.err == f"error: argument -D: dimension D must be positive: {bad!r}\n"


def test_series_coefficients():
    out = run_cli("series", "-N", "2", "-k", "0", "-K", "5")
    doc = json.loads(out.stdout)
    state1 = doc["exact"]["states"][1]
    coeffs = [parse_poly(c) for c in state1["energy_coefficients"]]
    t = TPoly.t()
    assert coeffs == [t, TPoly.constant(2), 2 * t, TPoly((0, 0, 1)),
                      TPoly.zero(), TPoly((0, 0, 0, 0, Fraction(-1, 4))),
                      TPoly.zero()]


def test_series_zeroth_order_ladder():
    out = run_cli("series", "-N", "4", "-K", "0")
    doc = json.loads(out.stdout)
    levels = [
        parse_poly(s["eps"][0]).coefficient(0)
        for s in doc["exact"]["states"]
    ]
    assert levels == [-3, -1, 1, 3]


def test_series_substituted_tail():
    # with t = 1 the even-order tail follows the binomial series of
    # sqrt(1 + lam^2): orders 4, 6, 8 give 1/8, -1/16, 5/128 on the lower
    # state and opposite signs on the upper
    out = run_cli("series", "-N", "2", "-k", "0", "-K", "12", "--t", "1")
    doc = json.loads(out.stdout)
    at_t = doc["exact"]["at_t"]
    assert at_t["t"] == "1"
    lower = at_t["states"][0]["eps"]
    upper = at_t["states"][1]["eps"]
    assert [lower[4], lower[6], lower[8]] == ["1/8", "-1/16", "5/128"]
    assert [upper[4], upper[6], upper[8]] == ["-1/8", "1/16", "-5/128"]
    for odd in (3, 5, 7, 9, 11):
        assert lower[odd] == "0" and upper[odd] == "0"


def test_series_numeric_evaluation_converges():
    out = run_cli("series", "-N", "2", "-k", "0", "-K", "6",
                  "--beta", "1", "--gamma", "1", "-D", "1000000")
    doc = json.loads(out.stdout)
    (evaluation,) = doc["numeric"]["evaluations"]
    spectrum = run_cli("spectrum", "-N", "2", "-D", "1000000")
    oracle = json.loads(spectrum.stdout)["numeric"]["eigenvalues"]
    for got, want in zip(evaluation["energies"], oracle):
        assert got == pytest.approx(want, rel=1e-12)


def test_series_exact_round_trip():
    out = run_cli("series", "-N", "3", "-k", "1", "-K", "4")
    doc = json.loads(out.stdout)
    for state in doc["exact"]["states"]:
        for strings in state["eps"] + state["energy_coefficients"]:
            poly = parse_poly(strings)
            assert poly.to_strings() == strings


def test_validate_passes_for_six_states():
    out = run_cli("validate", "-N", "6", "-k", "0", "-K", "6",
                  "-D", "100,1000,10000")
    doc = json.loads(out.stdout)
    assert all(c["pass"] for c in doc["checks"])
    for slope in doc["numeric"]["slopes"]:
        assert slope == pytest.approx(-3.5, abs=0.7)
    assert out.returncode == 0


@pytest.mark.parametrize("args", [
    ("-N", "4", "-k", "1", "-K", "4", "-D", "10000,100,1000"),
    # a known false failure of the slope check (ROADMAP item 4)
    ("-N", "3", "-K", "0", "-D", "100,1000,10000"),
])
def test_validate_csv_is_the_json_table(args):
    doc_run = run_cli("validate", *args, check=False)
    csv_run = run_cli("validate", *args, "--format", "csv", check=False)
    assert csv_run.returncode == doc_run.returncode
    doc = json.loads(doc_run.stdout)
    lines = csv_run.stdout.splitlines()
    assert lines[0] == "state,D,series,oracle,abs_error,rel_error"
    rows = [line.split(",") for line in lines[1:]]
    n = int(args[1])
    assert [(int(r[0]), float(r[1])) for r in rows] == [
        (j, d) for d in sorted(float(d) for d in args[-1].split(","))
        for j in range(n)]
    assert [[float(x) for x in r[2:]] for r in rows] == [
        [row[key] for key in ("series", "oracle", "abs_error", "rel_error")]
        for row in doc["numeric"]["rows"]]
    assert csv_run.stderr.splitlines() == failed_check_lines(doc["checks"])


def test_validate_single_state_is_exact():
    out = run_cli("validate", "-N", "1", "-k", "2", "-K", "2", "-D", "10,100")
    doc = json.loads(out.stdout)
    assert all(c["pass"] for c in doc["checks"])
    assert doc["numeric"]["slopes"] == [None]
    for row in doc["numeric"]["rows"]:
        assert row["abs_error"] <= 1e-10
        assert not row["resolvable"]


def test_validate_small_error_at_large_dimension():
    out = run_cli("validate", "-N", "2", "-k", "0", "-K", "3", "-D", "10000")
    doc = json.loads(out.stdout)
    for row in doc["numeric"]["rows"]:
        assert row["rel_error"] <= 1e-12


def test_validate_single_dimension_note_names_the_missing_fit():
    # the error is well above roundoff; one D is simply nothing to fit
    out = run_cli("validate", "-N", "2", "-k", "0", "-K", "0", "-D", "100")
    doc = json.loads(out.stdout)
    assert all(row["resolvable"] for row in doc["numeric"]["rows"])
    for check in doc["checks"]:
        assert check["pass"]
        assert "roundoff" not in check["note"]
        assert "one dimension" in check["note"]


def test_validate_note_names_the_resolution_when_no_error_is_resolvable():
    # at D >= 1e6 every error of the K=6 series lies within the oracle's
    # resolution, so no state has a slope to fit
    out = run_cli("validate", "-N", "3", "-K", "6", "-D", "1000000,10000000")
    doc = json.loads(out.stdout)
    assert not any(row["resolvable"] for row in doc["numeric"]["rows"])
    assert len(doc["checks"]) == 3
    for check in doc["checks"]:
        assert check["pass"]
        assert check["note"] == "error within the oracle's resolution; nothing to fit"


def test_no_subcommand_reaches_the_dense_reference_layer(monkeypatch, capsys):
    # the dense references (ExactMatrix, the conjugation by M) check the
    # series in tests only; no subcommand runs them
    from qes_sextic import cli, kac
    from qes_sextic.exact import ExactMatrix

    argvs = (["series", "-N", "6", "-k", "1", "-K", "10", "-D", "100,1000",
              "--t", "3/2"],
             ["validate", "-N", "4", "-K", "6", "-D", "100,1000,10000"],
             ["spectrum", "-N", "4", "-D", "10", "--general", "8",
              "--show-matrix"],
             ["pmatrix", "-N", "4"],
             ["wavefunction", "-N", "3", "-D", "10", "--samples", "4"])
    expected = []
    for argv in argvs:
        assert cli.main(argv) == 0
        expected.append(capsys.readouterr().out)

    def refuse(*args, **kwargs):
        raise AssertionError("the CLI reached the dense reference layer")

    monkeypatch.setattr(ExactMatrix, "__init__", refuse)
    monkeypatch.setattr(kac.KacDecomposition, "conjugate", refuse)
    for argv, out in zip(argvs, expected):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out


def test_validate_multiplies_no_tpoly(monkeypatch, capsys):
    # energy_series sums each eps^(k) in float64 itself; no TPoly product
    # of energy_coefficients lies on validate's path
    from qes_sextic import cli

    argv = ["validate", "-N", "6", "-k", "2", "-K", "8",
            "-D", "100,300,1000,3000,10000"]
    code = cli.main(argv)
    expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("validate multiplied TPolys")

    monkeypatch.setattr(TPoly, "__mul__", refuse)
    monkeypatch.setattr(TPoly, "__rmul__", refuse)
    assert cli.main(argv) == code
    assert capsys.readouterr().out == expected


def test_pmatrix_five_states():
    out = run_cli("pmatrix", "-N", "5")
    doc = json.loads(out.stdout)
    assert doc["exact"]["M"] == [
        ["1", "1", "1", "1", "1"],
        ["4", "2", "0", "-2", "-4"],
        ["6", "0", "-2", "0", "6"],
        ["4", "-2", "0", "2", "-4"],
        ["1", "-1", "1", "-1", "1"],
    ]
    assert doc["exact"]["scalePow"] == 4
    assert doc["exact"]["Z"] == ["4", "2", "0", "-2", "-4"]
    assert all(c["pass"] for c in doc["checks"])
    assert all(c["residual"] == "0" for c in doc["checks"])


def test_pmatrix_trivial():
    out = run_cli("pmatrix", "-N", "1")
    doc = json.loads(out.stdout)
    assert doc["exact"]["M"] == [["1"]]
    assert doc["exact"]["Z"] == ["0"]


def test_pmatrix_checks_fail_on_a_wrong_entry(monkeypatch, capsys):
    from qes_sextic import cli
    from qes_sextic.kac import kac_involution

    def off_by_one(n):
        dec = kac_involution(n)
        rows = [list(row) for row in dec.m]
        rows[1][2] += 1
        return dec._replace(m=tuple(map(tuple, rows)))

    monkeypatch.setattr(cli, "kac_involution", off_by_one)
    assert cli.main(["pmatrix", "-N", "4"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    doc = json.loads(out.out)
    checks = doc["checks"]
    assert [c["name"] for c in checks] == ["involution", "eigencolumns"]
    for check in checks:
        assert check["pass"] is False
        assert int(check["residual"]) > 0
    # CSV prints the table as always and names each failed check on stderr
    assert cli.main(["pmatrix", "-N", "4", "--format", "csv"]) == 1
    out = capsys.readouterr()
    assert out.out.splitlines() == (
        ["c0,c1,c2,c3"] + [",".join(row) for row in doc["exact"]["M"]])
    assert out.err.splitlines() == failed_check_lines(checks)


def test_wavefunction_sampling():
    out = run_cli("wavefunction", "-N", "2", "-k", "0", "--beta", "1",
                  "--gamma", "1", "-D", "3", "--state", "0",
                  "--rmax", "3", "--samples", "64")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "r,psi"
    assert len(lines) == 65
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert rows[-1][0] == pytest.approx(3.0)
    # beyond the last node the wavefunction decays monotonically
    tail = [abs(psi) for _, psi in rows if _ > 2.0]
    assert all(a > b for a, b in zip(tail, tail[1:]))


def assert_rejected(out, argument):
    # exit 2, nothing on stdout, and an error line naming the argument
    assert out.returncode == 2
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    last = out.stderr.strip().splitlines()[-1]
    assert "error" in last and argument in last


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-3"])
def test_rmax_must_be_finite_and_positive(value):
    out = run_cli("wavefunction", "-N", "2", "-D", "3", "--rmax", value,
                  check=False)
    assert_rejected(out, "--rmax")


@pytest.mark.parametrize("args", [
    ("spectrum", "-N", "2", "-D", "1e400"),
    ("series", "-N", "2", "-K", "4", "-D", "100,1e400"),
    ("validate", "-N", "2", "-D", "1e400"),
    ("wavefunction", "-N", "2", "-D", "1e400"),
])
def test_dimension_beyond_float64_rejected(args):
    assert_rejected(run_cli(*args, check=False), "-D")


@pytest.mark.parametrize("args,argument", [
    (("spectrum", "-N", "3", "-D", "10", "--gamma", "1e400"), "--gamma"),
    (("spectrum", "-N", "3", "-D", "10", "--beta", "1e-400"), "--beta"),
    (("wavefunction", "-N", "3", "-D", "10", "--gamma", "1e-400"), "--gamma"),
    (("series", "-N", "2", "-K", "2", "--t", "1e400", "-D", "10"), "--t"),
    (("validate", "-N", "2", "-D", "1e-400,10"), "-D"),
])
def test_float64_range_checked_at_argparse(args, argument):
    assert_rejected(run_cli(*args, check=False), argument)


def assert_one_line_error(out, words):
    # exit 2, nothing on stdout, and exactly one error line
    assert out.returncode == 2
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert all(word in lines[0] for word in words)


@pytest.mark.parametrize("args,words", [
    (("spectrum", "-N", "3", "-D", "1e300", "--beta", "1e300"), ("float64", "beta")),
    (("spectrum", "-N", "3", "-D", "1e200", "--gamma", "1e200"), ("float64",)),
    (("series", "-N", "2", "-K", "4", "--t", "1e300", "-D", "10"), ("float64", "D=10")),
    (("series", "-N", "2", "-K", "6", "-D", "1e-200"), ("float64",)),
    (("validate", "-N", "2", "-K", "6", "-D", "1e-200,1"), ("float64",)),
])
def test_model_beyond_float64_is_one_line_error(args, words):
    assert_one_line_error(run_cli(*args, check=False), words)


@pytest.mark.parametrize("args,words", [
    # every eigenvalue is bisected at the one tolerance oracle.TOL
    (("spectrum", "-N", "3", "-D", "10", "--tol", "nan"), ("unrecognized", "--tol")),
    (("spectrum", "-D", "10"), ("required", "-N")),
    (("series", "-N", "2", "--format", "xml"), ("argument --format", "xml")),
    (("pmatrix", "-N", "2", "--bogus"), ("unrecognized", "--bogus")),
    (("validate", "-N", "2", "-D", ","), ("at least one dimension",)),
    (("validate", "-N", "2", "-D", "100,100"), ("D=100", "more than once")),
    # nor at any other in wavefunction and validate
    (("wavefunction", "-N", "5", "-D", "10", "--state", "2", "--tol", "1e-9"),
     ("unrecognized", "--tol")),
    (("validate", "-N", "3", "-K", "1", "-D", "100,1000", "--tol", "1e300"),
     ("unrecognized arguments: --tol 1e300",)),
])
def test_parser_rejection_is_one_line_error(args, words):
    assert_one_line_error(run_cli(*args, check=False), words)


@pytest.fixture
def no_computation(monkeypatch):
    # the series engine, the eigensolver and the Kac columns refuse to run
    from qes_sextic import kac, oracle, rspt

    def unreachable(*args, **kwargs):
        raise AssertionError("computed before refusing")

    for module, name in ((rspt, "_recursion"), (oracle, "bisection_eigenvalues"),
                         (kac, "_eigenvector_column")):
        monkeypatch.setattr(module, name, unreachable)


@pytest.mark.parametrize("argv", [
    ("series", "-N", "2", "-K", "2"),
    ("validate", "-N", "2", "-K", "2", "-D", "100,1000"),
    ("spectrum", "-N", "2", "-D", "10"),
    ("pmatrix", "-N", "2"),
    ("wavefunction", "-N", "2", "-D", "10"),
])
def test_each_subcommand_computes_through_a_refused_function(argv, no_computation):
    # so a refusal under no_computation shows that nothing was computed
    from qes_sextic import cli

    with pytest.raises(AssertionError, match="computed before refusing"):
        cli.main(list(argv))


# invalid calls, each with the words its error line must hold: the
# benchmark's rejected inputs and seed defects, then the rules each argument
# type, subcommand body or the library applies
REFUSED = [
    (("spectrum", "-N", "0", "-D", "10"), "block size n"),
    (("pmatrix", "-N", "0"), "matrix size"),
    (("series", "-N", "3", "-K", "-1"), "argument -K"),
    (("spectrum", "-N", "3", "-D", "0"), "argument -D"),
    (("spectrum", "-N", "3", "-k", "-1", "-D", "10"), "angular momentum k"),
    (("spectrum", "-N", "3", "-D", "10", "--beta", "0"), "beta must be positive"),
    (("series", "-N", "3", "--gamma", "x/0"), "argument --gamma"),
    (("spectrum", "-N", "3", "-D", "10", "--general", "2"), "truncation size"),
    (("wavefunction", "-N", "3", "-D", "10", "--samples", "0"), "argument --samples"),
    (("wavefunction", "-N", "3", "-D", "10", "--state", "3"), "state"),
    (("spectrum", "-N", "3", "-D", "1e400"), "argument -D"),
    (("series", "-N", "3", "-K", "4", "-D", "1e400"), "argument -D"),
    (("spectrum", "-N", "3", "-D", "10", "--tol", "nan"),
     "unrecognized arguments: --tol"),
    (("wavefunction", "-N", "3", "-D", "10", "--rmax", "nan"), "argument --rmax"),
    (("validate", "-N", "6", "-K", "120", "-D", "0,100"), "argument -D"),
    (("validate", "-N", "2", "-K", "-1", "-D", "100,1000"), "argument -K"),
    (("series", "-N", "2", "-K", "2", "-D", "10,0", "--format", "csv"),
     "argument -D"),
    (("spectrum", "-N", "800", "-D", "100", "--general", "10"),
     "truncation size must be at least N"),
    (("spectrum", "-N", "0", "-D", "3"), "block size n"),
    (("spectrum", "-N", "2", "-D", "-1"), "argument -D"),
    (("spectrum", "-N", "2", "-D", "x/y"), "argument -D"),
    # values that start with '-'
    (("validate", "-N", "2", "-D", "-5,100"), "argument -D: dimension D"),
    (("spectrum", "-N", "2", "-D", "10", "--beta", "-1/2"), "beta must be positive"),
    (("series", "-N", "2", "-D", "-.5"), "argument -D: dimension D"),
]


@pytest.mark.parametrize("argv,words", REFUSED,
                         ids=[" ".join(argv) for argv, _ in REFUSED])
def test_no_subcommand_computes_before_it_refuses(argv, words, no_computation,
                                                  capsys):
    from qes_sextic import cli

    code = cli.main(list(argv))
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert words in lines[0]


def test_a_value_may_start_with_a_minus_sign():
    separate = run_cli_bytes("series", "-N", "2", "-K", "4", "--t", "-1/2")
    assert separate == run_cli_bytes("series", "-N", "2", "-K", "4", "--t=-1/2")
    assert json.loads(separate)["exact"]["at_t"]["t"] == "-1/2"


def test_memory_error_is_one_line_error(monkeypatch, capsys):
    # an oracle that runs out of memory ends like any rejected input, and
    # the message is not empty although str(MemoryError()) is
    from qes_sextic import cli, oracle

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(oracle, "general_matrix", exhausted)
    code = cli.main(["spectrum", "-N", "3", "-D", "3"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == "error: MemoryError\n"


@pytest.mark.parametrize("dims", ["100,100", "100,1e2", "100,200/2,1000"])
def test_validate_repeated_dimension_is_one_line_error(dims):
    out = run_cli("validate", "-N", "2", "-D", dims, check=False)
    assert_one_line_error(out, ("D=100",))


def test_validate_dimensions_equal_in_float64_is_one_line_error():
    # distinct rationals, one float64: the slope fit would divide by zero
    out = run_cli("validate", "-N", "2", "-K", "2",
                  "-D", "3,3.0000000000000001", check=False)
    assert_one_line_error(out, (
        "D=3 ", "D=30000000000000001/10000000000000000", "same float64"))


@pytest.mark.parametrize("args, named", [
    (("-N", "2", "-K", "0", "-D", "3,3.0000000000000004"),
     ("D=3 ", "D=7500000000000001/2500000000000000")),
    (("-N", "3", "-K", "2", "-D", "30,30.000000000000004"),
     ("D=30 ", "D=7500000000000001/250000000000000")),
])
def test_validate_dimensions_with_equal_float64_logs_is_one_line_error(args, named):
    # distinct float64 values, one float64 logarithm: the same zero division
    out = run_cli("validate", *args, check=False)
    assert_one_line_error(out, named + ("same float64",))


@pytest.mark.parametrize("args", [
    ("-N", "20", "-D", "1000000", "--state", "19"),
    ("-N", "50", "-D", "100000", "--state", "0"),
    ("-N", "200", "-D", "10000", "--state", "0"),
])
def test_wavefunction_overflow_is_one_line_error(args):
    out = run_cli("wavefunction", *args, check=False)
    assert_one_line_error(out, ("psi", "float64"))


def test_wavefunction_underflow_everywhere_is_one_line_error():
    # beta=1e300 puts the state near r=1e-150: exp underflows at every sample
    out = run_cli("wavefunction", "-N", "3", "-k", "30", "--beta", "1e300",
                  "--gamma", "1e-5", "-D", "1000", "--state", "1", check=False)
    assert_one_line_error(out, ("state 1", "float64"))


@pytest.mark.parametrize("args", [
    ("-N", "2", "-k", "5", "--gamma", "1e5", "-D", "1e300", "--state", "0"),
    ("-N", "20", "-k", "2", "--gamma", "3/7", "-D", "1e300", "--state", "19"),
    ("-N", "3", "-k", "30", "--beta", "1e300", "--gamma", "1e-5", "-D", "1000",
     "--state", "1"),
])
def test_wavefunction_residual_near_float64_limit(args):
    # the eigenvector's residual terms are past sqrt(float64 max)
    out = run_cli("wavefunction", *args, check=False)
    assert "Traceback" not in out.stderr
    if out.returncode == 0:
        psi = [float(row.split(",")[1]) for row in out.stdout.splitlines()[1:]]
        assert len(psi) == 64 and all(math.isfinite(v) for v in psi)
    else:
        assert_one_line_error(out, ())


def test_validate_error_beyond_float64_is_one_line_error():
    # the relative error at D=1e-300 is 6e295 / 5e-14
    out = run_cli("validate", "-N", "4", "-k", "0", "--beta", "1e-5", "-K", "2",
                  "-D", "1e-300,100,1e20", check=False)
    assert_one_line_error(out, ("D=1/1000", "float64"))


# the eigenvector probes of the benchmark's oracle-large workload, as
# (N, beta, gamma, D, state) with k=0
EIGENVECTOR_PROBES = [
    (200, "1", "1", "3", 100), (200, "1", "1", "10", 100),
] + [(200, "1", "1", d, s) for d in ("100", "1000") for s in (0, 100, 199)] + [
    (120, "1/4", "1/4", "100", s) for s in (30, 60, 90)] + [
    (120, "6", "1/4", "100", s) for s in (30, 60)]


@pytest.mark.parametrize("n,beta,gamma,dim,state", EIGENVECTOR_PROBES)
def test_wavefunction_at_large_n(n, beta, gamma, dim, state):
    out = run_cli("wavefunction", "-N", str(n), "--beta", beta, "--gamma", gamma,
                  "-D", dim, "--state", str(state))
    rows = out.stdout.splitlines()[1:]
    assert len(rows) == 64
    psi = [float(row.split(",")[1]) for row in rows]
    assert all(math.isfinite(v) for v in psi)
    assert any(v != 0.0 for v in psi)


def test_golden_outputs_byte_stable():
    # AC-8 runs the pmatrix and series goldens; this is the spectrum one
    name = "spectrum_N5_k1_show_matrix_general.json"
    args = ("spectrum", "-N", "5", "-k", "1", "--beta", "3/2", "--gamma", "1/2",
            "-D", "7/2", "--show-matrix", "--general", "9")
    first = run_cli_bytes(*args)
    second = run_cli_bytes(*args)
    assert first == second, "output differs between consecutive runs"
    golden = (GOLDEN_DIR / name).read_bytes()
    assert first == golden, f"output differs from committed golden file {name}"
