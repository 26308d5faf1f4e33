"""Mutant catalogue: each entry breaks the program in one known way, and the
tests it names must notice.

    python3 tools/mutants.py

For each entry of ``MUTANTS`` this copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, replaces the entry's old text
in its file by the new text, and runs ``pytest -x`` on the entry's test
selection there, after checking once that the unchanged tree passes every
selection.  It prints KILLED when the selection fails, SURVIVED when it
passes, and ERROR when pytest cannot run it (a selection that names no
test), each with the seconds taken.  An entry whose old text does not occur
exactly once in its file is STALE: a change to that code has to update the
catalogue.  Exits 1 on any SURVIVED, ERROR or STALE, else 0.
Standard library only; not part of the test suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
PYTEST_FAILED = 1  # pytest's exit code when a collected test fails


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    selection: tuple[str, ...]  # pytest arguments, relative to the root


RSPT = "src/qes_sextic/rspt.py"
ORACLE = "src/qes_sextic/oracle.py"
EXACT = "src/qes_sextic/exact.py"
KAC = "src/qes_sextic/kac.py"
CLI = "src/qes_sextic/cli.py"
MODEL = "src/qes_sextic/model.py"
RECORDS = "tests/test_package.py::test_records_hold_no_field_their_others_determine"
GRID = "tests/test_rspt.py::test_series_equals_dense_reference_on_a_grid"
REFERENCE = "tests/test_rspt.py::test_series_equals_tpoly_reference_at_bench_shapes"
REFUSED = "tests/test_cli.py::test_no_subcommand_computes_before_it_refuses"

MUTANTS = [
    Mutant("eps mirror sign swapped", RSPT,
           "eps[order][n - 1 - j] = e if order % 2 else -e",
           "eps[order][n - 1 - j] = -e if order % 2 else e", (GRID,)),
    Mutant("W mirror sign swapped", RSPT,
           "w[order - 1][n - 1 - j - d][n - 1 - j] = -e if order % 2 else e",
           "w[order - 1][n - 1 - j - d][n - 1 - j] = e if order % 2 else -e",
           (GRID,)),
    Mutant("middle state of odd n not computed", RSPT,
           "for j in range((n + 1) // 2):", "for j in range(n // 2):", (GRID,)),
    Mutant("window one row narrower", RSPT,
           "width = min(order, horizon - order)",
           "width = min(order, horizon - order) - 1", (GRID,)),
    Mutant("W divisor sign flipped", RSPT,
           "divmod(c, 2 * (j - i))", "divmod(c, 2 * (i - j))", (GRID,)),
    Mutant("G1's u-shift taken at odd orders instead of even ones", RSPT,
           "if not order % 2:\n                    r.insert(0, 0)",
           "if order % 2:\n                    r.insert(0, 0)", (REFERENCE,)),
    Mutant("G1 term loses its factor 2", RSPT,
           "r = [2 * c for c in _band_product(g1,",
           "r = [c for c in _band_product(g1,", (GRID,)),
    Mutant("nonzero remainder passes", RSPT,
           "if any(rest for _, rest in qr):", "if False:",
           ("tests/test_rspt.py::test_a_remainder_off_the_scale_raises",)),
    Mutant("scale guard checks the constant coefficient only", RSPT,
           "if any(rest for _, rest in qr):", "if qr and qr[0][1]:",
           ("tests/test_rspt.py::test_a_remainder_off_the_scale_raises",)),
    Mutant("odd.odd eps.W product loses its u-shift", RSPT,
           "_subtract_product(r, es[m], x, m % 2 & (order - m) % 2)",
           "_subtract_product(r, es[m], x, 0)", (REFERENCE,)),
    Mutant("energies run on the whole band", RSPT,
           "_recursion(n, params.k, max_order, max_order)",
           "_recursion(n, params.k, max_order, 2 * max_order)",
           ("tests/test_rspt.py::test_window_covers_orders_clipped_by_max_order",)),
    Mutant("W runs on the energies' window", RSPT,
           "_recursion(n, self.k, self.max_order, 2 * self.max_order)",
           "_recursion(n, self.k, self.max_order, self.max_order)", (GRID,)),
    Mutant("perturbation_series skips the ModelParams check", RSPT,
           "if not isinstance(params, ModelParams):", "if False:",
           ("tests/test_rspt.py::test_series_takes_the_model_params_alone",)),
    Mutant("eps^(2) of state 0 gains t^2/2", RSPT,
           "e = eps[order][j] = _in_t(cs, order)\n",
           "e = eps[order][j] = _in_t(cs, order) + (TPoly((0, 0, Fraction(1, 2)))"
           " if (order, j) == (2, 0) else 0)\n",
           ("tests/test_rspt.py::test_first_two_orders_closed_form",)),
    Mutant("G2 band +2 entry +1", RSPT,
           "2: lambda i: -(i + 1) * (i + 2) // 2,",
           "2: lambda i: -(i + 1) * (i + 2) // 2 + 1,",
           ("tests/test_rspt.py::test_order_identities_hold_in_original_basis",)),
    Mutant("recursion builds the eps TPolys again", RSPT,
           "                    es.append(r)\n",
           "                    es.append(r)\n                    _in_t(r, order)\n",
           ("tests/test_rspt.py::test_recursion_builds_no_tpoly",)),
    Mutant("energy series sums another model's params", RSPT,
           "if (params.n, params.k) != (result.n, result.k):", "if False:",
           ("tests/test_rspt.py::"
            "test_energy_series_rejects_another_models_params",)),
    Mutant("energy series drops the doubling", RSPT,
           "total += (2.0 * value) * lam", "total += value * lam",
           ("tests/test_rspt.py::"
            "test_energy_series_is_the_float_sum_of_the_energy_coefficients",)),
    Mutant("energy series reads D's sign off the float", RSPT,
           "if dim <= 0:", "if float(dim) <= 0:",
           ("tests/test_rspt.py::test_energy_series_beyond_float64_is_value_error",)),
    Mutant("series records one order too many", RSPT,
           "return len(self.eps) - 1", "return len(self.eps)", (RECORDS,)),
    Mutant("series records its orders as its states", RSPT,
           "return len(self.eps[0])", "return len(self.eps)", (RECORDS,)),
    Mutant("involution scale power one too large", KAC,
           "return len(self.m) - 1", "return len(self.m)",
           ("tests/test_kac.py::test_conjugation_is_rational_similarity",)),
    Mutant("kac loads the exact layer again", KAC,
           "\n\ndef kac_matrix(", "\n\nfrom . import exact\n\n\ndef kac_matrix(",
           ("tests/test_startup.py::test_kac_and_cli_load_no_exact_layer",)),
    Mutant("CSV run hides the failed checks", CLI,
           "for c in failed:", "for c in ():",
           ("tests/test_cli.py::test_validate_csv_is_the_json_table",)),
    Mutant("out of memory ends in a traceback", CLI,
           "RuntimeError,\n            MemoryError) as exc:",
           "RuntimeError) as exc:",
           ("tests/test_cli.py::test_memory_error_is_one_line_error",)),
    Mutant("out of memory reports an empty message", CLI,
           "{str(exc) or type(exc).__name__}", "{exc}",
           ("tests/test_cli.py::test_memory_error_is_one_line_error",)),
    Mutant("report exits 0 on a failed check", CLI,
           "return 1 if failed else 0", "return 0",
           ("tests/test_cli.py::test_pmatrix_checks_fail_on_a_wrong_entry",)),
    Mutant("CSV run builds the JSON document too", CLI,
           'failed = [c for c in checks if not c["pass"]]',
           'failed = [c for c in checks if not c["pass"]]\n'
           "    document and document()",
           ("tests/test_cli.py::test_spectrum_csv_ignores_show_matrix",)),
    Mutant("model loads the exact layer again", MODEL,
           "\n\nclass ModelParams:",
           "\n\nfrom . import exact\n\n\nclass ModelParams:",
           ("tests/test_startup.py::test_float_path_loads_no_exact_layer",)),
    Mutant("TPoly keeps trailing zeros", EXACT,
           "        while cs and cs[-1] == 0:\n            cs.pop()\n", "",
           ("tests/test_exact.py",)),
    Mutant("TPoly - adds instead of subtracting", EXACT,
           'def __sub__(self, other) -> "TPoly":\n        return self + (-other)',
           'def __sub__(self, other) -> "TPoly":\n        return self + other',
           ("tests/test_exact.py",)),
    Mutant("TPoly * scalar negates the scalar", EXACT,
           "other = TPoly.constant(other)", "other = TPoly.constant(-other)",
           ("tests/test_exact.py",)),
    Mutant("Sturm count without the pivmin clamp", ORACLE,
           "            if q > -pivmin:\n                q = -pivmin\n", "",
           ("tests/test_oracle.py",)),
    Mutant("Sturm count step of 2", ORACLE,
           "            count += 1\n        q = (d - x)",
           "            count += 2\n        q = (d - x)",
           ("tests/test_oracle.py",)),
    Mutant("Sturm count of the last pivot by < 0", ORACLE,
           "    if q < pivmin:\n        count += 1\n    return count",
           "    if q < 0:\n        count += 1\n    return count",
           ("tests/test_oracle.py",)),
    Mutant("steered search accepts the first final bracket", ORACLE,
           "            if count(lo) > c:\n                right = lo\n"
           "            elif count(hi) <= c:\n                left = hi\n"
           "            else:\n                break\n",
           "            break\n", ("tests/test_oracle.py",)),
    Mutant("steered search without the monotone-count certificate", ORACLE,
           "return values if counts == sorted(counts) else None",
           "return values",
           ("tests/test_oracle.py::"
            "test_whole_spectrum_equals_bisection_per_eigenvalue",)),
    Mutant("QL gives up after 2 sweeps", ORACLE,
           "if sweeps == 30:", "if sweeps == 2:",
           ("tests/test_oracle.py::"
            "test_steered_search_gives_the_plain_descent_bit_for_bit",)),
    Mutant("index not checked", ORACLE,
           "if index is not None and not (", "if False and not (",
           ("tests/test_oracle.py::"
            "test_index_must_lie_within_the_spectrum",)),
    Mutant("one index bisects its upper neighbour", ORACLE,
           "glo, ghi, index)]", "glo, ghi, index + 1)]",
           ("tests/test_oracle.py::"
            "test_one_index_is_its_entry_of_the_spectrum",)),
    Mutant("a zero off-diagonal product does not split the matrix", ORACLE,
           "if i + 1 == m.n or m.lower[i] * m.upper[i] == 0.0:",
           "if i + 1 == m.n:",
           ("tests/test_oracle.py::test_qes_spectrum_of_a_matrix_that_splits",)),
    Mutant("truncated spectrum drops a 1x1 tail block", ORACLE,
           "if all(lo * up > 0.0", "if b.lower and all(lo * up > 0.0",
           ("tests/test_oracle.py::test_truncated_spectrum_blocks",)),
    Mutant("wavefunction bisects at tolerance 1e-9", ORACLE,
           "*symmetrize(matrix), index=state)",
           "*symmetrize(matrix), 1e-9, state)",
           ("tests/test_oracle.py::"
            "test_wavefunction_energy_is_the_spectrum_entry",)),
    Mutant("resolution a tenth of its width", ORACLE,
           "return 0.5 * tol + 2.0 * _EPS", "return 0.05 * tol + 2.0 * _EPS",
           ("tests/test_oracle.py::"
            "test_values_at_two_tolerances_agree_within_their_resolutions",)),
    Mutant("spectrum defaults to a tolerance other than TOL", CLI,
           "tol = TOL if args.tol is None else args.tol\n    coupling",
           "tol = 1e-9 if args.tol is None else args.tol\n    coupling",
           ("tests/test_oracle.py::"
            "test_wavefunction_energy_is_the_spectrum_entry",)),
    Mutant("series CSV takes a nonpositive -D", CLI,
           "return [_dimension(part)",
           'return [_float64_rational("dimension")(part)',
           ("tests/test_cli.py::"
            "test_series_rejects_a_nonpositive_dimension_in_either_format",)),
    Mutant("-D accepts 0", CLI, "lambda d: d > 0", "lambda d: d >= 0", (REFUSED,)),
    Mutant("-K accepts -1", CLI, "lambda k: k >= 0", "lambda k: k >= -1",
           (REFUSED,)),
    Mutant("--samples accepts 0", CLI, "lambda s: s > 0", "lambda s: s >= 0",
           (REFUSED,)),
    Mutant("values that start with '-' read as options again", CLI,
           "        self._negative_number_matcher = re.compile(", "        (",
           ("tests/test_cli.py::test_a_value_may_start_with_a_minus_sign",)),
]


def run_tests(selection, patch: tuple[str, str] | None = None):
    """(pytest exit code, seconds) of the selection on a fresh copy of the
    tree, with ``patch`` = (file, text) written over that file."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, work / name)
        if patch is not None:
            (work / patch[0]).write_text(patch[1])
        # the copy's package only, also in the CLI subprocesses the tests start
        env = dict(os.environ, PYTHONPATH=str(work / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *selection],
            cwd=work, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return done.returncode, time.perf_counter() - start


def verdict(mutant: Mutant) -> tuple[str, float]:
    text = (ROOT / mutant.file).read_text()
    if text.count(mutant.old) != 1:
        return "STALE", 0.0
    code, seconds = run_tests(
        mutant.selection, (mutant.file, text.replace(mutant.old, mutant.new)))
    return {0: "SURVIVED", PYTEST_FAILED: "KILLED"}.get(code, "ERROR"), seconds


def main() -> int:
    start = time.perf_counter()
    # a kill counts only if the unchanged tree passes the same tests
    code, seconds = run_tests(dict.fromkeys(
        arg for m in MUTANTS for arg in m.selection))
    print(f"{'PASSED' if code == 0 else 'FAILED':8} {seconds:6.1f} s  "
          "the unchanged tree", flush=True)
    if code != 0:
        return 1
    verdicts = []
    for mutant in MUTANTS:
        result, seconds = verdict(mutant)
        verdicts.append(result)
        print(f"{result:8} {seconds:6.1f} s  {mutant.name}  ({mutant.file})",
              flush=True)
    killed = verdicts.count("KILLED")
    print(f"{killed} of {len(MUTANTS)} killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
