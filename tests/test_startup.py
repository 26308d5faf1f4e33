"""What start-up imports.  Each check runs a fresh interpreter and looks
at the modules the package loads beyond what the interpreter had."""

import subprocess
import sys
from pathlib import Path

import pytest

FORBIDDEN_AT_IMPORT = {"dataclasses", "inspect", "qes_sextic.oracle", "qes_sextic.rspt"}


def loaded_by(code):
    """Modules that ``code`` adds to ``sys.modules`` in a new interpreter."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
    )
    completed = subprocess.run([sys.executable, "-c", probe],
                               capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    return set(completed.stderr.splitlines()[-1].split())


def test_cli_import_loads_no_oracle_rspt_or_dataclasses():
    loaded = loaded_by("import qes_sextic.cli")
    assert "qes_sextic.cli" in loaded
    assert not loaded & FORBIDDEN_AT_IMPORT


@pytest.mark.parametrize("module", ["qes_sextic.model", "qes_sextic.oracle"])
def test_float_path_loads_no_exact_layer(module):
    # the oracle checks the exact layer, so it must not run on any of it
    loaded = loaded_by(f"import {module}")
    assert module in loaded
    assert not loaded & {"qes_sextic.exact", "qes_sextic.kac", "qes_sextic.rspt"}


@pytest.mark.parametrize("module,package_modules", [
    ("qes_sextic.kac", {"qes_sextic", "qes_sextic.kac"}),
    ("qes_sextic.cli", {"qes_sextic", "qes_sextic.cli", "qes_sextic.kac",
                        "qes_sextic.model"}),
])
def test_kac_and_cli_load_no_exact_layer(module, package_modules):
    # the Kac matrices are int rows: the exact layer loads with rspt alone
    loaded = loaded_by(f"import {module}")
    assert {m for m in loaded if m.startswith("qes_sextic")} == package_modules


@pytest.mark.parametrize("argv,unused", [
    (["pmatrix", "-N", "2"],
     {"qes_sextic.exact", "qes_sextic.oracle", "qes_sextic.rspt"}),
    (["spectrum", "-N", "3", "-D", "10"], {"qes_sextic.exact", "qes_sextic.rspt"}),
    (["wavefunction", "-N", "3", "-D", "10", "--samples", "2"],
     {"qes_sextic.exact", "qes_sextic.rspt"}),
    (["series", "-N", "2", "-K", "2"], {"qes_sextic.oracle"}),
])
def test_subcommand_loads_only_the_layers_it_runs(argv, unused):
    loaded = loaded_by(
        f"from qes_sextic.cli import main\nassert main({argv!r}) == 0")
    assert not loaded & (unused | {"dataclasses", "inspect"})


def test_star_import_binds_every_export():
    loaded_by(
        "import qes_sextic\n"
        "names = {}\n"
        "exec('from qes_sextic import *', names)\n"
        "missing = [n for n in qes_sextic.__all__ if n not in names]\n"
        "assert not missing, missing\n"
    )


def test_the_dense_split_checks_live_in_the_tests_alone():
    # tests/reference.py holds the split and its two residuals: the package
    # neither exports them nor loads that module, even where it could
    moved = ["PerturbationSplit", "order_residual", "perturbation_split",
             "split_reassembly_residual"]
    loaded = loaded_by(
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import pkgutil\n"
        "import qes_sextic\n"
        "from qes_sextic import rspt\n"
        f"held = set({moved!r}) & (set(qes_sextic.__all__) | set(vars(rspt)))\n"
        "assert not held, held\n"
        "for module in pkgutil.iter_modules(qes_sextic.__path__):\n"
        "    if module.name != '__main__':\n"
        "        __import__(f'qes_sextic.{module.name}')\n")
    assert {"qes_sextic.cli", "qes_sextic.exact", "qes_sextic.kac",
            "qes_sextic.model", "qes_sextic.oracle", "qes_sextic.rspt"} <= loaded
    assert not {m for m in loaded if m.rpartition(".")[2] == "reference"}
