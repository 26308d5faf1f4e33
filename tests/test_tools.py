"""The mutant catalogue of ``tools/mutants.py`` stays in step with the code:
each entry's old text occurs once in its file and its tests exist."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_not_stale(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    for selection in mutant.selection:
        assert (ROOT / selection.split("::")[0]).is_file(), selection
