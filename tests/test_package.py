"""The package's public surface and the names the traced benchmark run
(bench/spans.py) wraps by attribute."""

import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

import qes_sextic
from qes_sextic import exact, kac, model, oracle, rspt
from qes_sextic.exact import TPoly
from qes_sextic.model import ModelParams
from qes_sextic.oracle import RadialWavefunction
from reference import PerturbationSplit


def test_exports_and_traced_attributes_exist():
    for name in qes_sextic.__all__:
        assert hasattr(qes_sextic, name), name
    assert "conjugate" in kac.KacDecomposition.__dict__
    assert "__matmul__" in exact.ExactMatrix.__dict__
    assert {"__mul__", "__rmul__"} <= exact.TPoly.__dict__.keys()
    # the traced run rewraps from_exact through its __func__
    assert isinstance(oracle.TridiagonalReal.__dict__["from_exact"], classmethod)
    assert callable(oracle._sturm_count)


def test_exports_are_the_defining_modules_objects():
    assert qes_sextic.qes_spectrum is oracle.qes_spectrum
    assert qes_sextic.perturbation_series is rspt.perturbation_series
    assert qes_sextic.TPoly is exact.TPoly
    # the float record lives with the solver that fills it
    assert qes_sextic.RadialWavefunction is oracle.RadialWavefunction
    assert not hasattr(model, "RadialWavefunction")
    # one float-rejecting coercion, defined where the float path can load it
    assert qes_sextic.as_rational is exact.as_rational is model.as_rational
    with pytest.raises(AttributeError):
        qes_sextic.no_such_name


def test_names_the_tests_patch_exist():
    # rspt's own binding of kac_involution is patched by the series tests,
    # and two of them spy on rspt._band_product
    assert rspt.kac_involution is kac.kac_involution
    assert callable(rspt._band_product)
    assert callable(oracle._steered)
    assert callable(oracle._ql_eigenvalues)


def test_records_keep_keyword_constructors_and_stay_immutable():
    p = ModelParams(n=2, k=0, beta=Fraction(1), gamma=Fraction(1))
    assert (p.n, p.k, p.beta, p.gamma) == (2, 0, Fraction(1), Fraction(1))
    assert ModelParams(2, 0, 3, 1).beta == Fraction(3)
    with pytest.raises(ValueError):
        ModelParams(n=2, k=0, beta=Fraction(-1), gamma=Fraction(1))
    with pytest.raises(TypeError):
        ModelParams(n=2, k=0, beta=1.0, gamma=Fraction(1))
    m = oracle.TridiagonalReal(diag=(1.0, 2.0), lower=(0.5,), upper=(0.5,))
    with pytest.raises(ValueError):
        oracle.TridiagonalReal(diag=(1.0, 2.0), lower=(), upper=(0.5,))
    for record, attribute in ((p, "beta"), (m, "diag"), (kac.kac_involution(2), "m"),
                              (TPoly.t(), "coeffs"),
                              (exact.ExactMatrix([[1]]), "rows")):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
    # the plain records: keyword constructors, a repr naming every field,
    # no assignment to any field
    zero = TPoly.zero()
    for cls, fields in (
        (rspt.SeriesResult, dict(k=0, eps=((zero,),))),
        (kac.KacDecomposition, dict(m=((1,),))),
        (PerturbationSplit, dict(h0=((), (zero,), ()), h1=((), (TPoly.t(),), ()),
                                 h2=((), (zero,), ()))),
        (RadialWavefunction, dict(h=(1.0,), beta=1.0, gamma=2.0, ell=0.5)),
    ):
        assert cls._fields == tuple(fields), cls
        record = cls(**fields)
        for name, value in fields.items():
            assert getattr(record, name) == value, (cls, name)
            assert f"{name}={value!r}" in repr(record), (cls, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_records_hold_no_field_their_others_determine():
    # the shape of eps and the size of M are read off, never stored, so a
    # _replace cannot build a record that disagrees with itself
    result = rspt.perturbation_series(ModelParams(2, 0, 1, 1), 2)
    dec = kac.kac_involution(3)
    for record, name in ((result, "n"), (result, "max_order"), (dec, "n"),
                         (dec, "t_matrix"), (dec, "z"), (dec, "scale_pow")):
        with pytest.raises(ValueError):
            record._replace(**{name: 0})
    for n in range(1, 9):
        assert kac.kac_involution(n).scale_pow == n - 1
        for k in range(3):
            for order in range(7):
                result = rspt.perturbation_series(ModelParams(n, k, 1, 1), order)
                assert (result.n, result.k, result.max_order) == (n, k, order)


def test_readme_library_example_runs_as_its_comments_say():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block.group(1), {})
    eps2, energies = out.getvalue().splitlines()
    assert eps2 == "['-1/2*t^2', '1/2*t^2']"
    series, oracle_value = map(float, energies.split())
    assert series == pytest.approx(oracle_value, rel=1e-12)
