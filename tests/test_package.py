"""The package's public surface and the names the traced benchmark run
(bench/spans.py) wraps by attribute."""

import qes_sextic
from qes_sextic import exact, kac, oracle


def test_exports_and_traced_attributes_exist():
    for name in qes_sextic.__all__:
        assert hasattr(qes_sextic, name), name
    assert "conjugate" in kac.KacDecomposition.__dict__
    assert "__matmul__" in exact.ExactMatrix.__dict__
    assert {"__mul__", "__rmul__"} <= exact.TPoly.__dict__.keys()
    assert "from_exact" in oracle.TridiagonalReal.__dict__
    assert callable(oracle._sturm_count)
