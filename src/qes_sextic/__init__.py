"""Exact large-dimension perturbation series for the quasi-exactly-solvable
sextic oscillator.

``model`` builds the model matrices exactly on ``fractions`` and serves
both layers; ``kac`` holds the integer Kac matrices on ``math`` alone.
The exact layer (``exact``, ``rspt``) computes the bound-state energy
corrections as polynomials in the dimensionless coupling
t = beta/sqrt(2*gamma) with rational coefficients, with no floating
point anywhere.  The numeric layer (``oracle``, which loads ``model``
only) is an independent double-precision eigensolver that holds every
float fact and validates every exact result at finite dimension.
``cli`` exposes both as the ``qes-sextic`` command.
"""

import importlib

# exported name -> the module that defines it; each module is imported on
# first use of one of its names (PEP 562), so ``import qes_sextic.cli``
# loads only the layers the subcommand needs
_EXPORTS = {
    "exact": ("ExactMatrix", "TPoly"),
    "kac": ("KacDecomposition", "kac_eigenvalues", "kac_involution", "kac_matrix"),
    "model": (
        "ModelParams",
        "as_rational",
        "general_matrix",
        "qes_coupling",
        "qes_matrix",
    ),
    "oracle": (
        "RadialWavefunction",
        "TridiagonalReal",
        "bisection_eigenvalues",
        "inverse_iteration",
        "qes_spectrum",
        "radial_wavefunction",
        "symmetrize",
        "truncated_spectrum",
    ),
    "rspt": (
        "SeriesResult",
        "energy_coefficients",
        "energy_series",
        "first_order_constraints",
        "perturbation_series",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
