"""Exact large-dimension perturbation series for the quasi-exactly-solvable
sextic oscillator.

The exact layer (``exact``, ``kac``, ``model``, ``rspt``) computes the
bound-state energy corrections as polynomials in the dimensionless
coupling t = beta/sqrt(2*gamma) with rational coefficients, with no
floating point anywhere.  The numeric layer (``oracle``) is an
independent double-precision eigensolver used to validate every exact
result at finite dimension.  ``cli`` exposes both as the ``qes-sextic``
command.
"""

from .exact import ExactMatrix, TPoly, as_rational
from .kac import KacDecomposition, kac_eigenvalues, kac_involution, kac_matrix
from .model import (
    ModelParams,
    PerturbationSplit,
    RadialWavefunction,
    general_matrix,
    perturbation_split,
    qes_coupling,
    qes_matrix,
    split_reassembly_residual,
)
from .oracle import (
    TridiagonalReal,
    bisection_eigenvalues,
    inverse_iteration,
    qes_spectrum,
    radial_wavefunction,
    symmetrize,
    tridiagonal_spectrum,
    truncated_spectrum,
)
from .rspt import (
    SeriesResult,
    energy_coefficients,
    energy_series,
    first_order_constraints,
    order_residual,
    perturbation_series,
    unperturbed_levels,
)

__all__ = [
    "ExactMatrix",
    "KacDecomposition",
    "ModelParams",
    "PerturbationSplit",
    "RadialWavefunction",
    "SeriesResult",
    "TPoly",
    "TridiagonalReal",
    "as_rational",
    "bisection_eigenvalues",
    "energy_coefficients",
    "energy_series",
    "first_order_constraints",
    "general_matrix",
    "inverse_iteration",
    "kac_eigenvalues",
    "kac_involution",
    "kac_matrix",
    "order_residual",
    "perturbation_series",
    "perturbation_split",
    "qes_coupling",
    "qes_matrix",
    "qes_spectrum",
    "radial_wavefunction",
    "split_reassembly_residual",
    "symmetrize",
    "tridiagonal_spectrum",
    "truncated_spectrum",
    "unperturbed_levels",
]

__version__ = "0.1.0"
