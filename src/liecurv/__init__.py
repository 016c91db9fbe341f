"""Geodesics and sectional curvature of Lie groups with right-invariant metrics.

Finite-dimensional algebras are given by structure constants and a Gram
matrix; semidirect products are assembled from an action by derivations; an
exact trigonometric backend covers vector fields and functions on the flat
2-torus (ideal flow, passive scalars, compressible flow, ideal MHD).
"""

from .algebra import DenseBackend, MetricAlgebraSpec, ValidationReport, validate
from .backend import Pair
from .curvature import (
    CurvatureBreakdown,
    Plane,
    covariant_derivative,
    curvature_numerator_generic,
    curvature_numerator_semidirect,
    isometric_sum,
    oracle_curvature,
    sectional,
    special_plane,
)
from .geodesic import (
    IntegratorConfig,
    Trajectory,
    exact_conjugation_solution,
    geodesic_rhs,
    integrate,
    rhs_generic,
    rhs_magnetic,
    rhs_semidirect,
)
from .sampling import sample_planes
from .semidirect import ActionSpec, SemidirectAlgebra, build_semidirect

__all__ = [
    "ActionSpec",
    "CurvatureBreakdown",
    "DenseBackend",
    "IntegratorConfig",
    "MetricAlgebraSpec",
    "Pair",
    "Plane",
    "SemidirectAlgebra",
    "Trajectory",
    "ValidationReport",
    "build_semidirect",
    "covariant_derivative",
    "curvature_numerator_generic",
    "curvature_numerator_semidirect",
    "exact_conjugation_solution",
    "geodesic_rhs",
    "integrate",
    "isometric_sum",
    "oracle_curvature",
    "rhs_generic",
    "rhs_magnetic",
    "rhs_semidirect",
    "sample_planes",
    "sectional",
    "special_plane",
    "validate",
]

__version__ = "0.1.0"
