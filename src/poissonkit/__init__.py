"""Exact calculus for polynomial Poisson structures.

Scalars are Gaussian rationals, so every algebraic operation here is
exact; floating point enters only in the jet check, which compares
float values with a tolerance and bounds no error exactly, and where
tracking reads t from a double and reports an exact point's doubles.
"""

from .automorphisms import (DiagonalScaling, ElementaryAutomorphism,
                            Translation, TriangularShear, pushforward)
from .deform import (DeformationFamily, TrackResult, jet_vanishing,
                     scan_degenerate_points, track_degenerate_point)
from .diagonal import (DiagonalSpec, LogForm, curl_eigenvalues, is_generic,
                       log_annihilator, make_diagonal, pfaffian,
                       random_generic_spec)
from .documents import (from_document, loads, load_path, serialize,
                        to_document)
from .multivectors import (BV_SIGN, DifferentialForm, Multivector,
                           VolumeCurl, bv_laplacian, contract, curl,
                           exterior_derivative, schouten,
                           volume_isomorphism, volume_isomorphism_inverse,
                           wedge)
from .polynomials import (Polynomial, PolynomialSyntaxError, VariableTable,
                          format_polynomial, parse_polynomial, parse_scalar,
                          reduce_mod)
from .rigidity import (MonomialSurvivors, RigiditySystem, check_multiplicity,
                       diagonality_constraints, simplex_multiplicity_filter,
                       solve_rigidity)
from .scalars import GaussRational, format_scalar
from .structures import (CheckFailed, DegeneracyIdeal, DivisorData,
                         PoissonStructure, chart_extend, chart_transition,
                         degeneracy_divisor, degeneracy_ideal, hamiltonian,
                         invariant_hypersurface, jacobi_check,
                         poisson_bracket, rank_at, restrict_hyperplane,
                         wedge_power)

__version__ = "0.1.0"

__all__ = [
    "BV_SIGN",
    "CheckFailed",
    "DeformationFamily",
    "DegeneracyIdeal",
    "DiagonalScaling",
    "DiagonalSpec",
    "DifferentialForm",
    "DivisorData",
    "ElementaryAutomorphism",
    "GaussRational",
    "LogForm",
    "MonomialSurvivors",
    "Multivector",
    "Polynomial",
    "PolynomialSyntaxError",
    "PoissonStructure",
    "RigiditySystem",
    "TrackResult",
    "Translation",
    "TriangularShear",
    "VariableTable",
    "VolumeCurl",
    "bv_laplacian",
    "chart_extend",
    "chart_transition",
    "check_multiplicity",
    "contract",
    "curl",
    "curl_eigenvalues",
    "degeneracy_divisor",
    "degeneracy_ideal",
    "diagonality_constraints",
    "exterior_derivative",
    "format_polynomial",
    "format_scalar",
    "from_document",
    "hamiltonian",
    "invariant_hypersurface",
    "is_generic",
    "jacobi_check",
    "jet_vanishing",
    "load_path",
    "loads",
    "log_annihilator",
    "make_diagonal",
    "parse_polynomial",
    "parse_scalar",
    "pfaffian",
    "poisson_bracket",
    "pushforward",
    "random_generic_spec",
    "rank_at",
    "reduce_mod",
    "restrict_hyperplane",
    "scan_degenerate_points",
    "schouten",
    "serialize",
    "simplex_multiplicity_filter",
    "solve_rigidity",
    "to_document",
    "track_degenerate_point",
    "volume_isomorphism",
    "volume_isomorphism_inverse",
    "wedge",
    "wedge_power",
]
