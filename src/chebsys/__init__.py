"""Exact generators, structural verifiers, and branch asymptotics for a dual
pair of fixed-coefficient polynomial recurrences with (m+1)-fold starlike
root geometry.

The package splits into an exact half (rational polynomial arithmetic, the
recurrence generators, the banded-operator biorthogonality checks) and a
numeric half (the algebraic branch solver, the explicit branch-sum formula,
strong-asymptotics scans, and root studies) bridged only by explicit-precision
complex evaluation.

Importing the package loads only the exact half, which needs nothing beyond
the standard library.  The names of the numeric half, and its modules
``algebraic``, ``rootfind`` and ``roots``, resolve on first use, which is
when numpy and mpmath are imported.
"""

import importlib

from .errors import ConvergenceFailure, DegenerateBranches, OnStarSet, SolverDivergence
from .exactpoly import (
    DEFAULT_PRECISION,
    Poly,
    compose_star,
    poly_add,
    poly_eval_complex,
    poly_eval_exact,
    poly_gcd,
    poly_mul,
)
from .operators import (
    BandedOperator,
    TruncationOverflow,
    apply_T,
    apply_T_transpose,
    basis_vector,
    biorthogonality,
    gram_matrix,
    jump_check_typeI,
    jump_check_typeII,
    poly_of_operator,
)
from .rationals import BACKEND, Rational, as_rational, rat_str
from .recurrence import (
    FactorizationViolation,
    NoVariantMatches,
    Params,
    TypeIRecord,
    TypeIVectorRecord,
    decompose_index,
    extract_h,
    gen_type1_records,
    gen_type1_scalar,
    gen_type1_vectors,
    gen_type2,
    verify_h_recurrence,
    verify_shift,
)

__version__ = "0.1.0"

_NUMERIC_MODULES = ("algebraic", "rootfind", "roots")

# name -> the numeric module that defines it, imported on first access
_NUMERIC_NAMES = {
    name: "algebraic"
    for name in (
        "BranchBatch",
        "BranchCoefficients",
        "BranchSet",
        "ScanResult",
        "StarGeometry",
        "asymptotic_scan",
        "branch_points",
        "coefficients_b",
        "explicit_t",
        "limit_L",
        "region_classify",
        "seeded_offstar_points",
        "solve_branches",
        "solve_branches_aberth",
        "solve_branches_many",
        "star_geometry",
        "star_radius",
    )
} | {
    name: "roots"
    for name in (
        "AttractionStudy",
        "ProbeReport",
        "RootReport",
        "attraction_study",
        "conjecture_probe",
        "distance_to_star",
        "roots_of_h",
        "roots_of_t",
    )
}


def __getattr__(name):
    if name in _NUMERIC_MODULES:
        return importlib.import_module(f".{name}", __name__)
    home = _NUMERIC_NAMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_NUMERIC_MODULES, *_NUMERIC_NAMES})
