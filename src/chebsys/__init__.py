"""Exact generators, structural verifiers, and branch asymptotics for a dual
pair of fixed-coefficient polynomial recurrences with (m+1)-fold starlike
root geometry.

The package splits into an exact half (rational polynomial arithmetic, the
recurrence generators, the banded-operator biorthogonality checks) and a
numeric half (the algebraic branch solver, the explicit branch-sum formula,
strong-asymptotics scans, and root studies) bridged only by explicit-precision
complex evaluation.
"""

from .algebraic import (
    BranchBatch,
    BranchCoefficients,
    BranchSet,
    DegenerateBranches,
    OnStarSet,
    ScanResult,
    SolverDivergence,
    StarGeometry,
    asymptotic_scan,
    branch_points,
    coefficients_b,
    explicit_t,
    limit_L,
    region_classify,
    seeded_offstar_points,
    solve_branches,
    solve_branches_aberth,
    solve_branches_many,
    star_geometry,
    star_radius,
)
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
from .roots import (
    AttractionStudy,
    ConvergenceFailure,
    ProbeReport,
    RootReport,
    attraction_study,
    conjecture_probe,
    distance_to_star,
    roots_of_h,
    roots_of_t,
)

__version__ = "0.1.0"
