"""Exact generators, structural verifiers, and branch asymptotics for a dual
pair of fixed-coefficient polynomial recurrences with (m+1)-fold starlike
root geometry.

The package splits into an exact half (rational polynomial arithmetic, the
recurrence generators, the banded-operator biorthogonality checks) and a
numeric half (the algebraic branch solver, the explicit branch-sum formula,
strong-asymptotics scans, and root studies) bridged only by explicit-precision
complex evaluation.

Importing the package loads only the exact generators, which need nothing
beyond the standard library, and compute in integers without ``fractions``.
The names of the banded-operator checks (``operators``) and of the numeric
half, their modules ``operators``, ``algebraic`` and ``roots``, and
``Rational`` (``fractions.Fraction``) resolve on first use.  mpmath, the one
dependency, is loaded only where a value is returned in it
(``Poly.eval_complex`` and the mpmath values of ``algebraic``); the branch
solver, scan and star geometry compute on the integer kernel.  The probe
(``probe``) works on integer signs, and ``roots`` takes the zeros of every
h_r the probe proved from its isolating intervals, so neither loads mpmath.
"""

from .errors import (
    ConvergenceFailure,
    DegenerateBranches,
    OnStarSet,
    SolverDivergence,
)
from .exactpoly import DEFAULT_PRECISION, Poly, compose_star
from .rationals import BACKEND, as_rational
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

_LAZY_MODULES = ("operators", "algebraic", "roots")

# name -> the module that defines it, imported on first access
_LAZY_NAMES = {
    name: "operators"
    for name in ("gram_matrix", "jump_check_typeI", "jump_check_typeII")
} | {
    name: "algebraic"
    for name in (
        "BranchCoefficients",
        "BranchSet",
        "ScanResult",
        "StarGeometry",
        "asymptotic_scan",
        "branch_points",
        "coefficients_b",
        "explicit_t",
        "region_classify",
        "seeded_offstar_points",
        "solve_branches",
        "solve_branches_many",
        "star_geometry",
        "star_radius",
    )
} | {
    name: "roots"
    for name in (
        "AttractionStudy",
        "RootReport",
        "attraction_study",
        "distance_to_star",
        "roots_of_t",
    )
} | {
    # the probe's home loads no mpmath; roots re-exports both names
    name: "probe"
    for name in ("ProbeReport", "conjecture_probe")
} | {
    # fractions.Fraction, which the rationals module imports on first use
    "Rational": "rationals",
}


def __getattr__(name):
    # __import__, not importlib.import_module, so that -X importtime lists
    # the module; the import binds it as an attribute of this package
    if name in _LAZY_MODULES:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    home = _LAZY_NAMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")
    value = globals()[name] = getattr(globals()[home], name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY_MODULES, *_LAZY_NAMES})
