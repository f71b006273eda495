"""What a process loads at start-up, and the names the package exposes."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import chebsys

# gen in JSON and CSV must not load the numeric half; verify's probe must
SCRIPT = """
import json, sys
from chebsys.cli import main

out = sys.argv[1]
common = ["--m", "2", "--c", "3/7", "--R", "8"]
loaded = lambda: [name for name in ("numpy", "mpmath") if name in sys.modules]
assert main(["gen", *common, "--out", out + "/gen.json"]) == 0
assert main(["gen", *common, "--format", "csv", "--out", out + "/gen.csv"]) == 0
print(json.dumps(loaded()))
assert main(["verify", *common, "--out", out + "/verify.json"]) == 0
print(json.dumps(loaded()))
"""

# every public name of chebsys at the commit before the numeric half was
# loaded on demand, by the module that defines it
PUBLIC = {
    "algebraic": (
        "BranchBatch", "BranchCoefficients", "BranchSet", "DegenerateBranches",
        "OnStarSet", "ScanResult", "SolverDivergence", "StarGeometry",
        "asymptotic_scan", "branch_points", "coefficients_b", "explicit_t",
        "limit_L", "region_classify", "seeded_offstar_points", "solve_branches",
        "solve_branches_aberth", "solve_branches_many", "star_geometry",
        "star_radius",
    ),
    "exactpoly": (
        "DEFAULT_PRECISION", "Poly", "compose_star", "poly_add",
        "poly_eval_complex", "poly_eval_exact", "poly_gcd", "poly_mul",
    ),
    "operators": (
        "BandedOperator", "TruncationOverflow", "apply_T", "apply_T_transpose",
        "basis_vector", "biorthogonality", "gram_matrix", "jump_check_typeI",
        "jump_check_typeII", "poly_of_operator",
    ),
    "rationals": ("BACKEND", "Rational", "as_rational", "rat_str"),
    "recurrence": (
        "FactorizationViolation", "NoVariantMatches", "Params", "TypeIRecord",
        "TypeIVectorRecord", "decompose_index", "extract_h", "gen_type1_records",
        "gen_type1_scalar", "gen_type1_vectors", "gen_type2",
        "verify_h_recurrence", "verify_shift",
    ),
    "roots": (
        "AttractionStudy", "ConvergenceFailure", "ProbeReport", "RootReport",
        "attraction_study", "conjecture_probe", "distance_to_star", "roots_of_h",
        "roots_of_t",
    ),
}
SUBMODULES = (
    "algebraic", "exactpoly", "operators", "rationals", "recurrence", "rootfind", "roots"
)


def test_gen_loads_neither_numpy_nor_mpmath(tmp_path):
    src = str(Path(chebsys.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    after_gen, after_verify = map(json.loads, done.stdout.splitlines())
    assert after_gen == []
    assert after_verify == ["numpy", "mpmath"]
    assert (tmp_path / "gen.csv.vectors.csv").exists()


def test_public_names_resolve_to_their_home_objects():
    for home, names in PUBLIC.items():
        module = importlib.import_module(f"chebsys.{home}")
        for name in names:
            assert getattr(chebsys, name) is getattr(module, name), name
    for name in SUBMODULES:
        assert getattr(chebsys, name) is sys.modules[f"chebsys.{name}"]
    assert set(dir(chebsys)) >= {*SUBMODULES, *(n for ns in PUBLIC.values() for n in ns)}
