"""What a process loads at start-up, and the names the package exposes."""

import ast
import functools
import gc
import importlib
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from test_cli_outputs import PINNED

import chebsys
from chebsys import cli, probe
from chebsys.errors import ConvergenceFailure
from chebsys.exactpoly import Poly
from chebsys.recurrence import Params, TypeIRecord

# gen in JSON and CSV must not load the numeric half, nor cmath, and neither
# must verify, whose probe is exact
SCRIPT = """
import json, sys
from chebsys.cli import main

out = sys.argv[1]
common = ["--m", "2", "--c", "3/7", "--R", "8"]
loaded = lambda: [name for name in ("numpy", "mpmath", "cmath") if name in sys.modules]
assert main(["gen", *common, "--out", out + "/gen.json"]) == 0
assert main(["gen", *common, "--format", "csv", "--out", out + "/gen.csv"]) == 0
print(json.dumps(loaded()))
assert main(["verify", *common, "--out", out + "/verify.json"]) == 0
print(json.dumps(loaded()))
"""

# the exact half, integer kernel included, loads neither numpy nor mpmath
EXACT_HALF = """
import json, sys
import chebsys.rationals
loaded = lambda: [name for name in ("numpy", "mpmath") if name in sys.modules]
print(json.dumps(loaded()))
import chebsys.exactpoly
print(json.dumps(loaded()))
print(json.dumps(callable(chebsys.rationals.add_man_exp)))
"""

# one command in a fresh process, in the current directory, in which any
# import of mpmath fails: whether it loaded numpy, and the digest of every
# file it wrote
COMMAND = """
import hashlib, json, os, sys
sys.modules["mpmath"] = None
from chebsys.cli import main
assert main(sys.argv[1:]) == 0
print(json.dumps("numpy" in sys.modules))
files = {f: hashlib.sha256(open(f, "rb").read()).hexdigest() for f in sorted(os.listdir())}
print(json.dumps(files))
"""

# COMMAND, and then whether the command loaded cmath
COMMAND_CMATH = COMMAND + 'print(json.dumps("cmath" in sys.modules))\n'

# the branch solver and the star geometry load neither numpy nor mpmath
# until a solve needs one
ALGEBRAIC = """
import json, sys
import chebsys.algebraic
print(json.dumps([name for name in ("numpy", "mpmath") if name in sys.modules]))
"""


def pinned(*names: str) -> dict:
    return {name: PINNED[name] for name in names}


# No command loads numpy or mpmath: the solver, a scan and the probe run in
# plain doubles or in integers, and roots refines the probe's intervals in
# integers.  Every branch point is solved and certified on the kernel, at
# every precision, ties, exact branch points and huge z included.
BRANCHES = ["branches", "--m", "2", "--c", "7/3"]
LOADS = {
    "gen-json": (["gen", "--m", "2", "--c", "5/3", "--R", "30", "--out", "gen.json"],
                 pinned("gen.json")),
    "gen-csv": (
        ["gen", "--m", "3", "--c", "311/457", "--R", "40", "--format", "csv", "--out", "gen.csv"],
        pinned("gen.csv", "gen.csv.type2.csv", "gen.csv.vectors.csv"),
    ),
    "verify": (
        ["verify", "--m", "2", "--c", "3/2", "--R", "12", "--n-max", "12", "--seed", "4",
         "--out", "verify.json"],
        pinned("verify.json"),
    ),
    "batched-grid": (
        [*BRANCHES, "--grid=-2:2:3,-1:1:2", "--out", "branches.json"], pinned("branches.json")
    ),
    # z = -2 lies on the attractor star and z = 0 ties all three moduli
    "fallback-grid": (
        [*BRANCHES, "--grid=-2:2:3,0:1:2", "--out", "branches_fallback.json"],
        {"branches_fallback.json": "83174e1fed1f450c5d5e728cc44b677367f89d63f8e0ce730cb18fcba00c13ff"},
    ),
    "precision-64": (
        [*BRANCHES, "--grid=-2:2:3,-1:1:2", "--precision", "64", "--out", "branches64.json"],
        {"branches64.json": "9164d1f9d076db42f6a39205c972949bfc4c8902d814b0ffa044eef0b7a58e5b"},
    ),
    # z = 0, where the three moduli tie
    "zero": (
        [*BRANCHES, "--z", "0,0", "--out", "zero.json"],
        {"zero.json": "e862f82593c7c87e16eb8708d4baf18c00f4a5a5f49a6eb043979c1298501b25"},
    ),
    # the exact branch point: its double root w = 1, twice, with residual 0
    "exact-tip": (
        ["branches", "--m", "1", "--c", "1", "--z", "2,0", "--out", "tip.json"],
        {"tip.json": "bc205962762f185bc72d784397b014d89490ccc2cb43192e4f6761810f3c13d9"},
    ),
    # the real tip of branch_points at m = 2, c = 1, rounded to a double:
    # the pair 4.9e-9 off the real axis is split off it and refined
    "rounded-tip": (
        ["branches", "--m", "2", "--c", "1", "--z", "1.8898815748423097,0", "--out", "rtip.json"],
        {"rtip.json": "48d5f4d15f76fc06b9419cce46639651819eb5f3d417bc2d2f6b58ce04317808"},
    ),
    # z/c overflows a double: the Newton polygon's seeds on the kernel.  The
    # branches near 1.4e154 make the residual's terms about 1e462, so
    # max_residual, the exact residual rounded to a double, is Infinity
    "huge-z": (
        ["branches", "--m", "2", "--c", "1/2", "--z", "1e308,0", "--out", "huge.json"],
        {"huge.json": "8fa06132fdf98921a8037c1b38b042a94284c3ba3832390e5dc38e4a997b5e35"},
    ),
    "asymptote": (
        ["asymptote", "--m", "1", "--c", "1", "--z", "3,1", "--r-max", "30", "--out", "asymptote.json"],
        pinned("asymptote.json"),
    ),
    "asymptote-200": (
        ["asymptote", "--m", "1", "--c", "1", "--z", "3,1", "--r-max", "30", "--precision", "200",
         "--out", "asymptote200.json"],
        {"asymptote200.json": "e0909c73fe83c03fb21897db22e2f1140baf8b50dc2123e5cc7d4c1a6a8e68d3"},
    ),
    # the shape of the first scan of a round of the benchmark's deep workload
    "asymptote-400": (
        ["asymptote", "--m", "1", "--c", "1", "--z=-1.52171,-0.668481", "--r-max", "162",
         "--precision", "400", "--out", "asymptote400.json"],
        {"asymptote400.json": "70e7bc6e318412c1055c45ca54ca78b103bbd18096a644332a14c6bdde04dfab"},
    ),
    # two lower branches at the real z = 1.5 are a conjugate pair of equal
    # moduli; their discs are disjoint, so the kernel certifies the point
    "asymptote-fallback": (
        ["asymptote", "--m", "2", "--c", "1", "--z", "1.5,0", "--r-max", "20",
         "--out", "asymptote-fallback.json"],
        {"asymptote-fallback.json": "ea19d7ce2c9f1e7dde0d012d52be06f63a20b497f7145b91d3a80c7a78129892"},
    ),
    # the same point at 1400 bits
    "asymptote-fallback-1400": (
        ["asymptote", "--m", "2", "--c", "1", "--z", "1.5,0", "--r-max", "1400",
         "--precision", "1400", "--out", "asymptote1400.json"],
        {"asymptote1400.json": "9c98d9f7a1865e95fa479c63492d819ac75418488e3ebd66eebc3eb4c70c8dc7"},
    ),
    # the zeros refined from the probe's intervals, at m = 2 and m = 1
    "roots-m2": (
        ["roots", "--m", "2", "--c", "59/62", "--r-list", "20,30", "--format", "csv",
         "--out", "roots2.csv"],
        {
            "roots2.csv": "318f3bc523df03d98f68068a87d50ff045f37d9f0665721bcf15ca20ed9b8743",
            "roots2.csv.summary.json": "4869dbd5fb8654a8599062fbc6c0dd3922da90e1e433ac26ba2a204db64de9df",
        },
    ),
    "roots": (
        ["roots", "--m", "1", "--c", "3/2", "--r-list", "0,1,5,20", "--format", "csv",
         "--out", "roots.csv"],
        pinned("roots.csv", "roots.csv.summary.json"),
    ),
}

# roots with the step switched off, so that Sturm's theorem isolates every
# index: what it loaded, and the digest of the rows it wrote
MISSED = """
import hashlib, json, sys
from chebsys import probe
from chebsys.cli import main
probe._step = lambda g, last: None
assert main(sys.argv[1:]) == 0
print(json.dumps([name for name in ("numpy", "mpmath") if name in sys.modules]))
print(json.dumps(hashlib.sha256(open(sys.argv[-1], "rb").read()).hexdigest()))
"""

# roots on a table forged with a counterexample at r = 24 (m = 2, c = 1): a
# complex pair in place of two zeros of h_24.  What it loaded.
FORGED = """
import json, sys
from chebsys import cli
from chebsys.exactpoly import Poly, compose_star
from chebsys.recurrence import gen_type1_records

def forged(p, r_max):
    records = gen_type1_records(p, r_max)
    rec, h = records[24], Poly((1, 1, 1)) * Poly((10, -7, 1))
    records[24] = rec._replace(h=h, t=compose_star(h, p.m, rec.k, rec.ell))
    return records

cli.gen_type1_records = forged
assert cli.main(sys.argv[1:]) == 0
print(json.dumps([name for name in ("numpy", "mpmath") if name in sys.modules]))
"""

# one 53-bit solve at a point off the stars, and one at 1+1j, which lies on
# the even star of m = 3, where two moduli tie
ONE_POINT = """
import json, sys
from chebsys.algebraic import solve_branches
from chebsys.recurrence import Params
p = Params(3, "7/3")
print(json.dumps([solve_branches(p, z).tie_flag for z in (complex(1, 0.5), complex(1, 1))]))
print(json.dumps([name for name in ("numpy", "mpmath") if name in sys.modules]))
"""

# the records are namedtuples and slots classes, so nothing loads dataclasses
DIET = """
import json, sys
import chebsys.cli
print(json.dumps("dataclasses" in sys.modules))
import chebsys.algebraic, chebsys.roots
print(json.dumps("dataclasses" in sys.modules))
"""

# the CLI writes its CSV rows itself
NO_CSV = """
import json, sys
import chebsys.cli
print(json.dumps("csv" in sys.modules))
"""

# no argparse, gettext or locale after the import and after each command,
# and no fractions (with its decimal and numbers) or json: the CLI reads --c
# into two integers and writes its JSON itself.  The operators are loaded
# only for verify, which runs last, and bring no fractions: the operators
# compare the Gram entries and the adjoint identity as integers, and import
# fractions only in gram_matrix, which returns Fractions.  The
# script itself imports no json: each command is one argument, its words
# split at spaces, and each line lists the modules loaded by then.
LEAN = """
import sys
from chebsys.cli import main

def loaded():
    names = ("argparse", "gettext", "locale", "fractions", "decimal", "numbers", "json",
             "chebsys.operators")
    return " ".join(name for name in names if name in sys.modules)

print(loaded())
for argv in sys.argv[1:]:
    assert main(argv.split(" ")) == 0
    print(loaded())
"""
LEAN_COMMANDS = [
    ["gen", "--m", "2", "--c", "3/7", "--R", "8", "--format", "csv", "--out", "gen.csv"],
    ["branches", "--m", "2", "--c", "7/3", "--grid", "-2:2:3,-1:1:2", "--out", "branches.json"],
    ["asymptote", "--m", "1", "--c", "1", "--z", "3,1", "--r-max", "30", "--out", "scan.json"],
    ["roots", "--m", "1", "--c", "3/2", "--r-list", "0,1,5,20", "--out", "roots.json"],
    ["verify", "--m", "2", "--c", "3/7", "--R", "8", "--out", "verify.json"],
]

# the module entry point, with an atexit handler that reports the collector
MODULE_EXIT = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0, gc.isenabled()))
sys.argv = ["chebsys", *sys.argv[1:]]
runpy.run_module("chebsys.cli", run_name="__main__")
"""

ROOT = Path(chebsys.__file__).resolve().parents[2]


def python(script: str, *argv: str, cwd=None, flags=()) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter that imports this checkout's chebsys."""
    src = str(Path(chebsys.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=120, cwd=cwd,
    )


def test_gen_loads_neither_numpy_nor_mpmath(tmp_path):
    done = python(SCRIPT, str(tmp_path))
    assert done.returncode == 0, done.stderr
    after_gen, after_verify = map(json.loads, done.stdout.splitlines())
    assert after_gen == []
    assert after_verify == []
    assert (tmp_path / "gen.csv.vectors.csv").exists()


@pytest.mark.parametrize(
    "m, c, R", [(1, "3/7", 30), (3, "23/41", 40), (4, "5/2", 48)], ids=["m1", "m3", "m4"]
)
def test_verify_loads_neither_numpy_nor_mpmath(tmp_path, m, c, R):
    # the probe proves every h_r from exact signs, at every m, and only the
    # numeric commands load cmath
    argv = ["verify", "--m", str(m), "--c", c, "--R", str(R), "--out", "verify.json"]
    done = python(COMMAND_CMATH, *argv, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert json.loads(lines[0]) is False
    assert json.loads(lines[2]) is False
    (probe,) = [
        ch["details"]
        for ch in json.loads((tmp_path / "verify.json").read_text())["checks"]
        if ch["name"] == "conjecture_probe"
    ]
    assert probe["certified"] == probe["checked"] > 0


def test_exact_half_and_kernel_load_neither_numpy_nor_mpmath():
    done = python(EXACT_HALF)
    assert done.returncode == 0, done.stderr
    assert list(map(json.loads, done.stdout.splitlines())) == [[], [], True]


def test_algebraic_loads_neither_numpy_nor_mpmath():
    done = python(ALGEBRAIC)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_one_point_solve_loads_neither_numpy_nor_mpmath():
    done = python(ONE_POINT)
    assert done.returncode == 0, done.stderr
    assert list(map(json.loads, done.stdout.splitlines())) == [[False, True], []]


@pytest.mark.parametrize("case", list(LOADS))
def test_mpmath_loads_only_where_a_command_solves_in_it(tmp_path, case):
    # no command imports mpmath, which would fail here, nor loads numpy: gen,
    # verify, a grid at any precision, its ties and branch points included,
    # a scan, and roots, whose zeros come from the probe's intervals
    argv, files = LOADS[case]
    done = python(COMMAND, *argv, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    got_numpy, got_files = map(json.loads, done.stdout.splitlines())
    assert got_numpy is False
    assert got_files == files


def test_roots_with_every_index_missed_loads_neither_numpy_nor_mpmath(tmp_path):
    # the Sturm intervals are refined as the step's are, to the same rows
    argv, files = LOADS["roots-m2"]
    done = python(MISSED, *argv, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    got_loaded, got_digest = map(json.loads, done.stdout.splitlines())
    assert got_loaded == []
    assert got_digest == files[argv[-1]]


def test_roots_writes_an_index_the_probe_did_not_prove_unproved(tmp_path):
    # the counterexample is one error row, the attraction summary names it,
    # and the probe block reports it; nothing is solved, so nothing loads
    argv = ["roots", "--m", "2", "--c", "1", "--r-list", "20,24,28", "--out", "roots.json"]
    done = python(FORGED, *argv, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
    payload = json.loads((tmp_path / "roots.json").read_text(encoding="utf-8"))
    failed = [row for row in payload["roots"] if row["error"]]
    assert failed == [{"r": 24, "error": "unproved"}]
    assert {row["r"] for row in payload["roots"]} == {20, 24, 28}
    summary = payload["summary"]
    assert summary["attraction"] == {"error": "the probe proved no zeros of h_24"}
    conjecture = summary["conjecture"]
    assert (conjecture["classification"], conjecture["offending_r"], conjecture["reason"]) == (
        "COUNTEREXAMPLE", 24, "complex-root"
    )


# the modules that import no mpmath, not even in a function, and the
# functions of the other modules that import it: where the exact half rounds
# into mpmath, and the library API of the branch solver that returns mpmath
# values, which no command calls
NO_MPMATH = ("roots.py", "probe.py", "recurrence.py", "operators.py")
MPMATH_HOMES = {
    "rationals.py": {"rat_to_mpf"},
    "exactpoly.py": {"eval_complex"},
    "algebraic.py": {"_to_mpc", "coefficients_b", "explicit_t"},
}


def test_no_module_of_the_package_imports_numpy():
    # nor the empty rootfind, which only the benchmark's tracer imports; nor
    # roots, the probe or the exact half mpmath, but where the exact half
    # rounds into it and where the branch solver converts into it
    for path in sorted(Path(chebsys.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        homes = {
            id(node): fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
                targets = names
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                targets = [f"{names[0]}.{alias.name}" for alias in node.names]
            else:
                continue
            where = (path.name, node.lineno)
            assert not any("rootfind" in name.split(".") for name in names + targets), where
            tops = {name.split(".")[0] for name in names}
            assert "numpy" not in tops, where
            if "mpmath" in tops:
                assert path.name not in NO_MPMATH, where
                if path.name in MPMATH_HOMES:
                    assert homes.get(id(node)) in MPMATH_HOMES[path.name], where
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    # numpy and mpmath are in the test extra alone
    assert project["dependencies"] == []


def test_only_operators_reads_its_private_names():
    # the integer images, their scales and the operator steps stay inside
    # operators: the other modules read its verdicts
    def is_operators(module, level):
        return (level, module) == (1, "operators") or module == "chebsys.operators"

    for path in sorted(Path(chebsys.__file__).parent.glob("*.py")):
        if path.stem == "operators":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if is_operators(node.module, node.level):
                    private = [alias.name for alias in node.names if alias.name.startswith("_")]
                    assert not private, (path.name, node.lineno, private)
                elif node.module in (None, "chebsys"):
                    aliases |= {a.asname or a.name for a in node.names if a.name == "operators"}
            elif isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names if a.name == "chebsys.operators"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                base = ast.unparse(node.value)
                assert base not in aliases, (path.name, node.lineno, f"{base}.{node.attr}")


# the probe's core proves (label, g) pairs: only its record layer knows the
# TypeIRecord format and forms each g from its h_r
RECORD_LAYER = ("isolate", "conjecture_probe", "_in_y")


def test_only_the_record_layer_of_the_probe_reads_records():
    fields = set(TypeIRecord._fields)
    tree = ast.parse(Path(probe.__file__).read_text(encoding="utf-8"))
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in RECORD_LAYER:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                assert node.attr not in fields, (node.lineno, ast.unparse(node))
            elif isinstance(node, ast.Name):
                assert node.id != "gen_type1_records", node.lineno


# the core proves and does nothing else: it takes no c and measures no gap,
# and the record layer alone measures, on a PASS
CORE = ("prove", "_step", "_sturm_isolated")
MEASURES = {"_least_gap", "_measured", "_gap_bounds"}


def test_the_core_of_the_probe_takes_no_c_and_measures_nothing():
    tree = ast.parse(Path(probe.__file__).read_text(encoding="utf-8"))
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    for name in CORE:
        args = functions[name].args
        assert "ratio" not in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs], name
        called = {ast.unparse(node.func) for node in ast.walk(functions[name]) if isinstance(node, ast.Call)}
        assert not called & MEASURES, (name, called & MEASURES)
    # in the whole package, only isolate reads the least-gap search
    readers = set()
    for path in sorted(Path(chebsys.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Name) and node.id == "_least_gap"
                    or isinstance(node, ast.Attribute) and node.attr == "_least_gap"
                    or isinstance(node, ast.alias) and node.name == "_least_gap"
                ):
                    readers.add((path.stem, getattr(top, "name", None)))
    assert readers == {("probe", "isolate")}


# the package root binds BACKEND, which the benchmark's run record reads as
# chebsys.BACKEND, and __version__: every other name is read from the
# module that defines it, and importing the package loads rationals alone
ROOT_IMPORT = """
import json, sys
import chebsys
print(json.dumps(sorted(name for name in sys.modules if name.startswith("chebsys."))))
"""


def test_package_root_binds_only_backend_and_version():
    tree = ast.parse(Path(chebsys.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    assert bound == {"BACKEND", "__version__"}
    # nor does any module resolve a name on first access
    for path in sorted(Path(chebsys.__file__).parent.glob("*.py")):
        defined = {
            node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)
        }
        assert not defined & {"__getattr__", "__dir__"}, path.name
    done = python(ROOT_IMPORT)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["chebsys.rationals"]


# the code that the package serves: its own modules, the acceptance battery
# and the benchmark (read only, never imported here); a public name none of
# them uses is kept only for the tests
MODULES = [path for path in sorted(Path(chebsys.__file__).parent.glob("*.py"))
           if path.name != "__init__.py"]
USERS = [*MODULES, ROOT / "tests" / "test_acceptance.py",
         *sorted((ROOT / "perfbench").glob("*.py"))]
UNUSED_BY_DESIGN = {
    # the benchmark's run record reads it inside a `python -c` string
    "rationals.BACKEND",
}


def test_every_public_name_is_used_outside_the_tests():
    used = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    # module-level functions, classes and constants, and the methods and
    # properties a class defines with def
    defined = set()
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [fn.name for fn in node.body if isinstance(fn, ast.FunctionDef)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [target.id for target in targets if isinstance(target, ast.Name)]
            defined.update(f"{path.stem}.{name}" for name in names if not name.startswith("_"))
    unused = {name for name in defined if name.rpartition(".")[2] not in used}
    assert unused == UNUSED_BY_DESIGN


# the benchmark's tracer, loaded by path as its runner loads it, wraps the
# layer functions it finds in the package; install() imports every module it
# patches, rootfind included, so it fails if one of them is gone, and skips
# a function that is gone, such as roots.attraction_study
TRACER = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
print(json.dumps(tracer.install(tracer.Recorder()), sort_keys=True))
"""


def test_the_benchmark_tracer_installs_against_the_package():
    # in a fresh interpreter, since install() patches the modules' globals
    done = python(TRACER, str(ROOT / "perfbench" / "tracer.py"))
    assert done.returncode == 0, done.stderr
    table = json.loads(done.stdout)
    assert "complex_roots" not in table and "attraction_study" not in table
    assert table["solve_branches"] == ["algebraic"]
    assert table["gen_type1_records"] == ["recurrence", "cli"]
    assert table["Poly.eval_complex"] == ["exactpoly"]


def test_no_module_loads_dataclasses():
    done = python(DIET)
    assert done.returncode == 0, done.stderr
    assert list(map(json.loads, done.stdout.splitlines())) == [False, False]


def test_cli_loads_no_csv():
    done = python(NO_CSV)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) is False


def test_commands_load_no_argparse_and_operators_only_for_verify(tmp_path):
    done = python(LEAN, *(" ".join(argv) for argv in LEAN_COMMANDS), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert [line.split() for line in done.stdout.splitlines()] == [[]] * 5 + [
        ["chebsys.operators"]
    ]


def test_import_timer_lists_the_modules_a_command_loads(tmp_path):
    # the numeric modules load through __import__, which -X importtime
    # reports, and not through importlib.import_module, which it does not
    argv = ["roots", "--m", "2", "--c", "59/62", "--r-list", "20,30", "--out", "roots.json"]
    done = python("import runpy; runpy.run_module('chebsys.cli', run_name='__main__')", *argv,
                  cwd=tmp_path, flags=["-X", "importtime"])
    assert done.returncode == 0, done.stderr
    timed = {
        line.rpartition("|")[2].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert {"chebsys.algebraic", "chebsys.roots", "chebsys.probe"} <= timed


# ---------------------------------------------------------------- records

# every record type of the package, with the fields it had as a
# typing.NamedTuple but for probe.Isolated, which lost its E when the probe
# came to work in y = x/c, algebraic.StarGeometry, which lost the c_float
# nothing read and the s0_angles and attractor_angles that copied another
# field, and algebraic.RegionReport, which lost the caller's tol and the
# dist_attractor that copied another distance; and but for the fields that
# copied the caller's arguments, z, r_max and precision of ScanResult, z of
# RegionReport and m of StarGeometry and HRecurrenceReport, which nothing
# read.  None has a default
RECORDS = {
    "algebraic": {
        "BranchCoefficients": ("values", "identity_error"),
        "BranchSet": ("z", "parts", "residuals", "tie_flag", "precision"),
        "RegionReport": ("dist_s0", "dist_even_star", "dist_odd_star", "omega"),
        "ScanResult": (
            "window", "ratio", "limit_value", "errors", "rates", "decay_estimate",
        ),
        "StarGeometry": (
            "a", "even_angles", "odd_angles", "attractor", "even_rotations",
            "odd_rotations", "attractor_rotations",
        ),
    },
    "operators": {"Scaled": ("nums", "scale")},
    "probe": {
        "Isolated": ("g", "intervals"),
        "ProbeReport": (
            "classification", "max_imag_normalized", "min_separation_normalized",
            "offending_r", "reason", "checked", "certified", "first_uncertified_r",
        ),
    },
    "recurrence": {
        "HRecurrenceReport": (
            "rows", "empirical_table", "ell_parity_rule_holds", "k_parity_rule_holds",
        ),
        "ShiftReport": ("checked", "mismatches"),
        "SignCheckRow": ("r", "k", "ell", "signs", "degenerate"),
        "TypeIRecord": ("r", "d", "k", "tau", "ell", "t", "h"),
        "TypeIVectorRecord": ("r", "components"),
    },
    "roots": {
        "RootReport": (
            "r", "h_roots", "t_roots", "off_attractor", "origin_multiplicity",
            "total_root_count",
        ),
    },
}


@pytest.mark.parametrize(
    "home, name", [(home, name) for home, names in RECORDS.items() for name in names]
)
def test_records_keep_their_fields_pickling_equality_and_replace(home, name):
    cls = getattr(importlib.import_module(f"chebsys.{home}"), name)
    fields = RECORDS[home][name]
    assert cls._fields == fields and cls._field_defaults == {}
    values = tuple(range(len(fields)))
    record = cls(*values)
    assert record == values and hash(record) == hash(values)
    restored = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
    assert type(restored) is cls and restored == record
    changed = record._replace(**{fields[0]: "x"})
    assert type(changed) is cls and changed == ("x", *values[1:])
    assert not hasattr(record, "__dict__")


# ---------------------------------------------------------------- slots records


def test_poly_equality_and_hash_ignore_the_caches():
    p = Poly.scaled((3, -1, 4), 7)
    q = Poly.scaled((3, -1, 4), 7)
    before = hash(p)
    assert p.coeffs == (Fraction(3, 7), Fraction(-1, 7), Fraction(4, 7))
    assert p == q and hash(p) == hash(q) == before
    assert p != Poly.scaled((3, -1, 4), 5)
    assert p != (p.nums, p.den)
    assert {p: 1}[q] == 1


@pytest.mark.parametrize(
    "record, field",
    [
        (Poly.scaled((1, 2), 3), "nums"),
        (Poly.scaled((1, 2), 3), "den"),
        (Params(2, "3/7"), "m"),
        (Params(2, "3/7"), "c"),
    ],
)
def test_assigning_a_field_raises(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == value


@pytest.mark.parametrize(
    "record",
    [
        Poly.scaled((-6, 0, 9, 12), 10),
        Poly.zero(),
        Params(3, "23/41"),
    ],
)
def test_pickle_round_trip_keeps_the_value(record):
    if isinstance(record, Poly):
        record.coeffs  # fill the cache first
    restored = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
    assert restored == record and hash(restored) == hash(record)
    assert repr(restored) == repr(record)


def test_convergence_failure_carries_its_poly_through_pickle():
    # the error keeps the polynomial it failed on through pickle
    poly = Poly.scaled((1, 0, -2), 3)
    exc = pickle.loads(pickle.dumps(ConvergenceFailure("no root", poly=poly)))
    assert exc.poly == poly and exc.poly.coeffs == poly.coeffs


def test_params_validation_and_cache_key():
    for m, c in [(0, 1), (True, 1), (1.0, 1), (1, 0), (1, "-1/2")]:
        with pytest.raises(ValueError):
            Params(m, c)
    with pytest.raises(ValueError, match=r"m must be an integer >= 1, got 0"):
        Params(0, 1)
    assert Params(2, "3/7") == Params(2, Fraction(3, 7))
    assert Params(2, "3/7") != Params(3, "3/7")
    assert Params(2, "3/7") != (2, (3, 7))
    assert repr(Params(2, 1)) == "Params(m=2, c=Fraction(1, 1))"

    @functools.lru_cache(maxsize=None)
    def keyed(p):
        return object()

    assert keyed(Params(2, "3/7")) is keyed(Params(2, Fraction(6, 14)))
    assert keyed.cache_info().hits == 1


# ---------------------------------------------------------------- exit path


def test_console_script_is_the_freezing_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"chebsys": "chebsys.cli:run"}


def test_run_freezes_after_main_returns(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append(("main", argv)) or 7)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append(("freeze",)))
    assert cli.run(["gen"]) == 7
    assert calls == [("main", ["gen"]), ("freeze",)]


def test_main_leaves_the_collector_as_it_found_it(tmp_path):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    out = tmp_path / "gen.json"
    assert cli.main(["gen", "--m", "2", "--c", "3/7", "--R", "4", "--out", str(out)]) == 0
    assert cli.main(["branches", "--m", "1", "--c", "1", "--z", "3,0", "--out", str(out)]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def test_module_entry_freezes_and_still_exits_normally(tmp_path):
    out = tmp_path / "gen.json"
    done = python(MODULE_EXIT, "gen", "--m", "1", "--c", "1", "--R", "2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True True\n"  # atexit ran, stdout was flushed
    assert json.loads(out.read_text())["config"]["R"] == 2
    bad = python(MODULE_EXIT, "gen", "--m", "0", "--c", "1", "--out", str(out))
    assert bad.returncode == 2 and bad.stdout == "True True\n"
