"""Command-line interface.

    chebsys <gen|verify|branches|asymptote|roots>
        --m INT --c P/Q [--R INT] [--n-max INT] [--r-max INT]
        [--z RE,IM | --grid re0:re1:n,im0:im1:n]
        [--precision BITS] [--seed INT] [--format json|csv] --out PATH

Every output embeds the full run configuration and a schema version, exact
rationals are serialized losslessly as "p/q" strings, floats are written with
17 significant digits, and no timestamps or environment details leak into
the files, so identical configurations (seed included) produce byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 numeric failure (a solver that did not converge, tied branches, an
operator truncation that overflowed, or a worker process that was lost); the
error classes live in ``chebsys.errors``.  The numeric half, and with it
numpy and mpmath, is imported only by the commands that use it, so ``gen``
runs on the standard library alone.  Its independent root solves and
evaluations run on every CPU the process may use (``chebsys.parallel``), and
the outputs do not depend on how many there are.

Output layout: with --format json a command writes one JSON file at --out.
With --format csv each table goes to --out plus a suffix (none for the main
table, ``.type2.csv`` and ``.vectors.csv`` for ``gen``) under a ``# schema=...
config=...`` line, and what is not a table goes to a JSON sidecar,
``<out>.geometry.json`` for ``branches`` and ``<out>.summary.json`` for
``roots``, or to a ``# summary=...`` line under the schema line for
``asymptote``.  ``verify`` always writes JSON.

The environment variable CHEBSYS_PRECISION overrides the default working
precision (53 bits) when --precision is not given.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import gc
import json
import math
import os
import random
import sys

from . import operators
from .errors import (
    ConvergenceFailure,
    DegenerateBranches,
    NoVariantMatches,
    OnStarSet,
    RootRefinementError,
    SolverDivergence,
    TruncationOverflow,
    UsageError,
    WorkerLost,
)
from .exactpoly import Poly, compose_star
from .rationals import Rational, as_rational, rat_str, rat_strs
from .recurrence import (
    FactorizationViolation,
    Params,
    gen_type1_records,
    gen_type1_vectors,
    gen_type2,
    verify_denominators,
    verify_h_recurrence,
    verify_shift,
)

SCHEMA = "chebsys/1"
REGION_TOL = 1e-9
EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# failures of the numeric machinery, as opposed to bad input or a failed check
NUMERIC_FAILURES = (
    SolverDivergence,
    DegenerateBranches,
    ConvergenceFailure,
    NoVariantMatches,
    RootRefinementError,
    TruncationOverflow,
    WorkerLost,
)


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def parse_point(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected RE,IM for --z, got {text!r}")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise UsageError(f"bad --z value {text!r}") from exc
    if not cmath.isfinite(z):
        raise UsageError(f"--z value {text!r} is not finite")
    return z


def _parse_axis(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"expected start:stop:count for a --grid axis, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad --grid axis {text!r}") from exc
    if count < 1:
        raise UsageError(f"--grid axis count must be >= 1, got {text!r}")
    axis = [start]
    if count > 1:
        step = (stop - start) / (count - 1)
        axis = [start + i * step for i in range(count)]
    # an infinite or NaN end, or a step beyond the range of a double
    if not all(map(math.isfinite, axis)):
        raise UsageError(f"--grid axis {text!r} has a coordinate that is not finite")
    return axis


def parse_grid(text: str) -> list:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected re0:re1:n,im0:im1:n for --grid, got {text!r}")
    res = _parse_axis(parts[0])
    ims = _parse_axis(parts[1])
    return [complex(re, im) for im in ims for re in res]


def _params(args) -> Params:
    try:
        c = as_rational(args.c)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad --c value {args.c!r}: {exc}") from exc
    try:
        return Params(args.m, c)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _precision(args) -> int:
    if args.precision is not None:
        precision = args.precision
    else:
        env = os.environ.get("CHEBSYS_PRECISION")
        if env is not None:
            try:
                precision = int(env)
            except ValueError as exc:
                raise UsageError(f"bad CHEBSYS_PRECISION value {env!r}") from exc
        else:
            precision = 53
    if precision < 53:
        raise UsageError("precision must be at least 53 bits")
    return precision


def _cell(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, list):  # exact coefficients, "p/q" strings
        return ";".join(value)
    return value


def _cells(row, width: int) -> list:
    cells = [_cell(value) for value in row]
    if len(cells) < width:
        # an error row: blank cells up to its final error cell
        cells[-1:] = [""] * (width - len(cells)) + cells[-1:]
    return cells


def emit(args, config: dict, doc: dict, tables=(), sidecar=(), notes=()) -> None:
    """Write a command's output in the layout of the module docstring; no
    other code in the CLI writes files.

    ``doc`` is the JSON document.  Each table is ``(suffix, header, rows)``,
    its rows a view over ``doc`` with a value per column, or fewer with the
    error last.  ``notes`` and ``sidecar`` name keys of ``doc``.
    """

    def dump(path: str, payload: dict) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            payload = {"schema": SCHEMA, "config": config, **payload}
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")

    if args.format == "json" or not tables:
        dump(args.out, doc)
        return
    head = f"# schema={SCHEMA} config={json.dumps(config, sort_keys=True)}\n"
    head += "".join(f"# {key}={json.dumps(doc[key], sort_keys=True)}\n" for key in notes)
    for suffix, header, rows in tables:
        with open(args.out + suffix, "w", encoding="utf-8", newline="") as fh:
            fh.write(head)
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(_cells(row, len(header)) for row in rows)
    if sidecar:
        dump(f"{args.out}.{sidecar[0]}.json", {key: doc[key] for key in sidecar})


def _setup(args, **extra):
    """The parameters, working precision and output configuration of a run."""
    p = _params(args)
    precision = _precision(args)
    config = {
        "command": args.command,
        "m": args.m,
        "c": rat_str(as_rational(args.c)),
        "precision": precision,
        "seed": args.seed,
        "format": args.format,
        "out": args.out,
        **extra,
    }
    return p, precision, config


def _numeric_setup(args, **extra):
    """``_setup`` for ``branches``, ``asymptote`` and ``roots``, whose star
    geometry and 53-bit solver take c as a normal double."""
    p, precision, config = _setup(args, **extra)
    try:
        tiny = float(p.c) < sys.float_info.min
    except OverflowError:
        raise UsageError(
            f"--c is too large for {args.command}: c must fit in a double (below about 1.8e308)"
        ) from None
    if tiny:
        raise UsageError(
            f"--c is too small for {args.command}: c must be a normal double (above about 2.2e-308)"
        )
    return p, precision, config


def _coeff_strings(poly: Poly) -> list:
    return rat_strs(poly.nums, poly.den)


# ---------------------------------------------------------------- gen


def cmd_gen(args) -> int:
    p, precision, config = _setup(args, R=args.R)
    if args.R < 0:
        raise UsageError("--R must be >= 0")
    records = gen_type1_records(p, args.R)
    vectors = gen_type1_vectors(p, args.R)
    type2 = gen_type2(p, args.R)
    doc = {
        "scalar": [
            {
                "r": rec.r,
                "d": rec.d,
                "k": rec.k,
                "tau": rec.tau,
                "ell": rec.ell,
                "t_degree": rec.t.degree,
                "h_degree": rec.h.degree,
                "t": _coeff_strings(rec.t),
                "h": _coeff_strings(rec.h),
            }
            for rec in records
        ],
        "type2": [
            {"n": n, "degree": poly.degree, "coeffs": _coeff_strings(poly)}
            for n, poly in enumerate(type2)
        ],
        "vectors": [
            {"r": rec.r, "components": [_coeff_strings(c) for c in rec.components]}
            for rec in vectors
        ],
    }
    emit(args, config, doc, [
        ("", ["r", "d", "k", "tau", "ell", "t_degree", "h_degree", "t", "h"],
         (row.values() for row in doc["scalar"])),
        (".type2.csv", ["n", "degree", "coeffs"], (row.values() for row in doc["type2"])),
        # a component's degree is one less than its coefficient count
        (".vectors.csv", ["r", "j", "degree", "coeffs"],
         ([row["r"], j, len(coeffs) - 1, coeffs]
          for row in doc["vectors"] for j, coeffs in enumerate(row["components"]))),
    ])
    return EXIT_OK


# ---------------------------------------------------------------- verify


def _check_factorization(p: Params, records: list):
    for rec in records:
        if compose_star(rec.h, p.m, rec.k, rec.ell) != rec.t:
            return "FAIL", {"witness": f"round trip mismatch at r={rec.r}"}
        if rec.tau >= 0:
            if rec.h.degree != rec.tau or rec.t.degree != rec.d - rec.k:
                return "FAIL", {"witness": f"degree mismatch at r={rec.r}"}
        elif not (rec.t.is_zero and rec.h.is_zero):
            return "FAIL", {"witness": f"tau=-1 but t_{rec.r} is nonzero"}
    return "PASS", {"checked": len(records)}


def _check_leading_structure(p: Params, records: list):
    # |lead(t_r)| * c^d must be a positive integer: |num| * P^d over den * Q^d
    P, Q = p.c.numerator, p.c.denominator
    for rec in records:
        if rec.tau < 0:
            continue
        num = abs(rec.t.nums[-1]) * P**rec.d
        den = rec.t.den * Q**rec.d
        if num % den:
            return "FAIL", {
                "witness": f"|lead(t_{rec.r})| * c^{rec.d} = {rat_strs([num], den)[0]}"
            }
    return "PASS", {"checked": len(records)}


def _check_denominators(p: Params, records: list, vectors: list, type2: list):
    report = verify_denominators(p, [rec.t for rec in records], vectors, type2)
    if not report.all_pass:
        return "FAIL", {"checked": report.checked, "witness": report.witness}
    return "PASS", {
        "checked": report.checked, "r_max": len(records) - 1, "n_max": len(type2) - 1
    }


def _check_adjointness(p: Params, seed: int, trials: int = 20):
    size = 12 + p.m
    op = operators.BandedOperator.for_params(p, size)
    rng = random.Random(seed)

    def random_vector():
        return tuple(
            Rational(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(size)
        )

    for _ in range(trials):
        v, w = random_vector(), random_vector()
        tv, _ = operators.apply_T(op, v)
        tw, _ = operators.apply_T_transpose(op, w)
        if operators.dot(tv, w) != operators.dot(v, tw):
            return "FAIL", {"witness": "adjoint identity broke on a random vector"}
    return "PASS", {"trials": trials, "size": size}


def cmd_verify(args) -> int:
    p, precision, config = _setup(args, R=args.R)
    if args.R < 0:
        raise UsageError("--R must be >= 0")
    n_max = config["n_max"] = args.n_max if args.n_max is not None else args.R
    if n_max < 0:
        raise UsageError("--n-max must be >= 0")
    checks = []

    def add(name, kind, status, details):
        checks.append({"name": name, "kind": kind, "status": status, "details": details})

    def hard(name, ok, details):
        add(name, "hard", "PASS" if ok else "FAIL", details)

    def report() -> int:
        passed = all(c["status"] == "PASS" for c in checks if c["kind"] == "hard")
        emit(args, config, {"passed": passed, "checks": checks})
        return EXIT_OK if passed else EXIT_VERIFY_FAILED

    # every check below shares these three generations
    try:
        records = gen_type1_records(p, args.R)
    except FactorizationViolation as exc:
        hard("factorization", False, {"witness": str(exc)})
        return report()
    vectors = gen_type1_vectors(p, args.R)
    type2 = gen_type2(p, n_max)

    add("factorization", "hard", *_check_factorization(p, records))

    shift = verify_shift(vectors)
    hard("shift_identity", shift.all_pass,
         {"checked": shift.checked, "mismatches": list(shift.mismatches)})

    scalars = [rec.t for rec in records]
    firsts = [rec.components[0] for rec in vectors]
    hard("vector_scalar_agreement", scalars == firsts, {"checked": args.R + 1})

    add("leading_coefficient_structure", "hard", *_check_leading_structure(p, records))
    add("denominator_structure", "hard", *_check_denominators(p, records, vectors, type2))

    # One size for every image.  By the shift identity deg t_{j,r} <= (r-j)/m,
    # and deg T_n = n, so no Horner intermediate of an index reaches the top
    # band at its own size r+m+2 (resp. n+m+2), nor at any larger one: each
    # image, and with it each jump verdict, is the one the index's own size
    # gives.  A vector table that breaks the bound already fails
    # factorization, shift_identity or vector_scalar_agreement.
    us, ws = operators.images(p, vectors, type2, max(args.R, n_max) + p.m + 2)
    bad_n = [n for n, w in enumerate(ws) if not operators.is_unit(w, n)]
    hard("jump_type2", not bad_n, {"checked": n_max + 1, "failures": bad_n})
    bad_r = [r for r, u in enumerate(us) if not operators.is_unit(u, r)]
    hard("jump_type1", not bad_r, {"checked": args.R + 1, "failures": bad_r})

    off = [
        (r, n)
        for r, row in enumerate(operators.pairings(us, ws))
        for n, value in enumerate(row)
        if value != (1 if n == r else 0)
    ]
    hard("biorthogonality_gram", not off,
         {"shape": [args.R + 1, n_max + 1], "offenders": off[:10]})

    add("transpose_adjointness", "hard", *_check_adjointness(p, args.seed))

    sign_report = verify_h_recurrence([rec.h for rec in records], p)
    add(
        "h_recurrence_signs",
        "informational",
        "INFO",
        {
            "empirical_table": {
                label: list(signs)
                for label, signs in sign_report.empirical_table.items()
            },
            "ell_parity_rule_holds": sign_report.ell_parity_rule_holds,
            "k_parity_rule_holds": sign_report.k_parity_rule_holds,
        },
    )

    from . import roots  # the numeric half: loads numpy and mpmath

    probe = roots.conjecture_probe(p, max(args.R, p.m), precision)
    add("conjecture_probe", "informational", "INFO", _probe_block(probe))
    return report()


def _probe_block(probe) -> dict:
    """The probe's report, as ``verify`` and ``roots`` both write it."""
    return {
        "classification": probe.classification,
        "max_imag_normalized": _json_safe(probe.max_imag_normalized),
        "min_separation_normalized": _json_safe(probe.min_separation_normalized),
        "offending_r": probe.offending_r,
        "reason": probe.reason,
        "checked": probe.checked,
        "certified": probe.certified,
        "first_uncertified_r": probe.first_uncertified_r,
    }


# ---------------------------------------------------------------- branches


def cmd_branches(args) -> int:
    from . import algebraic

    p, precision, config = _numeric_setup(args, z=args.z, grid=args.grid)
    points = [parse_point(args.z)] if args.z is not None else parse_grid(args.grid)
    geom = algebraic.star_geometry(p)
    geometry = {
        "a": geom.a,
        "s0_angles": list(geom.s0_angles),
        "even_star_angles": list(geom.even_angles),
        "odd_star_angles": list(geom.odd_angles),
        "attractor": geom.attractor,
        "branch_points": [[pt.real, pt.imag] for pt in algebraic.branch_points(p)],
    }
    batch = algebraic.solve_branches_many(p, points, precision)
    solver = {"batched": batch.batched, "fallback": batch.fallback}
    rows = []
    for z, bs in zip(points, batch.results):
        row: dict = {"z_re": z.real, "z_im": z.imag}
        rows.append(row)
        if isinstance(bs, SolverDivergence):
            row["error"] = "solver-divergence"
            continue
        lambdas = [complex(l) for l in bs.lambdas]
        moduli = [float(mod) for mod in bs.moduli]
        if not all(map(cmath.isfinite, lambdas)) or not all(map(math.isfinite, moduli)):
            # a finite branch value beyond the range of a double
            row["error"] = "overflow"
            continue
        region = algebraic.region_classify(p, z, REGION_TOL)
        row["lambdas"] = [[l.real, l.imag] for l in lambdas]
        row["moduli"] = moduli
        row["tie_flag"] = bs.tie_flag
        row["max_residual"] = max(bs.residuals)
        row["dist_s0"] = region.dist_s0
        row["dist_even_star"] = region.dist_even_star
        row["dist_odd_star"] = region.dist_odd_star
        row["omega"] = list(region.omega)
        row["error"] = ""
    header = ["z_re", "z_im"]
    for j in range(p.m + 1):
        header += [f"lambda{j}_re", f"lambda{j}_im"]
    header += [f"modulus{j}" for j in range(p.m + 1)]
    header += ["tie_flag", "max_residual", "dist_s0", "dist_even_star", "dist_odd_star"]
    header += [f"omega_{j}" for j in range(p.m + 1)]
    header += ["error"]

    def cells(row):
        if row["error"]:
            return row.values()
        return [
            row["z_re"], row["z_im"], *(x for pair in row["lambdas"] for x in pair),
            *row["moduli"], row["tie_flag"], row["max_residual"], row["dist_s0"],
            row["dist_even_star"], row["dist_odd_star"], *row["omega"], "",
        ]

    doc = {"geometry": geometry, "solver": solver, "rows": rows}
    emit(args, config, doc, [("", header, map(cells, rows))], sidecar=("geometry", "solver"))
    return EXIT_OK


# ---------------------------------------------------------------- asymptote


def cmd_asymptote(args) -> int:
    from . import algebraic

    p, precision, config = _numeric_setup(args, z=args.z, r_max=args.r_max)
    if args.r_max < 0:
        raise UsageError("--r-max must be >= 0")
    z = parse_point(args.z)
    scan = algebraic.asymptotic_scan(p, z, args.r_max, precision)
    summary = {
        "L": [scan.limit_value.real, scan.limit_value.imag],
        "ratio": scan.ratio,
        "window": scan.window,
        "decay_estimate": _json_safe(scan.decay_estimate),
    }
    rows = [
        {"r": r, "error": scan.errors[r], "rate": scan.rates[r]}
        for r in range(len(scan.errors))
    ]
    emit(
        args, config, {"summary": summary, "rows": rows},
        [("", ["r", "e_r", "rate", "ratio"], ([*row.values(), scan.ratio] for row in rows))],
        notes=("summary",),
    )
    return EXIT_OK


# ---------------------------------------------------------------- roots


def _resolve_r_list(args) -> list:
    if args.r_list:
        try:
            values = sorted({int(part) for part in args.r_list.split(",")})
        except ValueError as exc:
            raise UsageError(f"bad --r-list value {args.r_list!r}") from exc
    else:
        r_max = args.r_max
        values = sorted({max(1, math.ceil(r_max / 3)), max(1, math.ceil(2 * r_max / 3)), r_max})
    if any(v < 0 for v in values):
        raise UsageError("--r-list entries must be >= 0")
    return values


def cmd_roots(args) -> int:
    from . import algebraic, roots

    p, precision, config = _numeric_setup(args, r_max=args.r_max)
    if args.r_max < 0:
        raise UsageError("--r-max must be >= 0")
    r_list = config["r_list"] = _resolve_r_list(args)
    records = gen_type1_records(p, max(r_list))
    geom = algebraic.star_geometry(p)
    rows = []
    # each index is solved once: its report feeds the rows and the attraction
    # study, which reports the first failing index
    reports = []
    failure = None
    for r, report in roots.solve_indices(p, records, r_list, precision):
        if isinstance(report, ConvergenceFailure):
            failure = failure or report
            rows.append({"r": r, "error": "convergence-failure"})
            continue
        reports.append((r, report))
        if report is None:
            continue
        for root, mult in report.t_roots:
            rows.append(
                {
                    "r": r,
                    "root_re": root.real,
                    "root_im": root.imag,
                    "multiplicity": mult,
                    "star_distance": roots.distance_to_star(root, geom),
                    "is_origin": root == 0,
                    "error": "",
                }
            )
    summary: dict = {}
    if failure is not None:
        summary["attraction"] = {"error": str(failure)}
    else:
        study = roots.summarize_attraction(reports)
        summary["attraction"] = {
            "rows": [
                {
                    "r": row.r,
                    "root_count": row.root_count,
                    "max_distance": _json_safe(row.max_distance),
                    "mean_distance": _json_safe(row.mean_distance),
                }
                for row in study.rows
            ],
            "verdict_max": study.verdict_max,
            "verdict_mean": study.verdict_mean,
        }
    try:
        probe = roots.conjecture_probe(p, max(max(r_list), p.m), precision)
        summary["conjecture"] = _probe_block(probe)
    except ConvergenceFailure as exc:
        summary["conjecture"] = {"error": str(exc)}
    header = ["r", "root_re", "root_im", "multiplicity", "star_distance", "is_origin", "error"]
    emit(
        args, config, {"summary": summary, "roots": rows},
        [("", header, (row.values() for row in rows))], sidecar=("summary",),
    )
    return EXIT_OK


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebsys",
        description="exact recurrence generators, structural verifiers, and "
        "branch asymptotics for the star recurrence family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--m", type=int, required=True, help="band offset, >= 1")
        sp.add_argument("--c", type=str, required=True, help="exact rational P/Q, > 0")
        sp.add_argument("--precision", type=int, default=None, help="working precision in bits (>= 53)")
        sp.add_argument("--seed", type=int, default=0, help="seed for any sampled data")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", type=str, required=True, help="output path")

    sp = sub.add_parser("gen", help="emit coefficient tables for all three families")
    common(sp)
    sp.add_argument("--R", type=int, default=20, help="largest index to generate")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("verify", help="run the structural check battery")
    common(sp)
    sp.add_argument("--R", type=int, default=40)
    sp.add_argument("--n-max", dest="n_max", type=int, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("branches", help="solve the branch equation on a point or grid")
    common(sp)
    where = sp.add_mutually_exclusive_group(required=True)
    where.add_argument("--z", type=str, default=None, help="single point RE,IM")
    where.add_argument("--grid", type=str, default=None, help="grid re0:re1:n,im0:im1:n")
    sp.set_defaults(func=cmd_branches)

    sp = sub.add_parser("asymptote", help="scan the scaled-term error decay at a point")
    common(sp)
    sp.add_argument("--z", type=str, required=True, help="scan point RE,IM")
    sp.add_argument("--r-max", dest="r_max", type=int, default=60)
    sp.set_defaults(func=cmd_asymptote)

    sp = sub.add_parser("roots", help="root tables, attraction study, and probe")
    common(sp)
    sp.add_argument("--r-max", dest="r_max", type=int, default=60)
    sp.add_argument("--r-list", dest="r_list", type=str, default=None, help="comma list of indices")
    sp.set_defaults(func=cmd_roots)
    return parser


def _absorb_negative_values(argv: list) -> list:
    # argparse mistakes "-2:2:5,-2:2:5" for an option; fold such values into
    # the "--opt=value" form so negative coordinates parse naturally
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--z", "--grid") and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt.startswith("-") and ("," in nxt or ":" in nxt):
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    argv = _absorb_negative_values(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, OnStarSet, ValueError, TypeError, OSError) as exc:
        print(f"chebsys: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NUMERIC_FAILURES as exc:
        print(f"chebsys: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def run(argv=None) -> int:
    """``main`` for a process that ends when it returns: ``python -m
    chebsys.cli`` and the ``chebsys`` console script.

    Once the command has returned, ``gc.freeze()`` moves every live object
    to the permanent generation, which the collections of interpreter
    shutdown skip; on a numeric job they would otherwise walk the whole
    numpy and mpmath heap.  The interpreter still exits normally, so atexit
    handlers run, stdio is flushed and a profiler sees the exit.  Tests and
    other in-process callers use ``main``, which leaves the collector alone.
    """
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
