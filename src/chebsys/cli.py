"""Command-line interface.

    chebsys gen       --m INT --c P/Q [--R INT] COMMON
    chebsys verify    --m INT --c P/Q [--R INT] [--n-max INT] COMMON
    chebsys branches  --m INT --c P/Q (--z RE,IM | --grid RE0:RE1:N,IM0:IM1:N) COMMON
    chebsys asymptote --m INT --c P/Q --z RE,IM [--r-max INT] COMMON
    chebsys roots     --m INT --c P/Q [--r-max INT] [--r-list R,R,...] COMMON
    chebsys -h | --help

    COMMON: [--precision BITS] [--seed INT] [--format json|csv] --out PATH
    defaults: --R 20 (gen) or 40 (verify), --n-max the --R, --r-max 60,
    --r-list ceil(r_max/3),ceil(2*r_max/3),r_max, --precision 53, --seed 0,
    --format json

Options follow the command, each as ``--opt value`` or ``--opt=value``.  A
value is the next argument whatever it starts with, so ``--z -2,1`` and
``--grid -2:2:3,-1:1:2`` need no ``=``.  A name may be cut to a prefix that
names one option of the command (``--prec 64``), and an option given twice
keeps its last value.  ``-h`` or ``--help`` prints this text and exits 0;
any other misuse of the command line exits 2 with one ``chebsys: error:``
line.

Every output embeds the full run configuration and a schema version, exact
rationals are serialized losslessly as "p/q" strings, floats are written with
17 significant digits, and no timestamps or environment details leak into
the files, so identical configurations (seed included) produce byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 numeric failure (a branch solve that did not converge); the error classes
live in ``chebsys.errors``.  A process imports only what its command runs: the
operator checks (``operators``) only for ``verify``, the numeric half only
for the commands that use it, and mpmath, numpy, ``fractions`` and ``json``
for none.  The CLI reads --c into two integers, ``verify`` reads the
operators' integer verdicts on the Gram matrix and the adjoint identity,
and the CLI writes its JSON itself (``_to_json``); a --c that is not a plain
``[+-]digits[/digits]`` loads ``fractions`` to be read as ``Fraction``
reads it.  ``branches`` and ``asymptote`` solve and certify every branch
value on the integer kernel, at any precision, and the scan steps its terms
there in fixed point.  ``gen`` and ``verify`` are exact; ``roots`` takes
the zeros of every index the probe proves (in y = x/c, on the c = 1
polynomials for a generated table), by its step or by Sturm's theorem,
from its isolating intervals, refined with exact signs, at x = c*y, and
writes an index it does not prove (zeros not real and simple) as one
``unproved`` error row.  Every command runs in one process.

Output layout: with --format json a command writes one JSON file at --out.
With --format csv each table goes to --out plus a suffix (none for the main
table, ``.type2.csv`` and ``.vectors.csv`` for ``gen``) under a ``# schema=...
config=...`` line, and what is not a table goes to a JSON sidecar,
``<out>.geometry.json`` for ``branches`` and ``<out>.summary.json`` for
``roots``, or to a ``# summary=...`` line under the schema line for
``asymptote``.  ``verify`` always writes JSON.
"""

from __future__ import annotations

import gc
import itertools
import math
import sys
from types import SimpleNamespace

from _json import encode_basestring_ascii as _quote

from .errors import ConvergenceFailure, OnStarSet, SolverDivergence, UsageError
from .exactpoly import compose_star
from .rationals import rat_strs, ratio
from .recurrence import (
    Params,
    closed_form_strs,
    decompose_index,
    gen_type1_records,
    gen_type1_vectors,
    gen_type2,
    verify_h_recurrence,
    verify_shift,
)

SCHEMA = "chebsys/1"
EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


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
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise UsageError(f"--z value {text!r} is not finite")
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise UsageError(f"--z value {text!r} has a modulus beyond the largest double")
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
    # the point of the largest modulus has the largest |re| and |im| both
    if not math.isfinite(math.hypot(max(map(abs, res)), max(map(abs, ims)))):
        raise UsageError(f"--grid {text!r} has a point of modulus beyond the largest double")
    return [complex(re, im) for im in ims for re in res]


def _params(args) -> Params:
    # c is checked on its own first, for its own message
    try:
        ratio(args.c)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad --c value {args.c!r}: {exc}") from exc
    try:
        return Params(args.m, args.c)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _precision(args) -> int:
    if args.precision < 53:
        raise UsageError("precision must be at least 53 bits")
    return args.precision


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, list):  # exact coefficients, "p/q" strings
        return ";".join(value)
    return str(value)  # as the csv module writes any other value


def _cells(row, width: int) -> list:
    cells = [_cell(value) for value in row]
    if len(cells) < width:
        # an error row: blank cells up to its final error cell
        cells[-1:] = [""] * (width - len(cells)) + cells[-1:]
    return cells


def _quoted(cell: str) -> str:
    """A CSV cell, quoted with its quotes doubled where it holds a comma, a
    quote or a line feed."""
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_rows(fh, rows) -> None:
    """Write rows of string cells as ``csv.writer(fh, lineterminator="\\n")``
    writes them on CPython 3.11: each cell quoted as ``_quoted`` quotes it,
    a bare carriage return left unquoted, and a row of one empty cell
    written as ``""``.
    """
    for cells in rows:
        line = ",".join(map(_quoted, cells))
        fh.write(line + "\n" if line or len(cells) != 1 else '""\n')


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _scalar(value):
    """The JSON text of a str, None, bool, int or float as the json module
    writes it, or None for any other value."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    return None


def _strings(items, sep: str):
    """The JSON texts of ``items`` joined by ``sep`` in one pass where all are
    strings, such as a polynomial's coefficients, or finite floats; else None."""
    try:
        if isinstance(items[0], str):
            return sep.join(map(_quote, items))
        if isinstance(items[0], float):
            text = sep.join(map(float.__repr__, items))
            # json writes inf and nan as Infinity and NaN; no other text has an "n"
            return None if "n" in text else text
    except TypeError:  # an item of another kind
        pass
    return None


def _to_json(value, indent: bool = True) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, or with ``indent``
    false ``json.dumps(value, sort_keys=True)``, byte for byte, for a value
    built of scalars, lists, tuples and dicts with string keys."""
    return _encoded(value, "\n" if indent else None)


def _encoded(value, newline):
    # newline: a line feed and the indentation of the line that value opens
    # on, or None for the compact form
    text = _scalar(value)
    if text is not None:
        return text
    inner = newline and newline + "  "
    sep = "," + inner if inner else ", "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = _strings(value, sep) or sep.join(
            [_scalar(item) or _encoded(item, inner) for item in value]
        )
        return f"[{inner}{body}{newline}]" if inner else f"[{body}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([
            f"{_quote(key)}: {_scalar(item) or _encoded(item, inner)}"
            for key, item in sorted(value.items())
        ])
        return f"{{{inner}{body}{newline}}}" if inner else f"{{{body}}}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def emit(args, config: dict, doc: dict, tables=(), sidecar=(), notes=()) -> None:
    """Write a command's output in the layout of the module docstring; no
    other code in the CLI writes files.

    ``doc`` is the JSON document.  Each table is ``(suffix, header, rows)``,
    its rows a view over ``doc`` with a value per column, or fewer with the
    error last.  ``notes`` and ``sidecar`` name keys of ``doc``.
    """

    def dump(path: str, payload: dict) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_to_json({"schema": SCHEMA, "config": config, **payload}))
            fh.write("\n")

    if args.format == "json" or not tables:
        dump(args.out, doc)
        return
    head = f"# schema={SCHEMA} config={_to_json(config, indent=False)}\n"
    head += "".join(f"# {key}={_to_json(doc[key], indent=False)}\n" for key in notes)
    for suffix, header, rows in tables:
        with open(args.out + suffix, "w", encoding="utf-8", newline="") as fh:
            fh.write(head)
            cells = (_cells(row, len(header)) for row in rows)
            _write_rows(fh, itertools.chain([header], cells))
    if sidecar:
        dump(f"{args.out}.{sidecar[0]}.json", {key: doc[key] for key in sidecar})


def _setup(args, **extra):
    """The parameters, working precision and output configuration of a run."""
    p = _params(args)
    precision = _precision(args)
    config = {
        "command": args.command,
        "m": args.m,
        "c": "%d/%d" % p.ratio,
        "precision": precision,
        "seed": args.seed,
        "format": args.format,
        "out": args.out,
        **extra,
    }
    return p, precision, config


def _numeric_setup(args, **extra):
    """``_setup`` for ``branches``, ``asymptote`` and ``roots``: the star
    geometry of ``branches`` and ``asymptote`` takes c as a normal double,
    and ``roots`` writes its zeros x = c*y as doubles."""
    p, precision, config = _setup(args, **extra)
    num, den = p.ratio
    try:
        tiny = num / den < sys.float_info.min
    except OverflowError:
        raise UsageError(
            f"--c is too large for {args.command}: c must fit in a double (below about 1.8e308)"
        ) from None
    if tiny:
        raise UsageError(
            f"--c is too small for {args.command}: c must be a normal double (above about 2.2e-308)"
        )
    return p, precision, config


# ---------------------------------------------------------------- gen


def cmd_gen(args) -> int:
    p, precision, config = _setup(args, R=args.R)
    if args.R < 0:
        raise UsageError("--R must be >= 0")
    # every coefficient of t_r and T_n is written straight from the closed
    # form, one small gcd each; the recurrence stays verify's reference, and
    # h_r's strings are picked from t_r's (_h_strs)
    ts, type2 = closed_form_strs(p, args.R)
    scalar = []
    for r, t in enumerate(ts):
        d, k, tau, ell = decompose_index(r, p.m)
        scalar.append({"r": r, "d": d, "k": k, "tau": tau, "ell": ell, "t_degree": len(t) - 1,
                       "h_degree": tau, "t": t, "h": _h_strs(t, k, ell, p.m)})
    doc = {
        "scalar": scalar,
        "type2": [{"n": n, "degree": n, "coeffs": T} for n, T in enumerate(type2)],
        # t_{j,r} = t_{r-j}, and 0 for r < j: the shift identity and the
        # scalar agreement that verify checks on gen_type1_vectors
        "vectors": [
            {"r": r, "components": [ts[r - j] if r >= j else [] for j in range(p.m)]}
            for r in range(args.R + 1)
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


def _h_strs(t: list, k: int, ell: int, m: int) -> list:
    """h_r's strings, picked from ``t``, t_r's: by the star factorization,
    which the closed form proves and ``verify`` checks, h_r is t_r's
    coefficients at the powers ell + (m+1)*j, times (-1)^k, so each picked
    fraction is h_r's, reduced."""
    picked = t[ell :: m + 1]
    if k % 2:
        picked = [s if s == "0/1" else s[1:] if s[0] == "-" else "-" + s for s in picked]
    return picked


# ---------------------------------------------------------------- verify


def _check_factorization(p: Params, records: list):
    """The recurrence's t_r against compose_star of the closed form's h_r."""
    for rec in records:
        star = compose_star(rec.h, p.m, rec.k, rec.ell)
        if star != rec.t:
            pairs = itertools.zip_longest(star.nums, rec.t.nums, fillvalue=0)
            i = next(i for i, (a, b) in enumerate(pairs) if a * rec.t.den != b * star.den)
            witness = f"t_r != (-1)^k z^ell h_r(z^(m+1)) at (r, i) = ({rec.r}, {i})"
            return "FAIL", {"witness": witness}
        # with t_r the star image of h_r, deg t_r = ell + (m+1)*deg h_r, so
        # deg h_r = tau is deg t_r = d - k, and t_r = 0 when tau = -1
        if rec.h.degree != rec.tau:
            return "FAIL", {"witness": f"degree mismatch at r={rec.r}: deg h_r != tau"}
    return "PASS", {"checked": len(records)}


def _check_leading_structure(p: Params, records: list):
    # |lead(t_r)| * c^d must be a positive integer: |num| * P^d over den * Q^d
    P, Q = p.ratio
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


def _check_adjointness(p: Params, seed: int):
    from . import operators

    trials, size = 20, 12 + p.m
    if not operators.adjoint_holds(p, seed, trials, size):
        return "FAIL", {"witness": "adjoint identity broke on a random vector"}
    return "PASS", {"trials": trials, "size": size}


def cmd_verify(args) -> int:
    from . import operators

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
    records = gen_type1_records(p, args.R)
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

    us, ws = operators.images(p, vectors, type2)
    bad_n = [n for n, w in enumerate(ws) if not operators.is_unit(w, n)]
    hard("jump_type2", not bad_n, {"checked": n_max + 1, "failures": bad_n})
    bad_r = [r for r, u in enumerate(us) if not operators.is_unit(u, r)]
    hard("jump_type1", not bad_r, {"checked": args.R + 1, "failures": bad_r})

    # with u_r = e_r and w_n = e_n, <u_r, w_n> is the Kronecker delta: the
    # pairings are formed only when a jump check failed
    off = operators.gram_offenders(us, ws) if bad_r or bad_n else []
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

    # exact: loads no mpmath
    from .probe import isolate

    add("conjecture_probe", "informational", "INFO", _probe_block(isolate(p, records)[0]))
    return report()


def _probe_block(probe) -> dict:
    """The probe's report, as ``verify`` and ``roots`` both write it."""
    return {key: _json_safe(value) for key, value in probe._asdict().items()}


# ---------------------------------------------------------------- branches


def cmd_branches(args) -> int:
    from . import algebraic

    if (args.z is None) == (args.grid is None):
        raise UsageError("branches takes exactly one of --z and --grid")
    p, precision, config = _numeric_setup(args, z=args.z, grid=args.grid)
    points = [parse_point(args.z)] if args.z is not None else parse_grid(args.grid)
    geom = algebraic.star_geometry(p)
    geometry = {
        "a": geom.a,
        "s0_angles": list(geom.odd_angles),
        "even_star_angles": list(geom.even_angles),
        "odd_star_angles": list(geom.odd_angles),
        "attractor": geom.attractor,
        "branch_points": [[pt.real, pt.imag] for pt in algebraic.branch_points(p)],
    }
    rows = []
    for z, bs in zip(points, algebraic.solve_branches_many(p, points, precision)):
        row: dict = {"z_re": z.real, "z_im": z.imag}
        rows.append(row)
        if isinstance(bs, SolverDivergence):
            row["error"] = "solver-divergence"
            continue
        lambdas, moduli = bs.values, bs.moduli
        parts = [x for value in lambdas for x in (value.real, value.imag)]
        if not all(map(math.isfinite, parts + list(moduli))):
            # a finite branch value beyond the range of a double
            row["error"] = "overflow"
            continue
        region = algebraic.region_classify(p, z)
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

    doc = {"geometry": geometry, "rows": rows}
    emit(args, config, doc, [("", header, map(cells, rows))], sidecar=("geometry",))
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
        values = sorted({-(-r_max // 3), -(-2 * r_max // 3), r_max})
    if any(v < 0 for v in values):
        raise UsageError("--r-list entries must be >= 0")
    return values


def cmd_roots(args) -> int:
    from . import roots

    p, precision, config = _numeric_setup(args, r_max=args.r_max)
    if args.r_max < 0:
        raise UsageError("--r-max must be >= 0")
    r_list = config["r_list"] = _resolve_r_list(args)
    records = gen_type1_records(p, max(r_list))
    # the probe isolates the zeros of every index it proves, and the solve
    # takes them from there
    probe, isolated = roots.isolate(p, records)
    rows = []
    # each index is solved once: its report feeds the rows and the attraction
    # rows, which the first failing index replaces
    attraction = []
    failure = None
    for r, report in roots.solve_indices(p, records, r_list, precision, isolated):
        if isinstance(report, ConvergenceFailure):
            failure = failure or report
            rows.append({"r": r, "error": "unproved"})
            continue
        if report is None:
            attraction.append({"r": r, "root_count": 0, "off_attractor": 0})
            continue
        attraction.append(
            {"r": r, "root_count": report.total_root_count, "off_attractor": report.off_attractor}
        )
        for root, mult in report.t_roots:
            rows.append(
                {
                    "r": r,
                    "root_re": root.real,
                    "root_im": root.imag,
                    "multiplicity": mult,
                    "is_origin": root == 0,
                    "error": "",
                }
            )
    summary = {
        "attraction": {"rows": attraction} if failure is None else {"error": str(failure)},
        "conjecture": _probe_block(probe),
    }
    header = ["r", "root_re", "root_im", "multiplicity", "is_origin", "error"]
    emit(
        args, config, {"summary": summary, "roots": rows},
        [("", header, (row.values() for row in rows))], sidecar=("summary",),
    )
    return EXIT_OK


# ---------------------------------------------------------------- wiring

# Each command's function and options.  An option maps to (kind, default):
# kind is int, str or a tuple of the values allowed, and a default of ...
# marks an option that must be given.  The value of --opt-name is read as
# args.opt_name.
_COMMON = {
    "--m": (int, ...),
    "--c": (str, ...),
    "--precision": (int, 53),
    "--seed": (int, 0),
    "--format": (("json", "csv"), "json"),
    "--out": (str, ...),
}
COMMANDS = {
    "gen": (cmd_gen, {**_COMMON, "--R": (int, 20)}),
    "verify": (cmd_verify, {**_COMMON, "--R": (int, 40), "--n-max": (int, None)}),
    "branches": (cmd_branches, {**_COMMON, "--z": (str, None), "--grid": (str, None)}),
    "asymptote": (cmd_asymptote, {**_COMMON, "--z": (str, ...), "--r-max": (int, 60)}),
    "roots": (cmd_roots, {**_COMMON, "--r-max": (int, 60), "--r-list": (str, None)}),
}
HELP = ("-h", "--help")


def _help(args) -> int:
    sys.stdout.write(__doc__ or "")
    return EXIT_OK


def _option(options: dict, name: str) -> str:
    """The option that ``name`` names: itself, or the one option it is a prefix of."""
    if name in options:
        return name
    hits = [full for full in options if full.startswith(name)] if name[2:] else []
    if len(hits) == 1:
        return hits[0]
    if hits:
        raise UsageError(f"ambiguous option {name!r}: {', '.join(hits)}")
    raise UsageError(f"unknown option {name!r}")


def _value(name: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"bad {name} value {text!r}: expected an integer") from None
    if kind is not str and text not in kind:
        raise UsageError(f"bad {name} value {text!r}: expected {' or '.join(kind)}")
    return text


class Parser:
    """The command line grammar of the module docstring, over ``COMMANDS``."""

    def parse_args(self, argv) -> SimpleNamespace:
        """``command``, ``func`` and a value for every option of the command,
        read in one pass over ``argv``; a misuse raises ``UsageError``.  With
        ``-h`` or ``--help``, ``func`` prints the help instead."""
        command, *tokens = argv or [""]
        if command in HELP:
            return SimpleNamespace(command=None, func=_help)
        if command not in COMMANDS:
            raise UsageError(f"expected a command ({', '.join(COMMANDS)}), got {command!r}")
        func, options = COMMANDS[command]
        given = {}
        tokens = iter(tokens)
        for token in tokens:
            if token in HELP:
                return SimpleNamespace(command=command, func=_help)
            if not token.startswith("-"):
                raise UsageError(f"unexpected argument {token!r}")
            name, eq, text = token.partition("=")
            name = _option(options, name)
            if not eq:
                text = next(tokens, None)
                if text is None:
                    raise UsageError(f"{name} expects a value")
            given[name] = _value(name, options[name][0], text)
        values = {}
        for name, (_, default) in options.items():
            value = values[name[2:].replace("-", "_")] = given.get(name, default)
            if value is ...:
                raise UsageError(f"{command} requires {name}")
        return SimpleNamespace(command=command, func=func, **values)


def build_parser() -> Parser:
    return Parser()


def main(argv=None) -> int:
    # every coefficient a command makes is written in decimal, at any size
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except (UsageError, OnStarSet, OSError) as exc:
        print(f"chebsys: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverDivergence as exc:  # the one numeric failure a command lets out
        print(f"chebsys: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def run(argv=None) -> int:
    """``main`` for a process that ends when it returns: ``python -m
    chebsys.cli`` and the ``chebsys`` console script.

    Once the command has returned, ``gc.freeze()`` moves every live object
    to the permanent generation, which the collections of interpreter
    shutdown skip; they would otherwise walk every object the job left
    alive, its modules and its tables, which took 6-8 ms of every job's exit.
    The interpreter still exits normally, so atexit handlers run, stdio is
    flushed and a profiler sees the exit.  Tests and other in-process
    callers use ``main``, which leaves the collector alone.
    """
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
