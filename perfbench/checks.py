"""Output checks for benchmark jobs, from invariants rather than byte digests.

Each check reads what the CLI wrote and tests a property any correct version
must keep, so a change that moves floats in the last digits or adds probe
fields still passes.  ``check(job, workdir)`` returns None when the output is
correct and a one-line reason otherwise.  Nothing here imports chebsys.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from pathlib import Path

# Hard checks that `verify` reported at the time the benchmark was written;
# later versions may add more, and every hard check must pass.
VERIFY_HARD_CHECKS = frozenset(
    {
        "factorization",
        "shift_identity",
        "vector_scalar_agreement",
        "leading_coefficient_structure",
        "jump_type2",
        "jump_type1",
        "biorthogonality_gram",
        "transpose_adjointness",
    }
)
SAMPLES = 24  # recurrence indices checked per family in a `gen` output
ASYMPTOTE_TOL = 0.05  # |decay_estimate - ratio|, as in acceptance criterion 5


def check(job, workdir: Path):
    """None if the job's output holds its invariants, else the reason."""
    try:
        return _CHECKS[job.command](job, Path(workdir))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------- file access


def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv(path: Path) -> tuple:
    """(config, extra comment lines, header, rows) of a CLI CSV file."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    config = json.loads(comments[0].split(" config=", 1)[1])
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    return config, comments[1:], table[0], table[1:]


def _poly(text) -> list:
    """Ascending coefficients from a list of "p/q" strings or a ';'-joined row."""
    if isinstance(text, str):
        text = text.split(";") if text else []
    return _trim([Fraction(s) for s in text])


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------- gen


def _combine(a: list, b: list, scale_a=1, scale_b=1, shift_a=0) -> list:
    """``scale_a * x**shift_a * a + scale_b * b`` on coefficient lists."""
    out = [Fraction(0)] * max(len(a) + shift_a, len(b))
    for i, v in enumerate(a):
        out[i + shift_a] += scale_a * v
    for i, v in enumerate(b):
        out[i] += scale_b * v
    return _trim(out)


def _check_type1(seq: list, m: int, c: Fraction, first: list, indices) -> str | None:
    """``c*t_r = z*t_{r-m} - t_{r-m-1}`` with ``t_r = first[r]`` for r < m."""
    for r in range(min(m, len(seq))):
        if seq[r] != first[r]:
            return f"initial term {r} is {seq[r]}"
    for r in indices:
        older = seq[r - m - 1] if r - m - 1 >= 0 else []
        if _combine(seq[r], [], scale_a=c) != _combine(seq[r - m], older, 1, -1, 1):
            return f"recurrence fails at r={r}"
    return None


def _check_type2(seq: list, m: int, c: Fraction, indices) -> str | None:
    """``T_0 = 1`` and ``T_n = x*T_{n-1} - c*T_{n-1-m}``."""
    if seq[0] != [1]:
        return "T_0 is not 1"
    for n in indices:
        older = seq[n - 1 - m] if n - 1 - m >= 0 else []
        if seq[n] != _combine(seq[n - 1], older, 1, -c, 1):
            return f"companion recurrence fails at n={n}"
    return None


class _Terms:
    """A family's rows of coefficient strings, parsed on first use.

    Only the sampled indices and their predecessors are ever parsed, which
    keeps checking a large table far cheaper than the job that wrote it.
    """

    def __init__(self, rows: list):
        self.rows = rows
        self.parsed: dict = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> list:
        if i not in self.parsed:
            self.parsed[i] = _poly(self.rows[i])
        return self.parsed[i]


def _gen_terms(job, workdir: Path) -> tuple:
    """(config, scalar rows, vector rows of component lists, companion rows)."""
    path = workdir / job.out
    if job.out.endswith(".json"):
        payload = _json(path)
        scalar = [row["t"] for row in payload["scalar"]]
        vectors = [row["components"] for row in payload["vectors"]]
        type2 = [row["coeffs"] for row in payload["type2"]]
        return payload["config"], scalar, vectors, type2
    config, _, header, rows = _csv(path)
    scalar = [row[header.index("t")] for row in rows]
    _, _, header2, rows2 = _csv(Path(f"{path}.type2.csv"))
    type2 = [row[header2.index("coeffs")] for row in rows2]
    _, _, header3, rows3 = _csv(Path(f"{path}.vectors.csv"))
    vectors: list = []
    for row in rows3:
        r, j = int(row[0]), int(row[1])
        if r == len(vectors):
            vectors.append([])
        if r != len(vectors) - 1 or j != len(vectors[r]):
            return config, scalar, None, type2
        vectors[r].append(row[header3.index("coeffs")])
    return config, scalar, vectors, type2


def _check_gen(job, workdir: Path):
    config, scalar, vectors, type2 = _gen_terms(job, workdir)
    m, c, R = int(config["m"]), Fraction(config["c"]), int(config["R"])
    if vectors is None:
        return "vector rows out of order"
    if not len(scalar) == len(vectors) == len(type2) == R + 1:
        return f"expected {R + 1} rows per family"
    rng = random.Random(job.id)
    picks = sorted(rng.sample(range(m, R + 1), min(SAMPLES, R + 1 - m)))
    first = [[Fraction(1)]] + [[]] * (m - 1)
    reason = _check_type1(_Terms(scalar), m, c, first, picks)
    if reason:
        return f"scalar: {reason}"
    for j in range(m):
        comp = _Terms([row[j] for row in vectors])
        unit = [[Fraction(1)] if r == j else [] for r in range(m)]
        reason = _check_type1(comp, m, c, unit, picks[: SAMPLES // 2])
        if reason:
            return f"vector component {j}: {reason}"
    picks2 = sorted(rng.sample(range(1, R + 1), min(SAMPLES, R)))
    reason = _check_type2(_Terms(type2), m, c, picks2)
    return f"type2: {reason}" if reason else None


# ---------------------------------------------------------------- verify


def _check_verify(job, workdir: Path):
    payload = _json(workdir / job.out)
    hard = {ch["name"]: ch["status"] for ch in payload["checks"] if ch["kind"] == "hard"}
    missing = VERIFY_HARD_CHECKS - hard.keys()
    if missing:
        return f"hard checks missing: {sorted(missing)}"
    failed = sorted(name for name, status in hard.items() if status != "PASS")
    if failed:
        return f"hard checks not PASS: {failed}"
    if payload["passed"] is not True:
        return "passed is not true"
    return None


# ---------------------------------------------------------------- branches


def _cmul(a: tuple, b: tuple) -> tuple:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _branch_residual_ok(m: int, c: Fraction, z: tuple, lam: tuple) -> bool:
    """Exact residual of ``c*l**(m+1) - z*l + 1`` at the written digits.

    Rounding each component of l to a double moves it by at most 2**-53 |l|,
    which moves the residual by at most |P'(l)| 2**-53 sqrt(2) <=
    2*(m+2)*sqrt(2)*2**-53*max(1, |z*l|); the tolerance allows 16*(m+2)*2**-53
    times that scale.
    """
    power = lam
    for _ in range(m):
        power = _cmul(power, lam)
    zl = _cmul(z, lam)
    res = (c * power[0] - zl[0] + 1, c * power[1] - zl[1])
    tol = Fraction(16 * (m + 2), 2**53)
    scale2 = max(1, zl[0] ** 2 + zl[1] ** 2)
    return res[0] ** 2 + res[1] ** 2 <= tol**2 * scale2


def _grid_count(grid: str) -> int:
    re_axis, im_axis = grid.split(",")
    return int(re_axis.split(":")[2]) * int(im_axis.split(":")[2])


def _check_branches(job, workdir: Path):
    path = workdir / job.out
    if job.out.endswith(".json"):
        payload = _json(path)
        config = payload["config"]
        rows = [
            (r["z_re"], r["z_im"], r["error"], r.get("lambdas"), r.get("moduli"))
            for r in payload["rows"]
        ]
    else:
        config, _, header, table = _csv(path)
        m = int(config["m"])
        col = {name: i for i, name in enumerate(header)}
        rows = []
        for row in table:
            lams = [
                (row[col[f"lambda{j}_re"]], row[col[f"lambda{j}_im"]]) for j in range(m + 1)
            ]
            mods = [row[col[f"modulus{j}"]] for j in range(m + 1)]
            rows.append((row[col["z_re"]], row[col["z_im"]], row[col["error"]], lams, mods))
    m, c = int(config["m"]), Fraction(config["c"])
    if len(rows) != _grid_count(config["grid"]):
        return f"{len(rows)} rows for grid {config['grid']}"
    for z_re, z_im, error, lams, mods in rows:
        if error:
            return f"solver error {error!r} at z=({z_re}, {z_im})"
        z = (Fraction(z_re), Fraction(z_im))
        if len(lams) != m + 1:
            return f"{len(lams)} branches at z=({z_re}, {z_im})"
        for re, im in lams:
            if not _branch_residual_ok(m, c, z, (Fraction(re), Fraction(im))):
                return f"branch ({re}, {im}) misses the equation at z=({z_re}, {z_im})"
        moduli = [float(x) for x in mods]
        if moduli != sorted(moduli):
            return f"moduli not ascending at z=({z_re}, {z_im})"
    return None


# ---------------------------------------------------------------- roots


def _check_roots(job, workdir: Path):
    path = workdir / job.out
    if job.out.endswith(".json"):
        payload = _json(path)
        config, summary = payload["config"], payload["summary"]
        rows = [(r["r"], r.get("multiplicity"), r.get("error")) for r in payload["roots"]]
    else:
        config, _, header, table = _csv(path)
        summary = _json(Path(f"{path}.summary.json"))["summary"]
        col = {name: i for i, name in enumerate(header)}
        rows = [
            (int(row[col["r"]]), row[col["multiplicity"]], row[col["error"]]) for row in table
        ]
    for part in ("attraction", "conjecture"):
        if "error" in summary.get(part, {}):
            return f"{part}: {summary[part]['error']}"
    m = int(config["m"])
    total: dict = {}
    for r, mult, error in rows:
        if error:
            return f"r={r}: {error}"
        total[r] = total.get(r, 0) + int(mult)
    for r in config["r_list"]:
        d, k = divmod(r, m)
        want = max(0, d - k)
        if total.get(r, 0) != want:
            return f"r={r}: multiplicities sum to {total.get(r, 0)}, degree is {want}"
    return None


# ---------------------------------------------------------------- asymptote


def _check_asymptote(job, workdir: Path):
    path = workdir / job.out
    if job.out.endswith(".json"):
        summary = _json(path)["summary"]
    else:
        _, comments, _, _ = _csv(path)
        summary = json.loads(comments[0].split("# summary=", 1)[1])
    estimate, ratio = summary["decay_estimate"], summary["ratio"]
    if estimate is None:
        return "no decay estimate"
    if abs(estimate - ratio) > ASYMPTOTE_TOL:
        return f"decay estimate {estimate:.4f} vs ratio {ratio:.4f}"
    return None


_CHECKS = {
    "gen": _check_gen,
    "verify": _check_verify,
    "branches": _check_branches,
    "roots": _check_roots,
    "asymptote": _check_asymptote,
}
