"""Seeded job lists for the three benchmark workloads.

A job is one ``chebsys`` CLI invocation.  Each workload is a fixed template
of slots (subcommand, m, output format, size range); a seed draws the free
parameters of every slot (the rational c = P/Q, sizes, grid boxes, scan
points, precisions) for each round.  The template keeps the work per round
nearly the same across seeds, so seed-to-seed differences in the timings stay
small while the inputs themselves still vary.

Arguments that may start with a minus sign use the ``--opt=value`` form, so
the job never depends on the CLI's own negative-value handling.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("exact", "grid", "deep")

# A run does floor(--seconds / ROUND_SECONDS) whole rounds, so for a given
# seed and --seconds every version of the program gets the same job list.  A
# round of `exact` or `deep` took 5-6 s of job time, and one of `grid` 4-5 s,
# on a 2-core x86 virtual machine (Python 3.11.7, fractions backend) when it
# ran fast; up to half as long again when it ran slow.
ROUND_SECONDS = {"exact": 8.0, "grid": 6.0, "deep": 8.0}


@dataclass(frozen=True)
class Job:
    """One CLI run: ``argv`` excludes the program name; outputs go under ``out``."""

    id: str
    command: str
    argv: tuple
    out: str


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, math.floor(seconds / ROUND_SECONDS[workload]))


def job_list(workload: str, seed: int, rounds: int) -> list:
    """The first ``rounds`` rounds of the workload's job list for ``seed``."""
    make = _ROUND_MAKERS[workload]
    jobs = []
    for rnd in range(rounds):
        rng = random.Random(f"{workload}:{seed}:{rnd}")
        for slot, (command, fields) in enumerate(make(rng, rnd)):
            jid = f"r{rnd}s{slot}"
            ext = fields.get("format", "json")
            out = f"{jid}.{ext}"
            argv = [command] + [f"--{k}={v}" for k, v in fields.items()] + [f"--out={out}"]
            jobs.append(Job(jid, command, tuple(argv), out))
    return jobs


def _rational(rng: random.Random, digits: int) -> str:
    """A reduced P/Q with P != Q, both > 1 and of the given decimal length."""
    lo, hi = max(2, 10 ** (digits - 1)), 10**digits - 1
    while True:
        p, q = rng.randint(lo, hi), rng.randint(lo, hi)
        if p != q and math.gcd(p, q) == 1:
            return f"{p}/{q}"


def _fmt(rnd: int, slot: int) -> str:
    return ("json", "csv")[(rnd + slot) % 2]


# ---------------------------------------------------------------- exact

# (command, m, size range, digits of P and Q)
_EXACT_SLOTS = (
    ("verify", 2, (34, 40), 1),
    ("verify", 3, (38, 44), 2),
    ("verify", 2, (32, 36), 3),
    ("gen", 1, (95, 110), 2),
    ("gen", 2, (150, 165), 1),
    ("gen", 3, (190, 205), 3),
    ("gen", 4, (225, 240), 2),
    ("gen", 5, (260, 275), 1),
)


def _exact_round(rng: random.Random, rnd: int) -> list:
    out = []
    for slot, (command, m, (lo, hi), digits) in enumerate(_EXACT_SLOTS):
        R = rng.randint(lo, hi)
        fields = {"m": m, "c": _rational(rng, digits), "R": R}
        if command == "verify":
            fields["n-max"] = R
            fields["seed"] = rng.randint(0, 10**6)
        else:
            fields["format"] = _fmt(rnd, slot)
        out.append((command, fields))
    return out


# ---------------------------------------------------------------- grid

# points per job, sized so each job costs about the same at 53 bits
_GRID_POINTS = {1: 240, 2: 190, 3: 135, 4: 100}


def _grid_box(rng: random.Random, m: int, c: float, far: bool) -> str:
    a = (m + 1) / m * (m * c) ** (1 / (m + 1))  # radius of the bounded star
    n_re = rng.randint(10, 20)
    n_im = max(2, round(_GRID_POINTS[m] / n_re))
    if far:
        # large |z|: the solver adds (m+1)*log2(1+|z|) working bits there
        rho = a * 10 ** rng.uniform(1.0, 2.5)
        theta = rng.uniform(0, 2 * math.pi)
        half = rho * rng.uniform(0.05, 0.3)
        re0, im0 = rho * math.cos(theta), rho * math.sin(theta)
    else:
        # a box around the origin that crosses the stars
        half = a * rng.uniform(0.8, 2.5)
        re0, im0 = a * rng.uniform(-0.3, 0.3), a * rng.uniform(-0.3, 0.3)
    return (
        f"{re0 - half:.6g}:{re0 + half:.6g}:{n_re},"
        f"{im0 - half:.6g}:{im0 + half:.6g}:{n_im}"
    )


def _grid_round(rng: random.Random, rnd: int) -> list:
    out = []
    for slot in range(8):
        m = 1 + slot // 2
        c = _rational(rng, 1)
        p, q = map(int, c.split("/"))
        fields = {
            "m": m,
            "c": c,
            "grid": _grid_box(rng, m, p / q, far=(slot + rnd) % 2 == 1),
            "format": _fmt(rnd, slot),
        }
        out.append(("branches", fields))
    return out


# ---------------------------------------------------------------- deep

# the only c at which `asymptote` reports the right limit value
SCAN_C = 1


def _scan_rates(m: int, c: float, z: complex) -> tuple:
    """(ratio, bits per term) for a scan at z, in double precision.

    ratio = |l_{m-1}/l_m| for c*w**(m+1) - z*w + 1 sets the error decay.
    The terms t_r(z) are summed from coefficients whose absolute values grow
    like mu**r, mu the positive root of c*w**(m+1) - |z|*w - 1, while the
    error to resolve shrinks like |l_{m-1}|**r; the scan loses log2 of their
    ratio in bits per term.
    """
    mods = sorted(abs(w) for w in np.roots([c] + [0] * (m - 1) + [-z, 1]))
    mu = max(w.real for w in np.roots([c] + [0] * (m - 1) + [-abs(z), -1]) if abs(w.imag) < 1e-9)
    return mods[-2] / mods[-1], math.log2(mu / mods[-2])


def _scan_fields(rng: random.Random, m: int, r_range: tuple, bits: int) -> dict:
    """A scan point and depth that ``bits`` of precision resolve.

    The README asks for about r_max*log2(l_m/l_{m-1}) bits.  Evaluating t_r
    from its exact coefficients also cancels about r_max*log2(mu/|l_m|) bits
    (see ``_scan_rates``), so points are redrawn until both, plus 64 bits of
    margin, fit in ``bits``.  A fixed precision per slot keeps the work per
    round level across seeds.

    c is always 1: for c != 1 the program's limit value lacks a factor c
    (see the README's known failure), so every such scan would fail its check.
    """
    while True:
        z = cmath.rect(rng.uniform(1.5, 6.0), rng.uniform(0, 2 * math.pi))
        ratio, per_term = _scan_rates(m, SCAN_C, z)
        r_max = rng.randint(*r_range)
        if 0.3 <= ratio <= 0.9 and r_max * per_term + 64 <= bits:
            return {
                "m": m,
                "c": SCAN_C,
                "z": f"{z.real:.6g},{z.imag:.6g}",
                "r-max": r_max,
                "precision": bits,
            }


def _r_list(rng: random.Random, top: int) -> str:
    picks = (top // 3 + rng.randint(-2, 2), 2 * top // 3 + rng.randint(-2, 2), top)
    return ",".join(map(str, picks))


# roots: (m, range of the largest index, digits of P and Q)
_ROOTS_SLOTS = ((1, (24, 27), 1), (1, (22, 25), 2), (2, (68, 74), 1), (2, (54, 60), 2))
# scans: (m, range of r-max, bits); deeper for larger m, where t_r has lower degree
_SCAN_SLOTS = ((1, (160, 180), 400), (2, (260, 290), 264), (3, (330, 360), 200), (2, (220, 250), 328))


def _deep_round(rng: random.Random, rnd: int) -> list:
    out = []
    for slot, (m, (lo, hi), digits) in enumerate(_ROOTS_SLOTS):
        top = rng.randint(lo, hi)
        fields = {
            "m": m,
            "c": _rational(rng, digits),
            "r-max": top,
            "r-list": _r_list(rng, top),
            "precision": 128,
            "format": _fmt(rnd, slot),
        }
        out.append(("roots", fields))
    for slot, (m, r_range, bits) in enumerate(_SCAN_SLOTS, start=len(out)):
        fields = _scan_fields(rng, m, r_range, bits)
        fields["format"] = _fmt(rnd, slot)
        out.append(("asymptote", fields))
    return out


_ROUND_MAKERS = {"exact": _exact_round, "grid": _grid_round, "deep": _deep_round}
