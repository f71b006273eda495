"""Zero sets of the scalar terms and their attraction to the star.

The factorization ``t_r(z) = (-1)**k z**ell h_r(z**(m+1))`` reduces every
root computation to the far smaller polynomial ``h_r`` (degree roughly
``r/(m*(m+1))`` instead of ``r/m``): the zeros of ``t_r`` are the origin with
multiplicity ``ell`` plus all (m+1)-th roots of each zero of ``h_r``.  The
attraction study quantifies how close these zeros sit to the parity-selected
unbounded star, and the probe gathers evidence for (never asserts) the
conjecture that the zeros of the ``h_r`` are real and simple, backed by an
exact square-freeness certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

from .algebraic import StarGeometry, ray_family_distance, star_geometry
from .errors import ConvergenceFailure, RootRefinementError
from .exactpoly import Poly, poly_gcd
from .recurrence import Params, TypeIRecord, gen_type1_records
from .rootfind import complex_roots, residual_scale

CLUSTER_RELATIVE_TOL = 1e-7
RESIDUAL_RELATIVE_TOL = 1e-8


def _cluster(roots) -> list:
    """Group numerically coincident roots into (center, multiplicity) pairs."""
    clusters: list[list] = []  # [sum, count]
    for y in sorted(roots, key=lambda v: (float(v.real), float(v.imag))):
        for entry in clusters:
            center = entry[0] / entry[1]
            if abs(y - center) <= CLUSTER_RELATIVE_TOL * max(1, abs(center)):
                entry[0] += y
                entry[1] += 1
                break
        else:
            clusters.append([y, 1])
    return [(entry[0] / entry[1], entry[1]) for entry in clusters]


def roots_of_h(h: Poly, precision: int = 53) -> list:
    """Zeros of a nonzero reduced polynomial as (value, multiplicity) pairs.

    Roots are refined against the exact rational coefficients and required to
    have backward error at the 2**(8-precision) level.
    """
    if h.is_zero:
        raise ValueError("the zero polynomial has no root set")
    if h.degree == 0:
        return []
    try:
        raw = complex_roots(h.coeffs, precision=precision)
    except RootRefinementError as exc:
        raise ConvergenceFailure(f"root refinement failed: {exc}", poly=h) from exc
    with mpmath.workprec(precision + 32):
        bound = mpmath.mpf(2) ** (8 - precision)
        for y in raw:
            value = h.eval_complex(y, precision + 32)
            if abs(value) > bound * residual_scale(h.coeffs, y):
                raise ConvergenceFailure(
                    f"residual {float(abs(value)):.3e} too large at root {complex(y)}",
                    poly=h,
                )
    return _cluster(raw)


@dataclass(frozen=True)
class RootReport:
    """Zeros of one scalar term in both the reduced and the original plane."""

    r: int
    h_roots: tuple  # (complex, multiplicity) in the reduced variable
    t_roots: tuple  # (complex, multiplicity) in the original variable, origin included
    max_imag_h: float
    min_separation_h: float
    max_star_distance: float
    mean_star_distance: float
    origin_multiplicity: int
    total_root_count: int


def roots_of_t(rec: TypeIRecord, p: Params, precision: int = 53) -> RootReport:
    """Assemble the zero set of ``t_r`` from the zeros of its reduced polynomial.

    Every reported nonzero root is residual-checked against the exact
    coefficients of ``t_r`` at >= 128-bit precision.
    """
    if rec.t.is_zero:
        raise ValueError(f"t_{rec.r} is the zero polynomial")
    m = p.m
    geom = star_geometry(p)
    origin_mult = rec.ell
    h = rec.h
    low_zeros = 0
    while low_zeros < len(h.coeffs) and not h.coeffs[low_zeros]:
        low_zeros += 1
    if low_zeros:
        # a zero of h at the origin lifts to m+1 extra zeros of t at the origin
        origin_mult += (m + 1) * low_zeros
        h = Poly(h.coeffs[low_zeros:])
    h_pairs = roots_of_h(h, precision) if h.degree >= 1 else []
    check_bits = max(precision, 128)
    t_pairs = []
    if origin_mult:
        t_pairs.append((complex(0), origin_mult))
    with mpmath.workprec(check_bits + 32):
        coeff_norm = residual_scale(rec.t.coeffs, 1)  # max coefficient magnitude
        for y, mult in h_pairs:
            for k in range(m + 1):
                root = mpmath.root(y, m + 1, k)
                value = rec.t.eval_complex(root, check_bits)
                scale = max(residual_scale(rec.t.coeffs, root), coeff_norm)
                if abs(value) > RESIDUAL_RELATIVE_TOL * scale:
                    raise ConvergenceFailure(
                        f"mapped root {complex(root)} of t_{rec.r} has residual "
                        f"{float(abs(value)):.3e}",
                        poly=rec.t,
                    )
                t_pairs.append((complex(root), mult))
    max_imag = max((abs(float(y.imag)) for y, _ in h_pairs), default=0.0)
    centers = [y for y, _ in h_pairs]
    if len(centers) >= 2:
        min_sep = min(
            float(abs(a - b))
            for i, a in enumerate(centers)
            for b in centers[i + 1 :]
        )
    else:
        min_sep = math.inf
    distances = [distance_to_star(z, geom) for z, _ in t_pairs]
    nonzero_distances = [
        distance_to_star(z, geom) for z, _ in t_pairs if z != 0
    ]
    return RootReport(
        r=rec.r,
        h_roots=tuple(h_pairs),
        t_roots=tuple(t_pairs),
        max_imag_h=max_imag,
        min_separation_h=min_sep,
        max_star_distance=max(distances, default=0.0),
        mean_star_distance=(
            sum(nonzero_distances) / len(nonzero_distances)
            if nonzero_distances
            else 0.0
        ),
        origin_multiplicity=origin_mult,
        total_root_count=sum(mult for _, mult in t_pairs),
    )


def distance_to_star(z, geom: StarGeometry) -> float:
    """Distance to the parity-selected attractor rays."""
    return ray_family_distance(z, geom.attractor_angles)


@dataclass(frozen=True)
class AttractionRow:
    r: int
    root_count: int
    max_distance: float | None
    mean_distance: float | None


@dataclass(frozen=True)
class AttractionStudy:
    rows: tuple
    verdict_max: str  # non-increasing / increasing / mixed / vacuous
    verdict_mean: str


def _trend(values, slack: float = 1e-9) -> str:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return "vacuous"
    if all(b <= a + slack for a, b in zip(values, values[1:])):
        return "non-increasing"
    if all(b > a + slack for a, b in zip(values, values[1:])):
        return "increasing"
    return "mixed"


def attraction_study(p: Params, r_list, precision: int = 53) -> AttractionStudy:
    """Star distances of the zero sets over an ascending index grid."""
    r_list = list(r_list)
    if r_list != sorted(r_list):
        raise ValueError("r_list must be ascending")
    records = gen_type1_records(p, max(r_list)) if r_list else []
    reports = []
    for r in r_list:
        rec = records[r]
        constant = rec.t.is_zero or rec.t.degree == 0
        reports.append((r, None if constant else roots_of_t(rec, p, precision)))
    return summarize_attraction(reports)


def summarize_attraction(reports) -> AttractionStudy:
    """The attraction study of zero sets already computed.

    ``reports`` holds ``(r, report)`` pairs in ascending ``r``; ``report`` is
    the ``RootReport`` of ``t_r``, or None where ``t_r`` is zero or constant,
    which gives an empty row.
    """
    rows = [
        AttractionRow(r, 0, None, None)
        if report is None
        else AttractionRow(
            r,
            report.total_root_count,
            report.max_star_distance,
            report.mean_star_distance,
        )
        for r, report in reports
    ]
    return AttractionStudy(
        rows=tuple(rows),
        verdict_max=_trend([row.max_distance for row in rows]),
        verdict_mean=_trend([row.mean_distance for row in rows]),
    )


@dataclass(frozen=True)
class ProbeReport:
    """Numeric evidence for the real-and-simple root hypothesis; never an assertion.

    Simplicity is certified exactly per index via gcd(h, h'); realness is a
    numeric observation with one precision escalation before anything is
    flagged.  Classification is PASS, INCONCLUSIVE, or COUNTEREXAMPLE.
    """

    classification: str
    max_imag_normalized: float
    min_separation_normalized: float
    offending_r: int | None
    reason: str | None
    checked: int
    escalations: int


def conjecture_probe(p: Params, r_max: int, precision: int = 53) -> ProbeReport:
    if r_max < p.m:
        raise ValueError("r_max must be at least m")
    records = gen_type1_records(p, r_max)
    max_imag = 0.0
    min_sep = math.inf
    offending = None
    reason = None
    checked = 0
    escalations = 0
    for rec in records:
        if rec.tau < 1:
            continue
        checked += 1
        h = rec.h
        certificate = poly_gcd(h, h.derivative())
        if certificate.degree > 0:
            offending = offending if offending is not None else rec.r
            reason = reason or "repeated-root"
            continue
        pairs = roots_of_h(h, precision)
        worst = max(
            (abs(float(y.imag)) / max(1.0, abs(complex(y))) for y, _ in pairs),
            default=0.0,
        )
        clustered = any(mult >= 2 for _, mult in pairs)
        if worst > 1e-9 or clustered:
            # one escalation before anything is flagged: clusters of simple
            # roots and spurious imaginary parts usually resolve at twice the
            # precision
            escalations += 1
            pairs = roots_of_h(h, 2 * precision)
            worst = max(
                (abs(float(y.imag)) / max(1.0, abs(complex(y))) for y, _ in pairs),
                default=0.0,
            )
        if worst > max_imag:
            max_imag = worst
            if worst > 1e-9 and offending is None:
                offending = rec.r
        centers = [y for y, _ in pairs]
        for i, a in enumerate(centers):
            for b in centers[i + 1 :]:
                sep = float(abs(a - b)) / max(1.0, abs(complex(a)), abs(complex(b)))
                min_sep = min(min_sep, sep)
    if reason == "repeated-root":
        classification = "COUNTEREXAMPLE"
    elif max_imag > 1e-6:
        classification = "COUNTEREXAMPLE"
        reason = "complex-root"
    elif max_imag > 1e-9:
        classification = "INCONCLUSIVE"
        reason = "borderline-imaginary-part"
    else:
        classification = "PASS"
        offending = None
    return ProbeReport(
        classification=classification,
        max_imag_normalized=max_imag,
        min_separation_normalized=min_sep,
        offending_r=offending,
        reason=reason,
        checked=checked,
        escalations=escalations,
    )
