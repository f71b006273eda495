"""Zero sets of the scalar terms and their attraction to the star.

The factorization ``t_r(z) = (-1)**k z**ell h_r(z**(m+1))`` reduces every
root computation to the far smaller polynomial ``h_r`` (degree roughly
``r/(m*(m+1))`` instead of ``r/m``): the zeros of ``t_r`` are the origin with
multiplicity ``ell`` plus all (m+1)-th roots of each zero of ``h_r``.  The
attraction study quantifies how close these zeros sit to the parity-selected
unbounded star.  The probe of the conjecture that the zeros of every
``h_r`` are real and simple is ``chebsys.probe``, which is exact, solves
nothing and loads neither numpy nor mpmath; its names are re-exported here.

For m = 1 the zeros of h_r are known in closed form, ``4c*cos(k pi/(r+1))**2``,
and seed the root solves of ``roots_of_t``, which then load no numpy.  Every
solve for m >= 2 is seeded with companion-matrix eigenvalues (``rootfind``),
and numpy is imported before a map of such solves forks its workers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath

from .algebraic import StarGeometry, ray_family_distance, star_geometry
from .errors import ConvergenceFailure, RootRefinementError
from .exactpoly import Poly
from .parallel import fork_map
# the probe lives in ``probe``, which loads neither numpy nor mpmath; its
# names stay here too
from .probe import ProbeReport, closed_form_hints, conjecture_probe
from .recurrence import Params, TypeIRecord, gen_type1_records
from .rootfind import coefficient_moduli, complex_roots, max_term

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


def _seeds(rec: TypeIRecord, p: Params) -> list | None:
    """Seeds for the zeros of h_r: for m = 1 the closed form ``4c*cos(k pi/(r+1))**2``,
    real as h_r is, so the Aberth iterates stay real; None for m >= 2, where
    ``rootfind`` builds companion seeds."""
    if p.m != 1:
        return None
    try:
        c4 = 4 * float(p.c)
    except OverflowError:
        c4 = math.inf  # non-finite seeds: rootfind spreads them on a circle
    return [c4 * y for y in closed_form_hints(rec)]


def roots_of_h(h: Poly, precision: int = 53, seeds=None) -> list:
    """Zeros of a nonzero reduced polynomial as (value, multiplicity) pairs.

    Roots are refined against the exact rational coefficients and required to
    have backward error at the 2**(8-precision) level.  ``seeds`` are double
    estimates of the zeros, as ``rootfind.complex_roots`` takes them.
    """
    if h.is_zero:
        raise ValueError("the zero polynomial has no root set")
    if h.degree == 0:
        return []
    try:
        raw = complex_roots(h.coeffs, precision=precision, seeds=seeds)
    except RootRefinementError as exc:
        raise ConvergenceFailure(f"root refinement failed: {exc}", poly=h) from exc
    bits = precision + 32
    with mpmath.workprec(bits):
        bound = mpmath.mpf(2) ** (8 - precision)
        moduli = coefficient_moduli(h, bits)
        for y in raw:
            value = h.eval_complex(y, bits)
            if abs(value) > bound * max_term(moduli, y):
                raise ConvergenceFailure(
                    f"residual {float(abs(value)):.3e} too large at root {complex(y)}",
                    poly=h,
                )
    return _cluster(raw)


class RootReport(NamedTuple):
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
    h_pairs = roots_of_h(h, precision, _seeds(rec, p)) if h.degree >= 1 else []
    check_bits = max(precision, 128)
    t_pairs = []
    if origin_mult:
        t_pairs.append((complex(0), origin_mult))
    with mpmath.workprec(check_bits + 32):
        moduli = coefficient_moduli(rec.t, check_bits + 32)
        coeff_norm = max_term(moduli, 1)  # max coefficient magnitude
        for y, mult in h_pairs:
            for k in range(m + 1):
                root = mpmath.root(y, m + 1, k)
                value = rec.t.eval_complex(root, check_bits)
                scale = max(max_term(moduli, root), coeff_norm)
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
    return ray_family_distance(z, geom.attractor_rotations)


class AttractionRow(NamedTuple):
    r: int
    root_count: int
    max_distance: float | None
    mean_distance: float | None


class AttractionStudy(NamedTuple):
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


def _solve_cost(poly: Poly) -> int:
    """Work of one root solve of ``poly`` in Horner steps, for ``fork_map``.

    A solve of degree d with its residual gate, timed with a gcd of h and h'
    beside it, took about as long as 30*d**2 Horner steps at 53 bits and
    42*d**2 at 128 bits (medians over d = 2..13, m = 1..3); its Aberth
    coupling still runs on libmp.
    """
    return 35 * poly.degree**2


def solve_indices(p: Params, records, r_list, precision: int = 53) -> list:
    """``(r, result)`` for every r of ``r_list``, the indices solved in parallel.

    ``result`` is the RootReport of ``t_r``, None where ``t_r`` is zero or
    constant, or the ConvergenceFailure its solve raised.
    """

    def solve(r):
        rec = records[r]
        if rec.t.is_zero or rec.t.degree == 0:
            return None
        try:
            return roots_of_t(rec, p, precision)
        except ConvergenceFailure as exc:
            return exc

    def cost(r):
        # the solve of h_r, then two passes over t_r at each mapped root
        h, t = records[r].h, records[r].t
        return _solve_cost(h) + 2 * (p.m + 1) * max(h.degree, 0) * (t.degree + 1)

    r_list = list(r_list)
    if p.m >= 2:
        # the solves build companion seeds: load numpy once here, not in
        # every worker the map forks
        import numpy  # noqa: F401
    return list(zip(r_list, fork_map(solve, r_list, cost=cost)))


def attraction_study(p: Params, r_list, precision: int = 53) -> AttractionStudy:
    """Star distances of the zero sets over an ascending index grid."""
    r_list = list(r_list)
    if r_list != sorted(r_list):
        raise ValueError("r_list must be ascending")
    records = gen_type1_records(p, max(r_list)) if r_list else []
    reports = solve_indices(p, records, r_list, precision)
    for _, result in reports:
        if isinstance(result, ConvergenceFailure):
            raise result
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
