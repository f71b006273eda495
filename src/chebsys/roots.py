"""Zero sets of the scalar terms and their attraction to the star.

The factorization ``t_r(z) = (-1)**k z**ell h_r(z**(m+1))`` reduces every
root computation to the far smaller polynomial ``h_r`` (degree roughly
``r/(m*(m+1))`` instead of ``r/m``): the zeros of ``t_r`` are the origin with
multiplicity ``ell`` plus all (m+1)-th roots of each zero of ``h_r``.  The
attraction study quantifies how close these zeros sit to the parity-selected
unbounded star.

The probe of the conjecture that the zeros of every ``h_r`` are real and
simple is ``chebsys.probe``; ``conjecture_probe`` is also read from here.
It proves each index with exact signs, by its interlacing step or by Sturm's
theorem, on the c = 1 polynomial in y = x/c, and isolates each zero of a
proved index in a dyadic interval (``probe.isolate``).  The zeros of such an
index are taken from those intervals, refined with exact signs to
2**-(precision + GUARD_BITS) of each zero (``probe.refined``), and mapped to
x = c*y and to t on the integer kernel: no root is solved and mpmath is not
loaded.  An index the probe does not prove (one whose zeros are not real and
simple, or a table off the c-grading from its first such index on) has no
zeros here: it raises ``ConvergenceFailure``, and ``roots`` writes it as an
``unproved`` row.  A caller who wants the zeros of such an h_r solves it by
hand: ``mpmath.polyroots`` on h's coefficients, highest first.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebraic import (
    _STAR_BITS,
    StarGeometry,
    _iroot,
    _unit_roots,
    segment_family_distance,
    star_geometry,
)
from .errors import ConvergenceFailure
# the probe loads no numeric library; the acceptance battery and the
# benchmark's tracer read conjecture_probe from here
from .probe import Isolated, conjecture_probe, isolate, refined
from .rationals import div_man_exp, to_float
from .recurrence import Params, TypeIRecord, gen_type1_records

GUARD_BITS = 32  # bits beyond the precision to which a proved zero is refined


RootReport = namedtuple(
    "RootReport",
    "r h_roots t_roots max_star_distance mean_star_distance origin_multiplicity total_root_count",
)
RootReport.__doc__ = """Zeros of one scalar term in both the reduced and the original plane.

``h_roots`` are (complex, multiplicity) pairs in the reduced variable, and
``t_roots`` the same in the original variable, origin included.
"""


def _proved_pairs(iso: Isolated, p: Params, bits: int) -> tuple:
    """The zeros of h_r off x = 0 and of t_r off the origin, each simple,
    from the isolating intervals in y = x/c of a proved h_r, and the number
    of zeros of h_r at x = 0 (0 or 1).

    Each interval is refined to 2**-bits of its zero y; x = c*y at its
    midpoint is formed exactly and written rounded once, and its (m+1)-th
    roots as ``mpmath.root`` orders them for real x: modulus
    ``|x|**(1/(m+1))`` on the integer kernel, and the exact ray angles
    ``pi*(2k + (x < 0))/(m+1)`` of ``_unit_roots``, each part rounded once.
    """
    n, (P, Q) = p.m + 1, p.ratio
    units = _unit_roots(2 * n)
    h_pairs, t_pairs, at_origin = [], [], 0
    for lo, hi, k in refined(iso, bits):
        man, exp = P * (lo + hi), -k - 1  # x = man * 2**exp / Q
        if not man:
            at_origin += 1
            continue
        h_pairs.append((complex(to_float(*div_man_exp(man, exp, Q, 0, 53))), 1))
        # floor(|x| * 2**(shift - exp)) of more than n*bits bits, with n
        # dividing exp - shift
        shift = n * bits + 1 + Q.bit_length() - abs(man).bit_length()
        shift += (exp - shift) % n
        size = (abs(man) << shift) // Q if shift >= 0 else abs(man) // (Q << -shift)
        modulus, e = _iroot(size, n), (exp - shift) // n - _STAR_BITS
        for j in range(n):
            cos, sin = units[2 * j + (man < 0)]
            t_pairs.append((complex(to_float(modulus * cos, e), to_float(modulus * sin, e)), 1))
    return h_pairs, t_pairs, at_origin


def roots_of_t(rec: TypeIRecord, p: Params, precision: int = 53) -> RootReport:
    """Assemble the zero set of ``t_r`` from the zeros of its reduced polynomial.

    The probe runs on this index alone (``probe.isolate``), and the zeros
    are taken from its isolating intervals, refined to
    2**-(precision + GUARD_BITS) of each zero.  An index the probe does not
    prove raises ConvergenceFailure.
    """
    return _zeros_of_t(rec, p, precision, isolate(p, [rec])[1].get(rec.r))


def _zeros_of_t(rec: TypeIRecord, p: Params, precision: int, isolated) -> RootReport:
    """``roots_of_t`` from the intervals; without them only a constant h_r
    (tau = 0), whose zeros are those of t_r at the origin."""
    if rec.t.is_zero:
        raise ValueError(f"t_{rec.r} is the zero polynomial")
    m = p.m
    origin_mult = rec.ell
    if isolated is not None:
        h_pairs, t_pairs, low_zeros = _proved_pairs(isolated, p, precision + GUARD_BITS)
    elif rec.h.degree == 0:
        h_pairs, t_pairs, low_zeros = [], [], 0
    else:
        raise ConvergenceFailure(f"the probe proved no zeros of h_{rec.r}", poly=rec.h)
    # a zero of h at the origin lifts to m+1 extra zeros of t at the origin
    origin_mult += (m + 1) * low_zeros
    if origin_mult:
        t_pairs.insert(0, (complex(0), origin_mult))
    geom = star_geometry(p)
    distances = [distance_to_star(z, geom) for z, _ in t_pairs]
    nonzero_distances = [dist for (z, _), dist in zip(t_pairs, distances) if z != 0]
    return RootReport(
        r=rec.r,
        h_roots=tuple(h_pairs),
        t_roots=tuple(t_pairs),
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
    return segment_family_distance(z, geom.attractor_rotations, math.inf)


# the distances are None in the empty row of a zero or constant t_r
AttractionRow = namedtuple("AttractionRow", "r root_count max_distance mean_distance")

# each verdict: non-increasing, increasing, mixed or vacuous
AttractionStudy = namedtuple("AttractionStudy", "rows verdict_max verdict_mean")

# how far a distance may rise and still count as non-increasing
_TREND_SLACK = 1e-9


def _trend(values) -> str:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return "vacuous"
    if all(b <= a + _TREND_SLACK for a, b in zip(values, values[1:])):
        return "non-increasing"
    if all(b > a + _TREND_SLACK for a, b in zip(values, values[1:])):
        return "increasing"
    return "mixed"


def solve_indices(p: Params, records, r_list, precision: int, isolated: dict) -> list:
    """``(r, result)`` for every r of ``r_list``.

    ``result`` is the RootReport of ``t_r``, None where ``t_r`` is zero or
    constant, or the ConvergenceFailure of an index the probe did not prove.
    ``isolated`` is the probe's ``{r: Isolated}`` (``probe.isolate``); an
    index it lacks is not probed a second time.
    """
    out = []
    for r in r_list:
        rec = records[r]
        if rec.t.is_zero or rec.t.degree == 0:
            out.append((r, None))
            continue
        try:
            out.append((r, _zeros_of_t(rec, p, precision, isolated.get(r))))
        except ConvergenceFailure as exc:
            out.append((r, exc))
    return out


def attraction_study(p: Params, r_list, precision: int = 53) -> AttractionStudy:
    """Star distances of the zero sets over an ascending index grid."""
    r_list = list(r_list)
    if r_list != sorted(r_list):
        raise ValueError("r_list must be ascending")
    records = gen_type1_records(p, max(r_list)) if r_list else []
    reports = solve_indices(p, records, r_list, precision, isolate(p, records)[1])
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
