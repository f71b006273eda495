"""The probe of the conjecture that the zeros of every ``h_r`` are real and
simple.

The probe decides that exactly, index by index.  It first tries an integer
sign certificate (``exactpoly.certify_real_roots``), whose hints come from
numpy's ``roots`` when m >= 2 and from the closed form when m = 1; an index
the certificate misses is decided by a Sturm count on the remainder chain
of (h_r, h_r') (``exactpoly._sturm_count``), on the exact half alone.  The
probe never loads mpmath, and importing this module loads neither numpy
nor mpmath.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .exactpoly import Poly, _sturm_count, certify_real_roots
from .recurrence import Params, TypeIRecord, gen_type1_records


class ProbeReport(NamedTuple):
    """Realness and simplicity of the zeros of every h_r, proven index by index.

    An index is certified when the integer h_r has nonzero alternating signs
    at d+1 dyadic points placed between root hints, which proves d distinct
    real zeros; its separation is that of the certifying hints.  Every other
    index is decided by a Sturm count on the remainder chain of (h_r, h_r'),
    which proves d distinct real zeros or finds fewer.  Classification is
    PASS, a proof for every index, or COUNTEREXAMPLE, with the first
    offending index and its ``reason``: ``repeated-root`` when
    gcd(h_r, h_r') is not constant, ``complex-root`` otherwise.
    ``max_imag_normalized`` is 0.0 on a PASS and None on a COUNTEREXAMPLE,
    where no zero is computed.  ``min_separation_normalized`` is None when
    an index was decided by the count, which has no hints to measure, or
    when the least gap is one between certified zeros that underflows a
    double: they are proven distinct, so a gap that reads 0.0 there has
    lost its digits and does not mean a repeated zero.  ``certified``
    counts the indices the sign certificate proved, ``first_uncertified_r``
    names the first it missed, and ``escalations`` is always 0.
    """

    classification: str
    max_imag_normalized: float | None
    min_separation_normalized: float | None
    offending_r: int | None
    reason: str | None
    checked: int
    escalations: int
    certified: int
    first_uncertified_r: int | None


def _separation(a, b) -> float:
    return float(abs(a - b)) / max(1.0, abs(complex(a)), abs(complex(b)))


def _root_hints(h: Poly) -> list:
    """Float estimates of the zeros of h, sorted: the real parts of
    companion-matrix eigenvalues of the scaled coefficients."""
    import numpy as np

    nums = h.nums
    scale = max(abs(n) for n in nums)
    # ratios of at most 1 in modulus, so huge integers neither overflow nor raise
    with np.errstate(all="ignore"):
        found = np.roots([n / scale for n in reversed(nums)])
    return sorted(float(y.real) for y in found)


def closed_form_hints(rec: TypeIRecord) -> list:
    """``cos(k pi/(r+1))**2`` for k = 1..deg h_r, sorted: for m = 1 the zeros
    of h_r divided by 4c (see ``_certify_index``)."""
    angle = math.pi / (rec.r + 1)
    return sorted(math.cos(k * angle) ** 2 for k in range(1, rec.h.degree + 1))


def _certify_index(rec: TypeIRecord, p: Params) -> float | None:
    """The least normalized separation of the certifying hints of h_r, or
    None if h_r is not certified.

    For m = 1, ``c**(r/2) * t_r(x) = U_r(x / (2*sqrt(c)))`` puts the zeros of
    h_r at ``4c * cos(k pi/(r+1))**2``, k = 1..deg h_r.  They are certified
    in the scaled variable ``y = x/(4c)``, where the hints ``cos(k pi/(r+1))**2``
    lie in [0, 1] whatever c is, so no hint overflows or underflows.
    """
    if p.m == 1:
        hints = closed_form_hints(rec)
        # den * q**d * h(4c*y) in integers, for 4c = p4/q
        p4, q = 4 * p.c.numerator, p.c.denominator
        d = rec.h.degree
        scaled = Poly.scaled([n * p4**i * q ** (d - i) for i, n in enumerate(rec.h.nums)])
        if not certify_real_roots(scaled, hints):
            return None
        return _separation_at_4c(hints, p.c)
    hints = _root_hints(rec.h)
    if not certify_real_roots(rec.h, hints):
        return None
    return min(map(_separation, hints, hints[1:]), default=math.inf)


def _separation_at_4c(hints, c) -> float:
    """The least normalized separation of the zeros ``4c*y``, y the sorted hints."""
    try:
        c4 = 4 * float(c)
    except OverflowError:
        c4 = math.inf
    if c4 < math.inf:
        xs = [c4 * y for y in hints]
        return min(map(_separation, xs, xs[1:]), default=math.inf)
    # every zero lies beyond 1 here, so the normalized gaps are ratios of hints
    return min(((b - a) / b for a, b in zip(hints, hints[1:])), default=math.inf)


def _count_cost(h: Poly) -> int:
    """Work of the Sturm count of ``h`` in Horner steps, for ``fork_map``.

    The count of an index of degree d took about as long as 20 + d**5/8000
    Horner steps, within a factor of 2.2 over m = 2..4, d = 8..67 and
    c = 1, 311/457, 23/41, 5/2; the size of c barely shows, as the chain's
    primitive parts do not carry it.  Counts for m = 1 ran far cheaper.
    """
    return 20 + h.degree**5 // 8000


def conjecture_probe(p: Params, r_max: int, precision: int = 53) -> ProbeReport:
    """Realness and simplicity of the zeros of every h_r with r <= r_max.

    Every index is first tried with the exact sign certificate; the indices
    it misses are decided by a Sturm count, in parallel.  Both are exact, so
    ``precision`` does not change the report; it is kept for callers.
    """
    if r_max < p.m:
        raise ValueError("r_max must be at least m")
    records = [rec for rec in gen_type1_records(p, r_max) if rec.tau >= 1]
    seps = [_certify_index(rec, p) for rec in records]
    missed = [rec for rec, sep in zip(records, seps) if sep is None]
    counts = []
    if missed:
        # imported here, so that a probe the certificate completes loads no
        # pickle or signal for a map it does not run
        from .parallel import fork_map

        counts = fork_map(
            lambda rec: _sturm_count(rec.h), missed, cost=lambda rec: _count_cost(rec.h)
        )
    classification, max_imag, offending, reason = "PASS", 0.0, None, None
    for rec, (distinct, gcd_degree) in zip(missed, counts):
        if distinct < rec.h.degree:
            classification, max_imag, offending = "COUNTEREXAMPLE", None, rec.r
            reason = "repeated-root" if gcd_degree > 0 else "complex-root"
            break
    min_sep = None if missed else min(seps, default=math.inf)
    if min_sep is not None and min_sep < sys.float_info.min:
        # a gap of certified zeros that underflows a double
        min_sep = None
    return ProbeReport(
        classification=classification,
        max_imag_normalized=max_imag,
        min_separation_normalized=min_sep,
        offending_r=offending,
        reason=reason,
        checked=len(records),
        escalations=0,
        certified=len(records) - len(missed),
        first_uncertified_r=missed[0].r if missed else None,
    )
