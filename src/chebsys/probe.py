"""The probe of the conjecture that the zeros of every ``h_r`` are real and
simple.

The probe proves that exactly wherever an integer sign certificate holds
(``exactpoly.certify_real_roots``) and falls back to numeric evidence, never
an assertion, where it does not.  The certificate needs numpy's
``roots`` for its hints when m >= 2 and nothing beyond the exact half when
m = 1; the fallback, ``roots._probe_index``, loads mpmath with ``roots``
on the first index the certificate misses, and numpy for the companion
seeds of its root solves.  Importing this module loads neither numpy nor
mpmath.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .exactpoly import Poly, certify_real_roots
from .recurrence import Params, TypeIRecord, gen_type1_records


class ProbeReport(NamedTuple):
    """Realness and simplicity of the zeros of every h_r, certified or observed.

    An index is certified when the integer h_r has nonzero alternating signs
    at d+1 dyadic points, which proves d distinct real zeros; its imaginary
    part counts as 0 and its separation is that of the certifying root
    hints.  Every other index falls back to numeric evidence: simplicity is
    certified exactly via gcd(h, h'), realness is observed with one precision
    escalation before anything is flagged.  Classification is PASS,
    INCONCLUSIVE, or COUNTEREXAMPLE; a PASS with ``certified == checked`` is
    a proof.  ``min_separation_normalized`` is None when the least gap is
    one between certified zeros that underflows a double: they are proven
    distinct, so a gap that reads 0.0 there has lost its digits and does
    not mean a repeated zero.
    """

    classification: str
    max_imag_normalized: float
    min_separation_normalized: float | None
    offending_r: int | None
    reason: str | None
    checked: int
    escalations: int
    certified: int
    first_uncertified_r: int | None


def _separation(a, b) -> float:
    return float(abs(a - b)) / max(1.0, abs(complex(a)), abs(complex(b)))


def _certified_gap(sep: float) -> float | None:
    """The least gap of certified zeros, or None below the normal range of a double."""
    return sep if sep >= sys.float_info.min else None


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


def _certify_index(rec: TypeIRecord, p: Params) -> tuple | None:
    """The probe step of a certified index, or None if h_r is not certified.

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
        return 0.0, _certified_gap(_separation_at_4c(hints, p.c)), False
    hints = _root_hints(rec.h)
    if not certify_real_roots(rec.h, hints):
        return None
    sep = min(map(_separation, hints, hints[1:]), default=math.inf)
    return 0.0, _certified_gap(sep), False


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


def conjecture_probe(p: Params, r_max: int, precision: int = 53) -> ProbeReport:
    """Realness and simplicity of the zeros of every h_r with r <= r_max.

    Every index is first tried with the exact sign certificate; only the
    indices it does not certify are solved, in parallel, at ``precision``.
    """
    if r_max < p.m:
        raise ValueError("r_max must be at least m")
    records = [rec for rec in gen_type1_records(p, r_max) if rec.tau >= 1]
    steps = {rec.r: _certify_index(rec, p) for rec in records}
    rest = [rec for rec in records if steps[rec.r] is None]
    if rest:
        # the solves build companion seeds: load numpy once here, not in
        # every worker the map forks
        import numpy  # noqa: F401

        from .parallel import fork_map
        from .roots import _probe_index, _solve_cost

        solved = fork_map(
            lambda rec: _probe_index(rec, precision),
            rest,
            cost=lambda rec: _solve_cost(rec.h),
        )
        steps.update((rec.r, step) for rec, step in zip(rest, solved))
    max_imag = 0.0
    min_sep = math.inf
    underflow = False  # a certified gap below the range of a double
    offending = None
    reason = None
    escalations = 0
    for rec in records:
        step = steps[rec.r]
        if step is None:
            offending = offending if offending is not None else rec.r
            reason = reason or "repeated-root"
            continue
        worst, sep, escalated = step
        escalations += escalated
        if worst > max_imag:
            max_imag = worst
            if worst > 1e-9 and offending is None:
                offending = rec.r
        if sep is None:
            underflow = True
        else:
            min_sep = min(min_sep, sep)
    if underflow and min_sep > 0:
        min_sep = None
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
        checked=len(records),
        escalations=escalations,
        certified=len(records) - len(rest),
        first_uncertified_r=rest[0].r if rest else None,
    )
