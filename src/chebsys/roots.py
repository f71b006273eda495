"""Zero sets of the scalar terms, and the rays of the star they lie on.

The factorization ``t_r(z) = (-1)**k z**ell h_r(z**(m+1))`` reduces every
root computation to the far smaller polynomial ``h_r`` (degree roughly
``r/(m*(m+1))`` instead of ``r/m``): the zeros of ``t_r`` are the origin with
multiplicity ``ell`` plus all (m+1)-th roots of each zero of ``h_r``.  Those
over a real zero x lie exactly on m+1 rays of the star: on the even rays
``(2k+1)*pi/(m+1)`` where x < 0 and on the odd rays ``2*pi*k/(m+1)`` where
x > 0.  The attractor star is the even family for even m and the odd family
for odd m (``algebraic``), so ``RootReport.off_attractor`` counts exactly
the zeros of ``t_r`` off it: m+1 for each zero x of ``h_r`` on the wrong
side of 0.

The probe of the conjecture that the zeros of every ``h_r`` are real and
simple is ``chebsys.probe``; ``conjecture_probe`` is also read from here.
It proves each index with exact signs, by its interlacing step or by Sturm's
theorem, in y = x/c, and isolates each zero of a proved index in a dyadic
interval (``probe.isolate``).  The zeros of such an index are taken from
those intervals, refined with exact signs to 2**-(precision + GUARD_BITS)
of each zero (``probe.refined``), and mapped to x = c*y and to t on the
integer kernel: no root is solved and mpmath is not loaded.  An index the
probe does not prove, one whose zeros are not real and simple, has no zeros
here: it raises ``ConvergenceFailure``, and ``roots`` writes it as an
``unproved`` row.  A caller who wants the zeros of such an h_r solves it by
hand: ``mpmath.polyroots`` on h's coefficients, highest first.
"""

from __future__ import annotations

from collections import namedtuple

from .algebraic import _STAR_BITS, _iroot, _unit_roots
from .errors import ConvergenceFailure
# the probe loads no numeric library; the acceptance battery and the
# benchmark's tracer read conjecture_probe from here
from .probe import Isolated, conjecture_probe, isolate, refined
from .rationals import div_man_exp, to_float
from .recurrence import Params, TypeIRecord

GUARD_BITS = 32  # bits beyond the precision to which a proved zero is refined


RootReport = namedtuple(
    "RootReport",
    "r h_roots t_roots off_attractor origin_multiplicity total_root_count",
)
RootReport.__doc__ = """Zeros of one scalar term in both the reduced and the original plane.

``h_roots`` are (complex, multiplicity) pairs in the reduced variable, and
``t_roots`` the same in the original variable, origin included.
``off_attractor`` is the number of zeros of ``t_r`` off the rays of the
attractor star, counted exactly from the sides of 0 of the proved zeros of
``h_r``; the origin lies on every ray.
"""


def _proved_pairs(iso: Isolated, p: Params, bits: int) -> tuple:
    """The zeros of h_r off x = 0 and of t_r off the origin, each simple,
    from the isolating intervals in y = x/c of a proved h_r, the number of
    zeros of h_r at x = 0 (0 or 1), and the number of zeros of t_r off the
    attractor rays.

    Each interval is refined to 2**-bits of its zero y; an interval across 0
    is cut there first (``probe.enclosure``), so each lies on one side of 0
    and its midpoint has the sign of its zero.  x = c*y at the midpoint is
    formed exactly and written rounded once, and its (m+1)-th roots as
    ``mpmath.root`` orders them for real x: modulus ``|x|**(1/(m+1))`` on
    the integer kernel, and the exact ray angles ``pi*(2k + (x < 0))/(m+1)``
    of ``_unit_roots``, each part rounded once.
    """
    n, (P, Q) = p.m + 1, p.ratio
    units = _unit_roots(2 * n)
    h_pairs, t_pairs, at_origin, off = [], [], 0, 0
    for lo, hi, k in refined(iso, bits):
        man, exp = P * (lo + hi), -k - 1  # x = man * 2**exp / Q
        if not man:
            at_origin += 1
            continue
        # the attractor's rays are the even ones (x < 0) for even m
        if (man > 0) == (n % 2 == 1):
            off += n
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
    return h_pairs, t_pairs, at_origin, off


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
    origin_mult = rec.ell
    if isolated is not None:
        h_pairs, t_pairs, low_zeros, off = _proved_pairs(isolated, p, precision + GUARD_BITS)
    elif rec.h.degree == 0:
        h_pairs, t_pairs, low_zeros, off = [], [], 0, 0
    else:
        raise ConvergenceFailure(f"the probe proved no zeros of h_{rec.r}", poly=rec.h)
    # a zero of h at the origin lifts to m+1 extra zeros of t at the origin
    origin_mult += (p.m + 1) * low_zeros
    if origin_mult:
        t_pairs.insert(0, (complex(0), origin_mult))
    return RootReport(
        r=rec.r,
        h_roots=tuple(h_pairs),
        t_roots=tuple(t_pairs),
        off_attractor=off,
        origin_multiplicity=origin_mult,
        total_root_count=sum(mult for _, mult in t_pairs),
    )


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
