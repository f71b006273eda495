"""Exact rationals at the edges of the integer core.

The exact half of the package computes in plain Python integers: an exact
polynomial or vector is a tuple of integer numerators over one positive
denominator (see ``exactpoly.Poly`` and ``operators``).  ``fractions.Fraction``
appears only where exact values cross that boundary: parsing input
(``as_rational``), canonical strings (``rat_str``, ``rat_strs``) and rounding
into mpmath (``rat_to_mpf``, ``round_ratio``).
"""

from __future__ import annotations

import math
from fractions import Fraction

# the representation the exact half computes in: integer numerators over one
# positive denominator per polynomial or vector
BACKEND = "scaled-int"

Rational = Fraction


def as_rational(value) -> Rational:
    """Coerce to an exact rational.

    Accepts Fractions, ints and strings such as ``"3"`` or ``"-5/7"``.
    Floats are rejected: they would silently smuggle binary roundoff into
    computations whose whole point is exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            "float %r rejected for exact arithmetic; pass a 'p/q' string instead" % (value,)
        )
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def scaled(values) -> tuple[list, int]:
    """Integer numerators over the least common denominator of ``values``."""
    fracs = [as_rational(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def rat_str(q) -> str:
    """Canonical lossless string form ``"p/q"`` (denominator always shown)."""
    q = as_rational(q)
    return f"{q.numerator}/{q.denominator}"


def rat_strs(nums, den: int) -> list:
    """``rat_str`` of every ``num/den`` (``den > 0``), straight from the integers."""
    out = []
    for num in nums:
        g = math.gcd(num, den)
        out.append(f"{num // g}/{den // g}")
    return out


def rat_to_mpf(q):
    """Round an exact rational to an mpmath float at the current precision."""
    import mpmath

    q = as_rational(q)
    return mpmath.mp.make_mpf(round_ratio(q.numerator, q.denominator, mpmath.mp.prec))


def round_ratio(num: int, den: int, prec: int) -> tuple:
    """``num/den`` (``den > 0``) rounded as the raw mpmath value of
    ``mpf(p) / mpf(q)`` at ``prec`` bits, ``p/q`` being the reduced fraction."""
    from mpmath.libmp import from_int, mpf_div, round_nearest

    g = math.gcd(num, den)
    value = from_int(num // g, prec, round_nearest)
    if den == g:
        return value
    return mpf_div(value, from_int(den // g, prec, round_nearest), prec, round_nearest)
