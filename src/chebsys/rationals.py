"""Exact rationals at the edges of the integer core.

The exact half of the package computes in plain Python integers: an exact
polynomial or vector is a tuple of integer numerators over one positive
denominator (see ``exactpoly.Poly`` and ``operators``).  ``fractions.Fraction``
appears only where exact values cross that boundary: parsing input
(``as_rational``), canonical strings (``rat_str``, ``rat_strs``) and rounding
into mpmath (``rat_to_mpf``, ``round_ratio``).

The same boundary holds the numeric half's integer kernel: a binary float
as a signed integer mantissa and an exponent, ``man * 2**exp``, added and
rounded in plain integers exactly as mpmath's libmp rounds (see
``add_man_exp``).  Horner loops run on it and convert to raw mpmath values
(``raw_mpf``) only at their ends.
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
        if not num:
            out.append("0/1")
            continue
        g = math.gcd(num, den)
        out.append(f"{num // g}/{den // g}")
    return out


def rat_to_mpf(q):
    """Round an exact rational to an mpmath float at the current precision."""
    import mpmath

    q = as_rational(q)
    return mpmath.mp.make_mpf(round_ratio(q.numerator, q.denominator, mpmath.mp.prec))


# the libmp calls of ``round_ratio``, resolved on its first call so that the
# exact half loads without mpmath
_from_int = _mpf_div = _round_nearest = _fzero = None


def round_ratio(num: int, den: int, prec: int) -> tuple:
    """``num/den`` (``den > 0``) rounded as the raw mpmath value of
    ``mpf(p) / mpf(q)`` at ``prec`` bits, ``p/q`` being the reduced fraction."""
    global _from_int, _mpf_div, _round_nearest, _fzero
    if _from_int is None:
        from mpmath.libmp import from_int as _from_int
        from mpmath.libmp import fzero as _fzero
        from mpmath.libmp import mpf_div as _mpf_div
        from mpmath.libmp import round_nearest as _round_nearest
    if not num:
        return _fzero
    g = math.gcd(num, den)
    value = _from_int(num // g, prec, _round_nearest)
    if den == g:
        return value
    return _mpf_div(value, _from_int(den // g, prec, _round_nearest), prec, _round_nearest)


# ---------------------------------------------------------------- the kernel
# A libmp add or multiply rounds the exact result to prec bits, half to even,
# except for one shortcut of mpf_add, which ``add_man_exp`` copies; so any
# code that forms each result exactly and rounds it so gives the same bits.
# Mantissas here carry a sign and need not be odd: rounding depends on the
# value alone, and ``raw_mpf`` strips the trailing zeros libmp strips.


def man_exp(x) -> tuple:
    """The raw mpmath float ``x`` as ``(man, exp)``, its value ``man * 2**exp``."""
    sign, man, exp, _ = x
    if not man and exp:
        raise ValueError("the integer kernel takes finite values only")
    return (-man if sign else man), exp


_from_man_exp = None


def raw_mpf(man: int, exp: int) -> tuple:
    """The raw mpmath float of ``man * 2**exp``, in libmp's normal form."""
    global _from_man_exp
    if _from_man_exp is None:
        from mpmath.libmp import from_man_exp as _from_man_exp
    return _from_man_exp(man, exp)


def round_man_exp(man: int, exp: int, prec: int) -> tuple:
    """``man * 2**exp`` rounded to ``prec`` bits, half to even.

    With ``man = a*b`` and ``exp = ea + eb`` this is libmp's ``mpf_mul``.
    """
    n = man.bit_length() - prec
    if n <= 0:
        return man, exp
    # for a negative man the floor shift and the two's-complement low bits
    # still give the half-to-even rounding of its magnitude, negated
    t = man >> (n - 1)
    if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
        return (t >> 1) + 1, exp + n
    return t >> 1, exp + n


def add_man_exp(a: int, ea: int, b: int, eb: int, prec: int) -> tuple:
    """``a * 2**ea + b * 2**eb`` rounded to ``prec`` bits as libmp's ``mpf_add``.

    libmp rounds the exact sum, except where one addend lies more than
    ``prec + 4`` bits below the other and the lowest set bits of the two
    are more than 100 apart: there it rounds the larger one nudged toward
    the smaller by less than its own last bit, which is not always the
    correctly rounded sum.  The same rule is applied here.
    """
    if not a:
        a, ea = b, eb
    elif b:
        shift = ea - eb
        gap = a.bit_length() - b.bit_length() + shift  # of the leading bits
        # the lowest set bits are shift + low apart; low is needed only here
        if gap > prec + 4 and shift + (a & -a).bit_length() - (b & -b).bit_length() > 100:
            a, ea = (a << prec + 4) + (1 if b > 0 else -1), ea - prec - 4
        elif gap < -prec - 4 and shift + (a & -a).bit_length() - (b & -b).bit_length() < -100:
            a, ea = (b << prec + 4) + (1 if a > 0 else -1), eb - prec - 4
        elif shift >= 0:
            a, ea = (a << shift) + b, eb
        else:
            a += b << -shift
    return round_man_exp(a, ea, prec)
