"""Exact rationals at the edges of the integer core.

The exact half of the package computes in plain Python integers: an exact
polynomial or vector is a tuple of integer numerators over one positive
denominator (see ``exactpoly.Poly`` and ``operators``), and the weight c is
the reduced pair ``(num, den)`` (``recurrence.Params.ratio``).  Input is read
into such a pair by ``ratio``, which parses a plain ``[+-]digits[/digits]``
itself, and canonical strings (``rat_str``, ``rat_strs``) and the rounding
into mpmath (``rat_to_mpf``, ``round_ratio``) are formed from the integers.
``fractions.Fraction`` appears only at the edges of the API, and the module
is loaded only then: on the first use of ``as_rational``, ``Rational``,
``Params.c``, ``Poly.coeffs`` and the like, or for an input that is not
plain (``0.5``, ``1e3``, ``1_000``, surrounding spaces, non-ASCII digits),
which ``ratio`` hands to ``Fraction`` so that it is read, or refused with
the same message, as ``Fraction`` reads it.

The same boundary holds the numeric half's integer kernel: a binary float
as a signed integer mantissa and an exponent, ``man * 2**exp``, added,
multiplied, divided and square-rooted in plain integers and rounded
exactly as mpmath's libmp rounds (see ``add_man_exp``).  It carries the
hot paths that would otherwise make one mpmath call per step: the
rounding of every rational into mpmath (``round_ratio``, returned as a raw
value by ``raw_mpf``), and the branch values of ``algebraic`` at every
precision, with their exact polish, moduli (``hypot_man_exp``) and double
conversions (``from_float``, ``to_float``), and the fixed-point asymptotic
scan built on them, its errors and ratio rounded here, so neither needs
mpmath at all.  The cold Horner and Aberth loops of ``exactpoly`` and
``rootfind`` run on mpmath's own operators.
"""

from __future__ import annotations

import math

# the representation the exact half computes in: integer numerators over one
# positive denominator per polynomial or vector
BACKEND = "scaled-int"


def __getattr__(name):
    # Rational is fractions.Fraction, imported on first use
    if name != "Rational":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from fractions import Fraction

    globals()["Rational"] = Fraction
    return Fraction


def as_rational(value) -> Fraction:
    """Coerce to an exact rational, a ``fractions.Fraction``.

    Accepts Fractions, ints and strings such as ``"3"`` or ``"-5/7"``.
    Floats are rejected: they would silently smuggle binary roundoff into
    computations whose whole point is exactness.  A string that is not a
    rational, ``"1/0"`` included, raises ``ValueError``.
    """
    from fractions import Fraction

    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            "float %r rejected for exact arithmetic; pass a 'p/q' string instead" % (value,)
        )
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _plain(text: str):
    """``(num, den)`` of an ASCII ``[+-]digits[/digits]`` with a nonzero
    denominator, reduced, or None for any other text."""
    if not text.isascii():
        return None
    num, slash, den = text.partition("/")
    digits = num[1:] if num.startswith(("+", "-")) else num
    if not digits.isdigit() or slash and not den.isdigit():
        return None
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:  # beyond the digit limit of int(), as in Fraction
        return None
    if not den:
        return None
    g = math.gcd(num, den)
    return num // g, den // g


def ratio(value) -> tuple:
    """The reduced ``(num, den)``, ``den > 0``, of what ``as_rational`` accepts.

    An int, or a string of the plain form ``[+-]digits[/digits]`` with a
    nonzero denominator, is read without ``fractions``; any other value goes
    through ``as_rational``, which reads it, or raises, as it always has.
    """
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, str):
        plain = _plain(value)
        if plain is not None:
            return plain
    q = as_rational(value)
    return q.numerator, q.denominator


def scaled(values) -> tuple[list, int]:
    """Integer numerators over the least common denominator of ``values``."""
    pairs = [ratio(v) for v in values]
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def rat_str(q) -> str:
    """Canonical lossless string form ``"p/q"`` (denominator always shown)."""
    return "%d/%d" % ratio(q)


def rat_strs(nums, den: int) -> list:
    """``rat_str`` of every ``num/den`` (``den > 0``), straight from the
    integers: one gcd per nonzero entry, and a zero as ``"0/1"`` without one."""
    out = []
    for num in nums:
        if not num:
            out.append("0/1")
            continue
        g = math.gcd(num, den)
        out.append(f"{num // g}/{den // g}")
    return out


def rat_to_mpf(q, den: int = 1):
    """Round the exact rational ``q / den`` to an mpmath float at the current
    precision; ``den`` is a positive integer."""
    import mpmath

    num, q_den = ratio(q)
    return mpmath.mp.make_mpf(round_ratio(num, q_den * den, mpmath.mp.prec))


# ---------------------------------------------------------------- the kernel
# A libmp add, multiply, divide or square root rounds the exact result to
# prec bits, half to even, except for one shortcut of mpf_add, which
# ``add_man_exp`` copies; so any code that forms each result exactly, or
# with a sticky bit below enough exact bits, and rounds it so gives the
# same bits.
# Mantissas here carry a sign and need not be odd: rounding depends on the
# value alone, and ``raw_mpf`` strips the trailing zeros libmp strips.


_RAW_ZERO = (0, 0, 0, 0)


def raw_mpf(man: int, exp: int) -> tuple:
    """The raw mpmath float of ``man * 2**exp``, in libmp's normal form."""
    if not man:
        return _RAW_ZERO
    sign = 0
    if man < 0:
        sign, man = 1, -man
    zeros = (man & -man).bit_length() - 1
    if zeros:
        man >>= zeros
        exp += zeros
    return (sign, man, exp, man.bit_length())


def from_float(x: float) -> tuple:
    """The finite double ``x`` as ``(man, exp)``, exactly."""
    num, den = x.as_integer_ratio()
    return num, 1 - den.bit_length()


def to_float(man: int, exp: int) -> float:
    """``man * 2**exp`` as a double, as ``float(mpf)`` rounds it.

    libmp rounds to 53 bits, half to even, and then scales by
    ``math.ldexp``, so a result below the normal range is rounded twice;
    one beyond the range is an infinity.
    """
    man, exp = round_man_exp(man, exp, 53)
    try:
        return math.ldexp(man, exp)
    except OverflowError:
        return math.copysign(math.inf, man)


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


def truncate_man_exp(man: int, exp: int, prec: int) -> tuple:
    """``man * 2**exp`` (``man >= 0``) rounded down to ``prec`` bits (libmp's ``round_down``)."""
    n = man.bit_length() - prec
    if n <= 0:
        return man, exp
    return man >> n, exp + n


def add_man_exp(
    a: int, ea: int, b: int, eb: int, prec: int, rounding=round_man_exp
) -> tuple:
    """``a * 2**ea + b * 2**eb`` rounded to ``prec`` bits as libmp's ``mpf_add``.

    libmp rounds the exact sum, except where one addend lies more than
    ``prec + 4`` bits below the other and the lowest set bits of the two
    are more than 100 apart: there it rounds the larger one nudged toward
    the smaller by less than its own last bit, which is not always the
    correctly rounded sum.  The same rule is applied here.  ``rounding``
    is ``round_man_exp`` for libmp's round-to-nearest, or
    ``truncate_man_exp`` for its ``round_down``.
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
    return rounding(a, ea, prec)


def div_man_exp(a: int, ea: int, b: int, eb: int, prec: int) -> tuple:
    """``(a * 2**ea) / (b * 2**eb)`` rounded to ``prec`` bits as libmp's ``mpf_div``.

    That is the correctly rounded quotient, half to even: it is formed to
    at least ``prec + 2`` bits, with a sticky bit below them for a nonzero
    remainder, and rounded once.
    """
    if not a:
        return 0, 0
    if b < 0:
        a, b = -a, -b
    extra = max(0, prec + 3 + b.bit_length() - a.bit_length())
    if a > 0:
        quot, rem = divmod(a << extra, b)
        quot = quot << 1 | (rem != 0)
    else:
        quot, rem = divmod(-a << extra, b)
        quot = -(quot << 1 | (rem != 0))
    return round_man_exp(quot, ea - eb - extra - 1, prec)


def sqrt_man_exp(man: int, exp: int, prec: int) -> tuple:
    """The square root of ``man * 2**exp`` (``man >= 0``) as libmp's ``mpf_sqrt``.

    That is the correctly rounded root, half to even, formed as the
    quotient of ``div_man_exp`` is.
    """
    if exp & 1:
        man, exp = man << 1, exp - 1
    shift = max(0, 2 * prec + 4 - man.bit_length())
    shift += shift & 1
    root = math.isqrt(man << shift)
    sticky = root * root != man << shift
    return round_man_exp(root << 1 | sticky, ((exp - shift) >> 1) - 1, prec)


def hypot_man_exp(a: int, ea: int, b: int, eb: int, prec: int) -> tuple:
    """``|a * 2**ea + i * b * 2**eb|`` as libmp's ``mpf_hypot`` rounds it.

    With one part zero that is the other's modulus rounded to ``prec``
    bits.  Otherwise libmp truncates the sum of the exact squares to
    ``prec + 4`` bits (``mpf_add`` at ``round_down``) and takes its
    correctly rounded square root.
    """
    if not b:
        return round_man_exp(abs(a), ea, prec)
    if not a:
        return round_man_exp(abs(b), eb, prec)
    total = add_man_exp(a * a, 2 * ea, b * b, 2 * eb, prec + 4, truncate_man_exp)
    return sqrt_man_exp(*total, prec)


def round_ratio(num: int, den: int, prec: int) -> tuple:
    """``num/den`` (``den > 0``) rounded as the raw mpmath value of
    ``mpf(p) / mpf(q)`` at ``prec`` bits, ``p/q`` being the reduced fraction.

    p and q are each rounded to ``prec`` bits first, as ``mpf`` rounds them,
    and their quotient is then rounded once, on the integer kernel.
    """
    if not num:
        return _RAW_ZERO
    g = math.gcd(num, den)
    a, ea = round_man_exp(num // g, 0, prec)
    if den == g:
        return raw_mpf(a, ea)
    return raw_mpf(*div_man_exp(a, ea, *round_man_exp(den // g, 0, prec), prec))
