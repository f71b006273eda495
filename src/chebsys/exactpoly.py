"""Dense univariate polynomials with exact rational coefficients, in integers.

A polynomial is a tuple of integer numerators ``nums`` (indexed by power,
trailing zeros stripped) over one positive denominator ``den``, normalised so
that ``gcd(den, *nums) == 1``; the zero polynomial is ``((), 1)`` and reports
degree -1.  The normal form is unique, so equality is a tuple compare.
Every operation except complex evaluation is exact and runs on Python
integers; the reduced rational coefficients are available as ``coeffs``,
``fractions.Fraction`` values, whose module is loaded on first use.
``dyadic_sign`` gives the exact sign at a dyadic point, from which the
probe proves that all roots are real and simple.
Complex evaluation rounds each reduced coefficient to an explicit working
precision (in bits) and runs Horner's rule on mpmath's complex operators;
it is an acceptance oracle that no command calls, and imports mpmath, which
is in the ``test`` extra only, when called.

All values are immutable and the functions are pure, so everything here is
safe to share across threads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from operator import attrgetter

from .rationals import rat_to_mpf, ratio, scaled

DEFAULT_PRECISION = 53


class Poly:
    """Dense polynomial ``sum(nums[i] * x**i) / den``.

    ``Poly(coeffs)`` takes exact rational coefficients (ints, Fractions or
    ``"p/q"`` strings), ``coeffs[i]`` being the coefficient of ``x**i``;
    ``Poly.scaled(nums, den)`` takes integer numerators over a nonzero
    integer denominator.  ``nums`` and ``den`` are read-only; equality,
    hashing and pickling see them.
    """

    __slots__ = ("_nums", "_den")

    nums = property(attrgetter("_nums"))
    den = property(attrgetter("_den"))

    def __init__(self, coeffs: Iterable = ()):
        self._set(*scaled(coeffs))

    def _set(self, nums: list, den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            den = 1
        else:
            g = math.gcd(den, *nums)
            if den < 0:
                g = -g
            if g != 1:
                nums = [n // g for n in nums]
                den //= g
        self._nums = tuple(nums)
        self._den = den

    @classmethod
    def scaled(cls, nums: Iterable, den: int = 1) -> "Poly":
        """``sum(nums[i] * x**i) / den`` for integers with ``den != 0``."""
        if not den:
            raise ZeroDivisionError("polynomial denominator is zero")
        poly = cls.__new__(cls)
        poly._set(list(nums), den)
        return poly

    @classmethod
    def zero(cls) -> "Poly":
        return cls.scaled(())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._nums == other._nums and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __repr__(self) -> str:
        return f"Poly(nums={self._nums!r}, den={self._den!r})"

    def __reduce__(self):
        return Poly.scaled, (self._nums, self._den)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced rationals, ``coeffs[i]`` of ``x**i``."""
        from fractions import Fraction

        return tuple(Fraction(n, self._den) for n in self._nums)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 encodes the zero polynomial."""
        return len(self._nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        den = math.lcm(self._den, other._den)
        a = [n * (den // self._den) for n in self._nums]
        b = [n * (den // other._den) for n in other._nums]
        if len(a) < len(b):
            a, b = b, a
        for i, n in enumerate(b):
            a[i] += n
        return Poly.scaled(a, den)

    def __radd__(self, other) -> "Poly":
        if other == 0:  # lets sum() work over polynomials
            return self
        return NotImplemented

    def __neg__(self) -> "Poly":
        return Poly.scaled([-n for n in self._nums], self._den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self._nums, other._nums
            if not a or not b:
                return Poly.zero()
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return Poly.scaled(out, self._den * other._den)
        num, den = ratio(other)
        return Poly.scaled([n * num for n in self._nums], self._den * den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def derivative(self) -> "Poly":
        return Poly.scaled([i * n for i, n in enumerate(self._nums) if i], self._den)

    def eval_complex(self, z, precision: int = DEFAULT_PRECISION):
        """Horner evaluation ``acc*z + c`` at a complex point.

        Each reduced coefficient is rounded to ``precision`` bits by
        ``rat_to_mpf``; the result is an mpmath complex carrying that working
        precision.  mpmath, in the ``test`` extra, is imported on the call.
        """
        import mpmath

        if precision < 53:
            raise ValueError("precision must be at least 53 bits")
        with mpmath.workprec(precision):
            zz = mpmath.mpc(z)
            acc = mpmath.mpc(0)
            for n in reversed(self._nums):
                acc *= zz
                # adding a zero coefficient would only round acc again, which
                # leaves it as it is
                if n:
                    acc += rat_to_mpf(n, self._den)
            return acc


def compose_star(h: Poly, m: int, k: int, ell: int) -> Poly:
    """Expand ``(-1)**k * z**ell * h(z**(m+1))`` as an exact polynomial.

    The result is supported on exponents congruent to ``ell`` modulo ``m+1``
    and has degree ``ell + (m+1)*deg(h)`` when ``h`` is nonzero.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= k <= m - 1:
        raise ValueError("k must lie in 0..m-1")
    if not 0 <= ell <= m:
        raise ValueError("ell must lie in 0..m")
    if h.is_zero:
        return Poly.zero()
    sign = -1 if k % 2 else 1
    out = [0] * (ell + (m + 1) * h.degree + 1)
    out[ell :: m + 1] = [sign * n for n in h.nums]
    return Poly.scaled(out, h.den)


def _pseudo_remainder(a: list, b: list) -> list:
    """Remainder of ``|lead(b)|**e * a`` by ``b`` over the integers, stripped.

    The factor is positive, so the result is a positive multiple of the
    remainder of ``a`` by ``b`` over the rationals.
    """
    if b[-1] < 0:
        b = [-y for y in b]  # the same remainder, by a positive lead
    rem = list(a)
    lead = b[-1]
    while len(rem) >= len(b):
        factor = rem[-1]
        offset = len(rem) - len(b)
        rem = [lead * x for x in rem]
        for j, y in enumerate(b):
            rem[offset + j] -= factor * y
        while rem and not rem[-1]:
            rem.pop()
    return rem


def _remainder_chain(a: list, b: list):
    """``a``, ``b`` and then each negated primitive pseudo-remainder of the
    last two, up to the last nonzero one, which is a gcd of ``a`` and ``b``.

    Each element is a positive multiple of the term of the Euclidean
    sequence ``p[i+1] = -rem(p[i-1], p[i])``, so for ``(p, p')`` the chain is
    a Sturm sequence up to positive factors.
    """
    yield a
    while b:
        yield b
        a, b = b, _pseudo_remainder(a, b)
        if b:
            g = math.gcd(*b)
            b = [-n // g for n in b]


def dyadic_sign(p: Poly, a: int, k: int) -> int:
    """The sign (-1, 0 or 1) of ``p(a / 2**k)`` for ``k >= 0``, exactly.

    Horner's rule on the integer ``sum(nums[i] * a**i * 2**(k*(d-i)))``, which
    is ``p(a / 2**k)`` times the positive ``den * 2**(k*d)``.
    """
    acc = 0
    shift = 0
    for n in reversed(p.nums):
        acc = acc * a + (n << shift)
        shift += k
    return (acc > 0) - (acc < 0)
