"""Dense univariate polynomials with exact rational coefficients, in integers.

A polynomial is a tuple of integer numerators ``nums`` (indexed by power,
trailing zeros stripped) over one positive denominator ``den``, normalised so
that ``gcd(den, *nums) == 1``; the zero polynomial is ``((), 1)`` and reports
degree -1.  The normal form is unique, so equality is a tuple compare.
Every operation except complex evaluation is exact and runs on Python
integers; the reduced rational coefficients are available as ``coeffs``.
Complex evaluation rounds each reduced coefficient to an explicit working
precision (in bits) and is the single bridge between the exact and numeric
halves of the package.

All values are immutable and the functions are pure, so everything here is
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .rationals import Rational, as_rational, round_ratio, scaled

DEFAULT_PRECISION = 53


@dataclass(frozen=True, init=False)
class Poly:
    """Dense polynomial ``sum(nums[i] * x**i) / den``.

    ``Poly(coeffs)`` takes exact rational coefficients (ints, Fractions or
    ``"p/q"`` strings), ``coeffs[i]`` being the coefficient of ``x**i``;
    ``Poly.scaled(nums, den)`` takes integer numerators over a nonzero
    integer denominator.
    """

    nums: tuple
    den: int
    # caches: the reduced coefficients, and (precision, roundings) of the
    # last precision evaluated at
    _coeffs: tuple | None = field(default=None, compare=False, repr=False)
    _rounded: tuple | None = field(default=None, compare=False, repr=False)

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
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_coeffs", None)
        object.__setattr__(self, "_rounded", None)

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

    @classmethod
    def x(cls) -> "Poly":
        return cls.scaled((0, 1))

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced rationals, ``coeffs[i]`` of ``x**i``."""
        if self._coeffs is None:
            den = self.den
            object.__setattr__(self, "_coeffs", tuple(Fraction(n, den) for n in self.nums))
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 encodes the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def leading(self) -> Rational:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a = [n * (den // self.den) for n in self.nums]
        b = [n * (den // other.den) for n in other.nums]
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
        return Poly.scaled([-n for n in self.nums], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.nums, other.nums
            if not a or not b:
                return Poly.zero()
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return Poly.scaled(out, self.den * other.den)
        scalar = as_rational(other)
        return Poly.scaled(
            [n * scalar.numerator for n in self.nums], self.den * scalar.denominator
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.nums:
            return self
        return Poly.scaled((0,) * k + self.nums, self.den)

    def derivative(self) -> "Poly":
        return Poly.scaled([i * n for i, n in enumerate(self.nums) if i], self.den)

    def eval_exact(self, x) -> Rational:
        """Exact Horner evaluation at a rational point."""
        x = as_rational(x)
        p, q = x.numerator, x.denominator
        # sum nums[i] * p**i * q**(deg-i), over den * q**deg
        acc = 0
        qpow = 1
        for n in reversed(self.nums):
            acc = acc * p + n * qpow
            qpow *= q
        return Fraction(acc, self.den * qpow // q if self.nums else 1)

    def eval_complex(self, z, precision: int = DEFAULT_PRECISION):
        """Horner evaluation at a complex point.

        Each reduced coefficient is rounded to ``precision`` bits as
        ``rat_to_mpf`` rounds it (the roundings are kept for the next call at
        the same precision); the result is an mpmath complex carrying that
        working precision.
        """
        # imported here so that the exact half loads without mpmath
        import mpmath
        from mpmath.libmp import fzero, mpc_add_mpf, mpc_mul, round_nearest

        if precision < 53:
            raise ValueError("precision must be at least 53 bits")
        cached = self._rounded
        if cached is None or cached[0] != precision:
            den = self.den
            rounded = [round_ratio(n, den, precision) for n in reversed(self.nums)]
            cached = (precision, rounded)
            object.__setattr__(self, "_rounded", cached)
        with mpmath.workprec(precision):
            zz = mpmath.mpc(z)._mpc_
        # acc*zz + c on raw mpmath values, rounded as the mpc operators round
        acc = (fzero, fzero)
        for c in cached[1]:
            acc = mpc_mul(acc, zz, precision, round_nearest)
            acc = mpc_add_mpf(acc, c, precision, round_nearest)
        return mpmath.mp.make_mpc(acc)

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{i}")
        return " + ".join(parts)


def poly_add(p: Poly, q: Poly) -> Poly:
    return p + q


def poly_mul(p: Poly, q: Poly) -> Poly:
    return p * q


def poly_eval_exact(p: Poly, x) -> Rational:
    return p.eval_exact(x)


def poly_eval_complex(p: Poly, z, precision: int = DEFAULT_PRECISION):
    return p.eval_complex(z, precision)


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


def _primitive(nums: list) -> list:
    g = math.gcd(*nums)
    return [n // g for n in nums] if g != 1 else nums


def _pseudo_remainder(a: list, b: list) -> list:
    """Remainder of ``lead(b)**e * a`` by ``b`` over the integers, stripped."""
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


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd (exact), by Euclid's algorithm on primitive integer remainders."""
    a, b = list(p.nums), list(q.nums)
    while b:
        a, b = b, _pseudo_remainder(a, b)
        if b:
            b = _primitive(b)
    if not a:
        return Poly.zero()
    return Poly.scaled(a, a[-1])
