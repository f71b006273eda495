"""Finite truncations of the banded shift operator and exact biorthogonality.

The operator acts on sequences through the band pattern ``entry(i, j) = c``
when ``j = i - m``, ``1`` when ``j = i + 1`` and ``0`` otherwise.  On basis
vectors this reads ``T e_j = e_{j-1} + c e_{j+m}`` (with ``e_{-1}`` dropped)
and ``T^t e_j = e_{j+1} + c e_{j-m}`` (with ``e_{j-m}`` dropped for j < m).

Everything runs on one integer kernel.  With ``c = P/Q`` the scaled operator
``Q*T`` has integer entries, so ``Q**d * D * p(T) v`` is an integer vector
for a polynomial ``p`` of degree d with denominator D applied to an integer
vector v, and Horner's rule computes it without a single fraction.  An
operator image is therefore an integer vector with a tracked scale
(``Scaled``), and a Gram entry is an integer dot product over the product of
two scales.  ``apply_T``, ``apply_T_transpose``, ``poly_of_operator``,
``dot``, ``gram_matrix``, ``biorthogonality`` and ``BandedOperator.c``
convert to and from rationals at the edges, and only they load
``fractions`` (as ``rationals.Rational``).
Every image comes from one routine, ``_image``.  ``images`` builds all of
them from a pair of generated tables at one size, so ``verify`` reads both
jump identities and the Gram matrix off one pass over the tables it holds;
the per-index functions generate their tables and call the same routine.

Truncation to N components is exact as long as the support of every
intermediate vector stays below the top band; the boolean overflow flag
returned by each application reports when entries of the untruncated image
would have landed at or beyond index N, letting callers decide whether the
truncated result still serves their purpose.  The matrix is never
materialized: each application walks the band in O(N).
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import attrgetter, mul

from . import rationals
from .errors import TruncationOverflow
from .exactpoly import Poly
from .rationals import ratio, scaled
from .recurrence import Params, gen_type1_vectors, gen_type2


class BandedOperator:
    """N x N truncation of the banded operator for parameters (m, c).

    c is kept as the reduced integers ``ratio = (num, den)``; ``c`` is it as
    a ``fractions.Fraction``.  ``size``, ``m`` and c are read-only, and
    equality and hashing see all three.
    """

    __slots__ = ("_size", "_m", "_ratio")

    size = property(attrgetter("_size"))
    m = property(attrgetter("_m"))
    ratio = property(attrgetter("_ratio"))

    def __init__(self, size: int, m: int, c):
        if size < 1:
            raise ValueError("size must be >= 1")
        if m < 1:
            raise ValueError("m must be >= 1")
        self._size = size
        self._m = m
        self._ratio = ratio(c)

    @property
    def c(self):
        return rationals.Rational(*self._ratio)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._size, self._m, self._ratio) == (other._size, other._m, other._ratio)

    def __hash__(self) -> int:
        return hash((self._size, self._m, self._ratio))

    def __repr__(self) -> str:
        P, Q = self._ratio
        return f"BandedOperator(size={self._size!r}, m={self._m!r}, c=Fraction({P}, {Q}))"

    @classmethod
    def for_params(cls, p: Params, size: int) -> "BandedOperator":
        return cls(size, p.m, "%d/%d" % p.ratio)


Scaled = namedtuple("Scaled", "nums scale")
Scaled.__doc__ = "The vector ``nums[i] / scale`` with integer entries and ``scale > 0``."


def basis_vector(size: int, j: int) -> tuple:
    if not 0 <= j < size:
        raise ValueError(f"basis index {j} outside 0..{size - 1}")
    return tuple(1 if i == j else 0 for i in range(size))


# ---------------------------------------------------------------- integer kernel


def _step(op: BandedOperator, v: list, transpose: bool) -> tuple[list, bool]:
    """``(Q*T) v`` or ``(Q*T^t) v`` for an integer vector, with the overflow flag.

    ``(Q*T v)_i = Q*v_{i+1} + P*v_{i-m}``; the flag is set when v has support
    in the top m slots.  ``(Q*T^t v)_i = Q*v_{i-1} + P*v_{i+m}``; the flag is
    set when v has support in the last slot.
    """
    n, m = op.size, op.m
    P, Q = op.ratio
    if transpose:
        qv, pv = [0] + v[:-1], v[m:] + [0] * min(m, n)
        return [Q * a + P * b for a, b in zip(qv, pv)], bool(v[n - 1])
    qv, pv = v[1:] + [0], [0] * min(m, n) + v[: max(0, n - m)]
    return [Q * a + P * b for a, b in zip(qv, pv)], any(v[max(0, n - m) :])


def _poly_image(op: BandedOperator, nums, transpose: bool, v: list) -> tuple[Scaled, bool]:
    """The integer polynomial ``nums`` at the (transposed) operator, applied to v.

    Horner's rule on ``Q*T``: with ``d = len(nums) - 1`` the accumulator
    after the step for power k holds ``Q**(d-k) * sum_{i>=k} nums[i] T**(i-k) v``,
    so the result is the image scaled by ``Q**d``.  The overflow flag is
    sticky over the d applications.
    """
    if not nums:
        return Scaled([0] * op.size, 1), False
    Q = op.ratio[1]
    top = nums[-1]
    acc = [top * x for x in v]
    qpow = 1
    overflow = False
    for coeff in reversed(nums[:-1]):
        acc, flag = _step(op, acc, transpose)
        overflow = overflow or flag
        qpow *= Q
        if coeff:
            weight = qpow * coeff
            acc = [a + weight * x for a, x in zip(acc, v)]
    return Scaled(acc, qpow), overflow


def _image(op: BandedOperator, polys, transpose: bool) -> tuple[Scaled, bool]:
    """``sum_j polys[j](T) e_j`` (at ``T^t`` when transposed), one Horner
    application per member, with the sticky overflow flag."""
    acc, scale, overflow = [0] * op.size, 1, False
    for j, poly in enumerate(polys):
        part, flag = _poly_image(op, poly.nums, transpose, list(basis_vector(op.size, j)))
        overflow = overflow or flag
        part_scale = part.scale * poly.den
        common = math.lcm(scale, part_scale)
        a, b = common // scale, common // part_scale
        acc = [a * x + b * y for x, y in zip(acc, part.nums)]
        scale = common
    return Scaled(acc, scale), overflow


def _int_dot(u: list, w: list) -> int:
    return sum(map(mul, u, w))


def is_unit(image: Scaled, j: int) -> bool:
    """True iff the image is exactly ``e_j``."""
    nums = image.nums
    return nums[j] == image.scale and not any(nums[:j]) and not any(nums[j + 1 :])


# ---------------------------------------------------------------- rational edges


def apply_T(op: BandedOperator, v: tuple) -> tuple[tuple, bool]:
    """Apply the truncated operator: ``(T v)_i = v_{i+1} + c*v_{i-m}``.

    The overflow flag is set when the untruncated image would be nonzero at
    some index >= N, i.e. when v has support in the top m slots.
    """
    return poly_of_operator(op, Poly.x(), False, v)


def apply_T_transpose(op: BandedOperator, v: tuple) -> tuple[tuple, bool]:
    """Apply the transposed truncation: ``(T^t v)_i = v_{i-1} + c*v_{i+m}``."""
    return poly_of_operator(op, Poly.x(), True, v)


def poly_of_operator(
    op: BandedOperator, p: Poly, transpose: bool, v: tuple
) -> tuple[tuple, bool]:
    """Horner application of ``p`` evaluated at the (transposed) operator to ``v``.

    Exact whenever the truncation size exceeds the maximal index the repeated
    applications can reach (each application shifts support by at most m);
    otherwise the sticky overflow flag is raised.
    """
    if len(v) != op.size:
        raise ValueError(f"vector length {len(v)} != operator size {op.size}")
    nums, den = scaled(v)
    image, overflow = _poly_image(op, p.nums, transpose, nums)
    scale = image.scale * p.den * den
    return tuple(rationals.Rational(x, scale) for x in image.nums), overflow


def dot(u: tuple, v: tuple) -> Fraction:
    if len(u) != len(v):
        raise ValueError("length mismatch")
    (a, a_den), (b, b_den) = scaled(u), scaled(v)
    return rationals.Rational(_int_dot(a, b), a_den * b_den)


# ---------------------------------------------------------------- images and pairings


def type1_image(p: Params, r: int, size: int) -> tuple[Scaled, bool]:
    """``sum_j t_{j,r}(T) e_j`` over the m vector components, truncated to size."""
    op = BandedOperator.for_params(p, size)
    return _image(op, gen_type1_vectors(p, r)[r].components, False)


def type2_image(p: Params, n: int, size: int) -> tuple[Scaled, bool]:
    """``T_n(T^t) e_0`` truncated to size."""
    op = BandedOperator.for_params(p, size)
    return _image(op, [gen_type2(p, n)[n]], True)


def images(p: Params, vectors: list, type2: list, size: int) -> tuple[list, list]:
    """The type I images of the vector records and the type II images of the
    companion terms, all truncated to one size.

    The tables are used as given, so the images test them.  Raises
    TruncationOverflow naming the first image that overflowed.
    """
    op = BandedOperator.for_params(p, size)

    def checked(polys, transpose, name):
        image, overflow = _image(op, polys, transpose)
        if overflow:
            raise TruncationOverflow(f"truncation overflow for {name}, size={size}")
        return image

    us = [checked(rec.components, False, f"type I image r={rec.r}") for rec in vectors]
    ws = [checked([T], True, f"type II image n={n}") for n, T in enumerate(type2)]
    return us, ws


def jump_check_typeII(p: Params, n: int) -> bool:
    """True iff the n-th companion polynomial maps e_0 onto e_n exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    image, overflow = type2_image(p, n, n + p.m + 2)
    return not overflow and is_unit(image, n)


def jump_check_typeI(p: Params, r: int) -> bool:
    """True iff the r-th vector term applied to the operator hits e_r exactly."""
    if r < 0:
        raise ValueError("r must be >= 0")
    image, overflow = type1_image(p, r, r + p.m + 2)
    return not overflow and is_unit(image, r)


def biorthogonality(p: Params, n: int, r: int) -> Fraction:
    """Exact pairing of the two operator images; equals 1 iff n == r, else 0."""
    if n < 0 or r < 0:
        raise ValueError("indices must be >= 0")
    return gram_matrix(p, r, n)[r][n]


def gram_matrix(p: Params, r_max: int, n_max: int, size: int | None = None) -> list:
    """Full exact pairing matrix, entry [r][n], from one image per index."""
    if size is None:
        size = max(r_max, n_max) + p.m + 2
    us, ws = images(p, gen_type1_vectors(p, r_max), gen_type2(p, n_max), size)
    return [
        [rationals.Rational(_int_dot(u.nums, w.nums), u.scale * w.scale) for w in ws] for u in us
    ]
