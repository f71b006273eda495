"""Finite truncations of the banded shift operator and exact biorthogonality.

The operator acts on sequences through the band pattern ``entry(i, j) = c``
when ``j = i - m``, ``1`` when ``j = i + 1`` and ``0`` otherwise.  On basis
vectors this reads ``T e_j = e_{j-1} + c e_{j+m}`` (with ``e_{-1}`` dropped)
and ``T^t e_j = e_{j+1} + c e_{j-m}`` (with ``e_{j-m}`` dropped for j < m).

Everything runs on one integer kernel.  With ``c = P/Q`` the scaled operator
``Q*T`` has integer entries, so ``Q**d * D * sum_j p_j(T) e_j`` is an
integer vector for polynomials ``p_j`` of degree at most d over a common
denominator D, and one Horner pass whose coefficients are vectors computes
it without a single fraction (``_image``).  An operator image is therefore
an integer vector with a tracked scale (``Scaled``), and a Gram entry is an
integer dot product over the product of two scales (``_pairing``).
``images`` builds every image from a pair of generated tables at one size,
so ``verify`` reads both jump identities (``is_unit``) and the Gram matrix
(``gram_offenders``) off one pass over the tables it holds, and checks the
adjoint identity with ``adjoint_holds``; the jump checks build their own
tables and call the same routine.  Only ``gram_matrix``,
``biorthogonality`` and ``BandedOperator.c`` return rationals, and only
they load ``fractions`` (as ``rationals.Rational``).

Truncation to N components is exact as long as the support of every
intermediate vector stays below the top band; the boolean overflow flag
returned with each image reports when entries of the untruncated image
would have landed at or beyond index N, letting callers decide whether the
truncated result still serves their purpose.  The matrix is never
materialized: each step walks the band in O(N).
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from operator import attrgetter, mul

from . import rationals
from .errors import TruncationOverflow
from .rationals import ratio
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


def _image(op: BandedOperator, polys, transpose: bool) -> tuple[Scaled, bool]:
    """``sum_j polys[j](T) e_j`` (at ``T^t`` when transposed), with the
    overflow flag, sticky over the steps.

    One Horner pass on ``Q*T`` whose coefficients are vectors: over D, the
    lcm of the denominators, the coefficient of power k is the integer
    vector ``sum_j D*polys[j][k] e_j``.  With d the largest degree, the
    accumulator after the step for power k holds
    ``Q**(d-k) * D * sum_j sum_{i>=k} polys[j][i] T**(i-k) e_j``, so the
    image is scaled by ``Q**d * D`` and costs d steps.
    """
    den = math.lcm(*(poly.den for poly in polys))
    rows = [[x * (den // poly.den) for x in poly.nums] for poly in polys]
    d = max(map(len, rows), default=0) - 1
    acc, qpow, overflow = [0] * op.size, 1, False
    for k in range(d, -1, -1):
        if k < d:
            acc, flag = _step(op, acc, transpose)
            overflow = overflow or flag
            qpow *= op.ratio[1]
        for j, row in enumerate(rows):
            if k < len(row) and row[k]:
                acc[j] += qpow * row[k]
    return Scaled(acc, qpow * den), overflow


def _int_dot(u: list, w: list) -> int:
    return sum(map(mul, u, w))


def _pairing(u: Scaled, w: Scaled) -> tuple[int, int]:
    """``<u, w>`` as an integer over a positive integer."""
    return _int_dot(u.nums, w.nums), u.scale * w.scale


def is_unit(image: Scaled, j: int) -> bool:
    """True iff the image is exactly ``e_j``."""
    nums = image.nums
    return nums[j] == image.scale and not any(nums[:j]) and not any(nums[j + 1 :])


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


def gram_offenders(us: list, ws: list) -> list:
    """The ``(r, n)`` at which ``<us[r], ws[n]>`` is not the Kronecker delta."""
    off = []
    for r, u in enumerate(us):
        for n, w in enumerate(ws):
            num, den = _pairing(u, w)
            if num != (den if n == r else 0):
                off.append((r, n))
    return off


def adjoint_holds(p: Params, seed: int, trials: int, size: int) -> bool:
    """True iff ``<T v, w> = <v, T^t w>`` at the given size for ``trials``
    pairs of random vectors drawn from ``seed``.

    The entries are n/d for d in 1..3, times 6, so integers, and both sides
    are taken times Q, by the integer operator ``Q*T``.
    """
    op = BandedOperator.for_params(p, size)
    rng = random.Random(seed)

    def random_vector():
        return [rng.randint(-9, 9) * 6 // rng.randint(1, 3) for _ in range(size)]

    for _ in range(trials):
        v, w = random_vector(), random_vector()
        if _int_dot(_step(op, v, False)[0], w) != _int_dot(v, _step(op, w, True)[0]):
            return False
    return True


def _lands_on(p: Params, j: int, polys, transpose: bool) -> bool:
    image, overflow = _image(BandedOperator.for_params(p, j + p.m + 2), polys, transpose)
    return not overflow and is_unit(image, j)


def jump_check_typeII(p: Params, n: int) -> bool:
    """True iff the n-th companion polynomial maps e_0 onto e_n exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _lands_on(p, n, [gen_type2(p, n)[n]], True)


def jump_check_typeI(p: Params, r: int) -> bool:
    """True iff the r-th vector term applied to the operator hits e_r exactly."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return _lands_on(p, r, gen_type1_vectors(p, r)[r].components, False)


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
    return [[rationals.Rational(*_pairing(u, w)) for w in ws] for u in us]
