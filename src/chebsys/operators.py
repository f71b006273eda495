"""Exact images of the banded shift operator and exact biorthogonality.

The operator acts on sequences through the band pattern ``entry(i, j) = c``
when ``j = i - m``, ``1`` when ``j = i + 1`` and ``0`` otherwise.  On basis
vectors this reads ``T e_j = e_{j-1} + c e_{j+m}`` (with ``e_{-1}`` dropped)
and ``T^t e_j = e_{j+1} + c e_{j-m}`` (with ``e_{j-m}`` dropped for j < m).
Both map a finitely supported sequence to a finitely supported one, so a
vector is the list of its first entries, all the others being zero, and it
grows by m entries under T and by one under ``T^t`` (``_step``).  Every
image is exact; there is no truncation and no size to choose.

Everything runs on one integer kernel.  With ``c = P/Q`` the scaled operator
``Q*T`` has integer entries, so ``Q**d * D * sum_j p_j(T) e_j`` is an
integer vector for polynomials ``p_j`` of degree at most d over a common
denominator D, and one Horner pass whose coefficients are vectors computes
it without a single fraction (``_image``).  An operator image is therefore
an integer vector with a tracked scale (``Scaled``), and a Gram entry is an
integer dot product over the product of two scales (``_pairing``).
``images`` builds every image from a pair of generated tables, so ``verify``
reads both jump identities (``is_unit``) and the Gram matrix
(``gram_offenders``) off one pass over the tables it holds, and checks the
adjoint identity with ``adjoint_holds``; the jump checks build their own
tables and call the same routine.  Only ``gram_matrix`` returns rationals,
and only it loads ``fractions``.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from operator import mul

from .recurrence import Params, gen_type1_vectors, gen_type2

Scaled = namedtuple("Scaled", "nums scale")
Scaled.__doc__ = "The vector ``nums[i] / scale`` with integer entries and ``scale > 0``."


def _step(p: Params, v: list, transpose: bool) -> list:
    """``(Q*T) v``, with ``len(v) + m`` entries, or ``(Q*T^t) v``, with
    ``len(v) + 1``, for an integer vector v.

    ``(Q*T v)_i = Q*v_{i+1} + P*v_{i-m}`` and
    ``(Q*T^t v)_i = Q*v_{i-1} + P*v_{i+m}``.
    """
    m = p.m
    P, Q = p.ratio
    if transpose:
        qv, pv = [0] + v, v[m:] + [0] * (min(m, len(v)) + 1)
    else:
        qv, pv = v[1:] + [0] * (m + 1), [0] * m + v
    return [Q * a + P * b for a, b in zip(qv, pv)]


def _image(p: Params, polys, transpose: bool) -> Scaled:
    """``sum_j polys[j](T) e_j`` (at ``T^t`` when transposed).

    One Horner pass on ``Q*T`` whose coefficients are vectors: over D, the
    lcm of the denominators, the coefficient of power k is the integer
    vector ``sum_j D*polys[j][k] e_j``.  With d the largest degree, the
    accumulator after the step for power k holds
    ``Q**(d-k) * D * sum_j sum_{i>=k} polys[j][i] T**(i-k) e_j``, so the
    image is scaled by ``Q**d * D`` and costs d steps.  The accumulator
    starts at ``len(polys)`` zeros, so the image has ``len(polys) + m*d``
    entries (``len(polys) + d`` when transposed).
    """
    den = math.lcm(*(poly.den for poly in polys))
    rows = [[x * (den // poly.den) for x in poly.nums] for poly in polys]
    d = max(map(len, rows), default=0) - 1
    acc, qpow = [0] * len(polys), 1
    for k in range(d, -1, -1):
        if k < d:
            acc = _step(p, acc, transpose)
            qpow *= p.ratio[1]
        for j, row in enumerate(rows):
            if k < len(row) and row[k]:
                acc[j] += qpow * row[k]
    return Scaled(acc, qpow * den)


def _int_dot(u: list, w: list) -> int:
    """The dot product; ``zip`` stops at the shorter vector, past which the
    entries are zero."""
    return sum(map(mul, u, w))


def _pairing(u: Scaled, w: Scaled) -> tuple[int, int]:
    """``<u, w>`` as an integer over a positive integer."""
    return _int_dot(u.nums, w.nums), u.scale * w.scale


def is_unit(image: Scaled, j: int) -> bool:
    """True iff the image is exactly ``e_j``."""
    nums = image.nums
    return j < len(nums) and nums[j] == image.scale and not any(nums[:j]) and not any(nums[j + 1 :])


def images(p: Params, vectors: list, type2: list) -> tuple[list, list]:
    """The type I images of the vector records and the type II images of the
    companion terms.

    The tables are used as given, so the images test them.
    """
    us = [_image(p, rec.components, False) for rec in vectors]
    ws = [_image(p, [T], True) for T in type2]
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
    """True iff ``<T v, w> = <v, T^t w>`` for ``trials`` pairs of random
    vectors of ``size`` entries drawn from ``seed``.

    The entries are n/d for d in 1..3, times 6, so integers, and both sides
    are taken times Q, by the integer operator ``Q*T``.
    """
    rng = random.Random(seed)

    def random_vector():
        return [rng.randint(-9, 9) * 6 // rng.randint(1, 3) for _ in range(size)]

    for _ in range(trials):
        v, w = random_vector(), random_vector()
        if _int_dot(_step(p, v, False), w) != _int_dot(v, _step(p, w, True)):
            return False
    return True


def jump_check_typeII(p: Params, n: int) -> bool:
    """True iff the n-th companion polynomial maps e_0 onto e_n exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return is_unit(_image(p, [gen_type2(p, n)[n]], True), n)


def jump_check_typeI(p: Params, r: int) -> bool:
    """True iff the r-th vector term applied to the operator hits e_r exactly."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return is_unit(_image(p, gen_type1_vectors(p, r)[r].components, False), r)


def gram_matrix(p: Params, r_max: int, n_max: int) -> list:
    """Full exact pairing matrix, entry [r][n], from one image per index."""
    from fractions import Fraction

    us, ws = images(p, gen_type1_vectors(p, r_max), gen_type2(p, n_max))
    return [[Fraction(*_pairing(u, w)) for w in ws] for u in us]
