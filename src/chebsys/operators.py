"""Finite truncations of the banded shift operator and exact biorthogonality.

The operator acts on sequences through the band pattern ``entry(i, j) = c``
when ``j = i - m``, ``1`` when ``j = i + 1`` and ``0`` otherwise.  On basis
vectors this reads ``T e_j = e_{j-1} + c e_{j+m}`` (with ``e_{-1}`` dropped)
and ``T^t e_j = e_{j+1} + c e_{j-m}`` (with ``e_{j-m}`` dropped for j < m).

Truncation to N components is exact as long as the support of every
intermediate vector stays below the top band; the boolean overflow flag
returned by each application reports when entries of the untruncated image
would have landed at or beyond index N, letting callers decide whether the
truncated result still serves their purpose.  The matrix is never
materialized: each application walks the band in O(N).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactpoly import Poly
from .rationals import Rational, ZERO, as_rational
from .recurrence import Params, gen_type1_vectors, gen_type2


class TruncationOverflow(RuntimeError):
    """An operator image reached past a truncation size chosen to contain it."""


@dataclass(frozen=True, init=False)
class BandedOperator:
    """N x N truncation of the banded operator for parameters (m, c)."""

    size: int
    m: int
    c: Rational

    def __init__(self, size: int, m: int, c):
        if size < 1:
            raise ValueError("size must be >= 1")
        if m < 1:
            raise ValueError("m must be >= 1")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "c", as_rational(c))

    @classmethod
    def for_params(cls, p: Params, size: int) -> "BandedOperator":
        return cls(size, p.m, p.c)


def basis_vector(size: int, j: int) -> tuple:
    if not 0 <= j < size:
        raise ValueError(f"basis index {j} outside 0..{size - 1}")
    return tuple(as_rational(1) if i == j else ZERO for i in range(size))


def zero_vector(size: int) -> tuple:
    return (ZERO,) * size


def apply_T(op: BandedOperator, v: tuple) -> tuple[tuple, bool]:
    """Apply the truncated operator: ``(T v)_i = v_{i+1} + c*v_{i-m}``.

    The overflow flag is set when the untruncated image would be nonzero at
    some index >= N, i.e. when v has support in the top m slots.
    """
    n, m, c = op.size, op.m, op.c
    if len(v) != n:
        raise ValueError(f"vector length {len(v)} != operator size {n}")
    out = []
    for i in range(n):
        val = v[i + 1] if i + 1 < n else ZERO
        if i >= m:
            val = val + c * v[i - m]
        out.append(val)
    overflow = any(v[j] for j in range(max(0, n - m), n))
    return tuple(out), overflow


def apply_T_transpose(op: BandedOperator, v: tuple) -> tuple[tuple, bool]:
    """Apply the transposed truncation: ``(T^t v)_i = v_{i-1} + c*v_{i+m}``."""
    n, m, c = op.size, op.m, op.c
    if len(v) != n:
        raise ValueError(f"vector length {len(v)} != operator size {n}")
    out = []
    for i in range(n):
        val = v[i - 1] if i >= 1 else ZERO
        if i + m < n:
            val = val + c * v[i + m]
        out.append(val)
    overflow = bool(v[n - 1])
    return tuple(out), overflow


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
    if p.is_zero:
        return zero_vector(op.size), False
    step = apply_T_transpose if transpose else apply_T
    acc = tuple(p.coeffs[-1] * x for x in v)
    overflow = False
    for coeff in reversed(p.coeffs[:-1]):
        acc, flag = step(op, acc)
        overflow = overflow or flag
        if coeff:
            acc = tuple(a + coeff * x for a, x in zip(acc, v))
    return acc, overflow


def dot(u: tuple, v: tuple) -> Rational:
    if len(u) != len(v):
        raise ValueError("length mismatch")
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def type1_image(p: Params, r: int, size: int) -> tuple[tuple, bool]:
    """``sum_j t_{j,r}(T) e_j`` over the m vector components, truncated to size."""
    op = BandedOperator.for_params(p, size)
    comps = gen_type1_vectors(p, r)[r].components
    acc = zero_vector(size)
    overflow = False
    for j, poly in enumerate(comps):
        vec, flag = poly_of_operator(op, poly, False, basis_vector(size, j))
        overflow = overflow or flag
        acc = tuple(a + b for a, b in zip(acc, vec))
    return acc, overflow


def type2_image(p: Params, n: int, size: int) -> tuple[tuple, bool]:
    """``T_n(T^t) e_0`` truncated to size."""
    op = BandedOperator.for_params(p, size)
    poly = gen_type2(p, n)[n]
    return poly_of_operator(op, poly, True, basis_vector(size, 0))


def jump_check_typeII(p: Params, n: int) -> bool:
    """True iff the n-th companion polynomial maps e_0 onto e_n exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    size = n + p.m + 2
    vec, overflow = type2_image(p, n, size)
    return not overflow and vec == basis_vector(size, n)


def jump_check_typeI(p: Params, r: int) -> bool:
    """True iff the r-th vector term applied to the operator hits e_r exactly."""
    if r < 0:
        raise ValueError("r must be >= 0")
    size = r + p.m + 2
    vec, overflow = type1_image(p, r, size)
    return not overflow and vec == basis_vector(size, r)


def biorthogonality(p: Params, n: int, r: int) -> Rational:
    """Exact pairing of the two operator images; equals 1 iff n == r, else 0."""
    if n < 0 or r < 0:
        raise ValueError("indices must be >= 0")
    size = max(n, r) + p.m + 2
    u, fu = type1_image(p, r, size)
    w, fw = type2_image(p, n, size)
    if fu or fw:
        raise TruncationOverflow(
            "truncation overflow with auto-chosen size; internal error"
        )
    return dot(u, w)


def gram_matrix(p: Params, r_max: int, n_max: int, size: int | None = None) -> list:
    """Full exact pairing matrix, entry [r][n], sharing one image computation per index."""
    if size is None:
        size = max(r_max, n_max) + p.m + 2
    us = []
    for r in range(r_max + 1):
        u, flag = type1_image(p, r, size)
        if flag:
            raise TruncationOverflow(
                f"truncation overflow for type I image r={r}, size={size}"
            )
        us.append(u)
    ws = []
    for n in range(n_max + 1):
        w, flag = type2_image(p, n, size)
        if flag:
            raise TruncationOverflow(
                f"truncation overflow for type II image n={n}, size={size}"
            )
        ws.append(w)
    return [[dot(u, w) for w in ws] for u in us]
