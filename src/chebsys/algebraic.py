"""Branches of the algebraic function attached to the scalar recurrence.

The characteristic equation of ``c*t_r = z*t_{r-m} - t_{r-m-1}`` is

    c*lambda**(m+1) - z*lambda + 1 = 0,

an algebraic function of order m+1.  This module solves it pointwise and
labels the branches by modulus (justified by the strict ordering that holds
away from the starlike exceptional sets), builds the dual-Vandermonde
coefficients ``b_j = 1 / prod_{k != j} (lambda_j - lambda_k)`` that encode
the recurrence's initial data, evaluates the branch-sum representation

    t_r(z) = sum_j b_j * lambda_j**(r+m),

and realizes the large-r limit ``t_r / lambda_m**r -> c/(c*m - lambda_m**-(m+1))``
together with its observed geometric error decay.

Each point is solved on the integer kernel of ``chebsys.rationals``, after
the seed-then-polish scheme of MPSolve (Bini and Robol, JCAM 2014): the
roots of the trinomial in complex doubles, then one Newton step on the
kernel (more above 53 bits), where each value is a Gaussian integer in fixed
point and the trinomial at it is exact.  Every value, rounded once to the
working precision, is certified by its inclusion disc (Bini and Fiorentino,
Numer. Algorithms 23, 2000); a point whose discs meet is refined by Aberth's
iteration (Math. Comp. 27, 1973) on the kernel, or proved an exact double
root.  No solve and no asymptotic scan loads mpmath: this module imports it
only for the values it returns, ``BranchSet.lambdas``, ``coefficients_b`` and
``explicit_t``, acceptance oracles that no command calls (``test`` extra).

Star geometry: the bounded star is the m+1 segments of length
``a = ((m+1)/m) * (m*c)**(1/(m+1))`` along the angles ``2*pi*k/(m+1)``, whose
tips are the branch points; a is bracketed exactly in integers, so the radius
and the tips are correctly rounded without mpmath.  The unbounded stars are
the ray families at ``2*pi*k/(m+1)`` ("odd") and ``(2k+1)*pi/(m+1)``
("even").  For odd m each family is closed under the antipode, so rays and
full lines coincide; both families are therefore implemented as rays
uniformly, a ray being a segment of infinite length.  The attractor of the
root sets is the even family for even m and the odd family for odd m.  A
point within ``STAR_TOL`` of a star lies on it, for ``region_classify``'s
flags and for the gate of the asymptotic scan alike.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
import sys
from collections import namedtuple

from .errors import DegenerateBranches, OnStarSet, SolverDivergence
from .rationals import (
    from_float,
    hypot_man_exp,
    rat_to_mpf,
    raw_mpf,
    round_man_exp,
    to_float,
)
from .recurrence import Params

TIE_RELATIVE_GAP = 1e-10
STAR_TOL = 1e-9  # the distance within which a point lies on a star


class BranchSet(namedtuple("BranchSet", "z parts residuals tie_flag precision")):
    """The m+1 branch values at one point, sorted by ascending modulus.

    ``parts`` are the values on the integer kernel, ``(re, re_exp, im,
    im_exp)`` per branch, each rounded once to the working precision.
    ``values`` are them as ``complex(l)`` rounds each mpmath value l,
    ``moduli`` their moduli as ``float(abs(l))`` rounds them in the default
    53-bit context, and ``lambdas`` the mpmath values themselves, built on
    each use by importing mpmath, which is in the ``test`` extra.
    ``residuals`` are the absolute residuals, as doubles.
    """

    __slots__ = ()

    @property
    def lambdas(self) -> tuple:
        return tuple(map(_to_mpc, self.parts))

    @property
    def values(self) -> tuple:
        return tuple(complex(to_float(re, ere), to_float(im, eim)) for re, ere, im, eim in self.parts)

    @property
    def moduli(self) -> tuple:
        return tuple(to_float(*hypot_man_exp(*part, 53)) for part in self.parts)


def _to_mpc(part: tuple):
    """The mpmath complex number of a kernel value ``(re, re_exp, im, im_exp)``."""
    import mpmath

    re, ere, im, eim = part
    return mpmath.mp.make_mpc((raw_mpf(re, ere), raw_mpf(im, eim)))


BranchCoefficients = namedtuple("BranchCoefficients", "values identity_error")
BranchCoefficients.__doc__ = """Dual-Vandermonde coefficients with the recorded derivative-identity check.

``identity_error`` is the worst relative mismatch of
``c*lambda_j*prod_{k != j}(lambda_j - lambda_k)`` against
``c*m*lambda_j**(m+1) - 1`` over the branches.
"""


def _work_bits(precision: int, m: int, z) -> int:
    # extra bits scale with |z|: the residual floor grows like |c*m*lambda^(m+1)|
    size = abs(complex(z))
    return precision + 48 + max(0, int((m + 1) * math.log2(1 + size)))


# sweeps of the double-precision seed iteration; from the Newton-polygon
# circles it settles in far fewer
_SEED_SWEEPS = 64
# phase offset of the start points: with a real z, real or conjugate-symmetric
# starts would keep every iterate so, and miss roots that are not
_SEED_PHASE = 0.7


def _trinomial_seeds(m: int, c, z) -> list:
    """The roots of ``c*w**(m+1) - z*w + 1`` in complex doubles, by Aberth
    iteration, or [] where it overflows or divides by zero; a value may
    still be non-finite.  The start is the Newton polygon of the trinomial:
    when ``|z|**(m+1) > c``, one point of modulus ``1/|z|`` and m spread on
    ``|w| = (|z|/c)**(1/m)``, otherwise m+1 on ``|w| = c**(-1/(m+1))``, each
    turned by ``_SEED_PHASE``.  Newton's correction is taken as
    ``w * (P(w)/w) / P'(w)`` with ``c*w**m`` formed as ``(c**(1/m) * w)**m``,
    so no intermediate is much larger than z or the roots.
    """
    n = m + 1
    try:
        c, z = float(c), complex(z)
        size = abs(z)
        if size and n * math.log(size) > math.log(c):
            big = math.exp((math.log(size) - math.log(c)) / m)
            arg = cmath.phase(z)
            ws = [cmath.rect(1 / size, _SEED_PHASE - arg)]
            ws += [cmath.rect(big, (arg + _SEED_PHASE + 2 * math.pi * k) / m) for k in range(m)]
        else:
            small = math.exp(-math.log(c) / n)
            ws = [cmath.rect(small, _SEED_PHASE + 2 * math.pi * k / n) for k in range(n)]
        root_c = c ** (1 / m)
        for _ in range(_SEED_SWEEPS):
            moved = False
            for i in range(n):
                w = ws[i]
                cw = scaled = root_c * w  # c*w**m
                for _ in range(m - 1):
                    cw *= scaled
                newton = w * ((cw - z + 1 / w) / (n * cw - z))
                coupling = 0
                for j in range(n):
                    if j != i:
                        coupling += 1 / (w - ws[j])
                step = newton / (1 - newton * coupling)
                ws[i] = w - step
                moved = moved or abs(step) > 1e-15 * abs(w)
            if not moved:
                break
    except (OverflowError, ZeroDivisionError):
        return []
    return ws


# ---- the polish on the integer kernel
#
# Each value is a Gaussian integer in fixed point, (X + iY) * 2**e, with a
# given number of bits below the leading bit of its larger part.  z is the
# exact double it is and c the exact rational num/den, passed as the pair
# ``(num, den)``, so the trinomial and its derivative at such a value are
# exact in integers.

# the width of the one step from the seeds: it takes a seed good to about
# 2**-50 to about 2**-100, where the disc rule at 53 bits asks for 2**-69
_POLISH_BITS = 112
# bits the polish above 53 bits carries beyond the working bits
_GUARD_BITS = 16


def _fixed(z: complex) -> tuple:
    """The complex double z as ``(re, im, exp)``, exactly: its value is
    ``(re + i*im) * 2**exp``."""
    (a, ea), (b, eb) = from_float(z.real), from_float(z.imag)
    return _add((a, 0, ea), (0, b, eb))


def _power(X: int, Y: int, n: int) -> tuple:
    """``(X + iY)**n`` in Gaussian integers."""
    pr, pi = 1, 0
    for _ in range(n):
        pr, pi = pr * X - pi * Y, pr * Y + pi * X
    return pr, pi


def _branch_poly(
    X: int, Y: int, e: int, m: int, c: tuple, z_fixed: tuple, power: tuple | None = None
) -> tuple:
    """``c*w**(m+1) - z*w + 1`` at ``w = (X + iY) * 2**e``, exactly, as
    ``(re, im, exp)``: the value is ``(re + i*im) * 2**exp / den`` for
    ``c = (num, den)``.  ``power`` is ``(X + iY)**(m+1)`` where the caller
    has it."""
    num, den = c
    zr, zi, ez = z_fixed
    pr, pi = power or _power(X, Y, m + 1)
    ep, el = (m + 1) * e, ez + e
    low = min(ep, el, 0)
    ep, el = ep - low, el - low
    return (
        (num * pr << ep) - (den * (zr * X - zi * Y) << el) + (den << -low),
        (num * pi << ep) - (den * (zr * Y + zi * X) << el),
        low,
    )


def _branch_slope(pr: int, pi: int, e: int, m: int, c: tuple, z_fixed: tuple) -> tuple:
    """``c*(m+1)*w**m - z`` at ``w = (X + iY) * 2**e``, exactly, from
    ``(X + iY)**m = pr + i*pi``, in the form of ``_branch_poly``."""
    num, den = c
    num *= m + 1
    zr, zi, ez = z_fixed
    ep = m * e
    low = min(ep, ez)
    ep, ez = ep - low, ez - low
    return (num * pr << ep) - (den * zr << ez), (num * pi << ep) - (den * zi << ez), low


def _cut(re: int, im: int, exp: int, width: int) -> tuple:
    """``(re + i*im) * 2**exp`` truncated to ``width`` bits in its larger part."""
    shift = max(re.bit_length(), im.bit_length()) - width
    if shift > 0:
        return re >> shift, im >> shift, exp + shift
    return re, im, exp


def _newton_fixed(
    X: int, Y: int, e: int, m: int, c: tuple, z_fixed: tuple, width: int, others=()
) -> tuple:
    """One Newton step from ``w = (X + iY) * 2**e`` to a value of ``width``
    bits: the trinomial and its derivative are exact, each is cut to
    ``width`` bits, and the correction is their quotient rounded to the
    last bit of the value.  With ``others``, the values ``(re, im, exp)``
    of the other roots, it is Aberth's step: the derivative less
    ``p(w)/(w - v)`` for each other value v."""
    shift = width - max(abs(X), abs(Y)).bit_length()
    if shift > 0:
        X, Y, e = X << shift, Y << shift, e - shift
    # w**(m+1) is one product beyond w**m
    wr, wi = _power(X, Y, m)
    power = wr * X - wi * Y, wr * Y + wi * X
    pr, pi, pe = p = _cut(*_branch_poly(X, Y, e, m, c, z_fixed, power), width)
    dr, di, de = _cut(*_branch_slope(wr, wi, e, m, c, z_fixed), width)
    for gap in (_add((X, Y, e), v, -1) for v in others):
        if gap[0] or gap[1]:
            dr, di, de = _cut(*_add((dr, di, de), _quotient(p, gap, width), -1), width)
    # (pr + i*pi) / (dr + i*di) * 2**(pe - de) in units of 2**e
    norm = dr * dr + di * di
    qr, qi = pr * dr + pi * di, pi * dr - pr * di
    k = pe - de - e
    if k >= 0:
        qr, qi = qr << k, qi << k
    else:
        norm <<= -k
    half = norm >> 1
    return X - (qr + half) // norm, Y - (qi + half) // norm, e


def _to_complex(re: int, im: int, exp: int, den: int = 1) -> complex:
    """``(re + i*im) * 2**exp / den`` in doubles, to within a few units in the
    60th bit of the larger part."""
    shift = max(re.bit_length(), im.bit_length()) - den.bit_length() - 60
    re, im = (re >> shift, im >> shift) if shift >= 0 else (re << -shift, im << -shift)
    return complex(math.ldexp(re // den, exp + shift), math.ldexp(im // den, exp + shift))


def _add(a: tuple, b: tuple, sign: int = 1) -> tuple:
    """``a + sign*b`` for values ``(re, im, exp)``, exactly."""
    (ar, ai, ae), (br, bi, be) = a, b
    low = min(ae, be)
    return (ar << ae - low) + sign * (br << be - low), (ai << ae - low) + sign * (bi << be - low), low


def _quotient(a: tuple, b: tuple, width: int) -> tuple:
    """``a/b`` for values ``(re, im, exp)``, b not 0, to ``width`` bits, truncated."""
    (ar, ai, ae), (br, bi, be) = a, b
    norm = br * br + bi * bi
    qr, qi = ar * br + ai * bi, ai * br - ar * bi
    k = width - max(abs(qr), abs(qi)).bit_length() + norm.bit_length()
    if k >= 0:
        qr, qi = qr << k, qi << k
    else:
        norm <<= -k
    return qr // norm, qi // norm, ae - be - k


def _below(a: int, ea: int, b: int, eb: int) -> bool:
    """``a * 2**ea < b * 2**eb``, exactly."""
    return a << max(ea - eb, 0) < b << max(eb - ea, 0)


def _log_polar(re: int, im: int, exp: int) -> tuple:
    """``(log2|x|, arg x)`` in doubles of ``x = (re + i*im) * 2**exp``; log2|0| is -inf."""
    shift = max(max(re.bit_length(), im.bit_length()) - 60, 0)
    x = complex(re >> shift, im >> shift)
    return (math.log2(abs(x)) + exp + shift if x else -math.inf), cmath.phase(x)


def _polar(size: float, angle: float) -> tuple:
    """The value of modulus ``2**size`` and argument ``angle``, to 53 bits."""
    k = math.floor(size)
    re, im, exp = _fixed(cmath.rect(2.0 ** (size - k), angle))
    return re, im, exp + k


def _radius(a: int, b: int, k: int) -> tuple:
    """An upper bound ``(s, e)``, ``s * 2**e``, of ``sqrt(a/b * 4**k)``."""
    t = (64 - a.bit_length() + b.bit_length()) // 2
    q = -(-(a << 2 * t) // b) if t >= 0 else -(-a // (b << -2 * t))
    return math.isqrt(q) + 1, k - t


def _discs(ws: list, m: int, c: tuple, z_fixed: tuple, bits: int, precision: int, double: bool):
    """Each value rounded to ``bits``, as ``[log2(|w|**2), part, exact]``
    (``exact`` its exact residual), and the pairs ``(i, j)`` that fail the
    disc rule: i < j where the discs of radius ``(m+1)*|p(w)|/|p'(w)|``
    meet, i == j where one exceeds ``2**-(precision+16)*|w|``.  All is
    compared in integers, but two small discs whose keys differ by more than
    ``2**-20`` are disjoint.  With ``double``, the first two values are
    a double root rounded from ``bits + 8`` bits, with radius ``2**(2-bits)``
    times the leading power of two of their modulus, and their own pair is
    not tested.
    """
    found, discs = [], []
    for X, Y, e in ws:
        re, ere = round_man_exp(X, e, bits)
        im, eim = round_man_exp(Y, e, bits)
        e = min(ere, eim)
        X, Y = re << ere - e, im << eim - e
        wr, wi = _power(X, Y, m)
        exact = _branch_poly(X, Y, e, m, c, z_fixed, (wr * X - wi * Y, wr * Y + wi * X))
        (pr, pi, pe), (dr, di, de) = exact, _branch_slope(wr, wi, e, m, c, z_fixed)
        # the radius is sqrt(a/b * 4**k), and |w|**2 is size * 4**e
        a, b, k, size = (m + 1) ** 2 * (pr * pr + pi * pi), dr * dr + di * di, pe - de, X * X + Y * Y
        if double and len(discs) < 2:
            a, b, k = 1, 1, (size.bit_length() + 1) // 2 + e + 2 - bits
        small = b and not _below(b * size, 2 * (e - precision - 16), a, 2 * k)
        found.append([math.log2(size) + 2 * e, (re, ere, im, eim), exact])
        discs.append((X, Y, e, small, a, b, k))
    failed = [(i, i) for i, disc in enumerate(discs) if not disc[3]]
    for i, j in itertools.combinations(range(len(discs)), 2):
        one, two = discs[i], discs[j]
        if not (one[5] and two[5]) or double and j == 1:
            continue
        if one[3] and two[3] and abs(found[i][0] - found[j][0]) > 2**-20:
            continue
        gr, gi, ge = _add(one[:3], two[:3], -1)
        (s, k), (t, l) = _radius(*one[4:]), _radius(*two[4:])
        low = min(k, l)
        total = (s << k - low) + (t << l - low)
        if not _below(total * total, 2 * low, gr * gr + gi * gi, 2 * ge):
            failed.append((i, j))
    return found, failed


def _sweep(ws: list, fixed: int, m: int, c: tuple, z_fixed: tuple, width: int) -> bool:
    """One Gauss-Seidel sweep of Aberth's steps (``_newton_fixed``) at
    ``width`` bits over the values after the first ``fixed``, in place;
    whether a value moved above its last 8 bits."""
    moved = False
    for i in range(fixed, len(ws)):
        try:
            new = _newton_fixed(*ws[i], m, c, z_fixed, width, ws[:i] + ws[i + 1 :])
        except ZeroDivisionError:  # the coupled derivative vanishes
            continue
        step, top = _add(new, ws[i], -1), max(abs(new[0]), abs(new[1])).bit_length() + new[2]
        moved = moved or max(abs(step[0]), abs(step[1])).bit_length() + step[2] > top - width + 8
        ws[i] = new
    return moved


# the widest refinement, as a multiple of the polish's width
_WIDTH_CAP = 16


def _refine(ws: list, m: int, c: tuple, z_fixed: tuple, bits: int, target: int, precision: int, failed: list):
    """Values that pass the disc rule, as ``_discs`` gives them, from ``ws``,
    whose discs ``failed`` names.  Where ``m**m * z**(m+1) = (m+1)**(m+1) * c``,
    the double root ``(m+1)/(m*z)`` replaces the two values nearest it.  Else
    each pair whose discs meet is put on the circle of radius
    ``sqrt(2*|p(w)|/|p''(w)|)`` around its centre w, turned off the real axis
    (a real iteration at a real z stays on it).  Aberth sweeps run until no
    value moves, at widths doubling from the polish's to ``_WIDTH_CAP`` times it.
    """
    (num, den), (zr, zi, ez) = c, z_fixed
    (pr, pi), shift = _power(zr, zi, m + 1), (m + 1) * ez
    double = not pi and m**m * pr * den << max(shift, 0) == (m + 1) ** (m + 1) * num << max(-shift, 0)
    if double:
        root = _quotient((m + 1, 0, 0), (m * zr, m * zi, ez), bits + 8)
        ws = [root, root, *sorted(ws, key=lambda w: _log_polar(*_add(w, root, -1))[0])[2:]]
    else:
        ws, split = list(ws), set()
        for i, j in failed:
            if i == j or split & {i, j}:
                continue
            split |= {i, j}
            X, Y, e = _add(ws[i], ws[j])
            X, Y, e = centre = X, Y, e - 1
            pr, pi = _power(X, Y, m - 1)
            size = _log_polar(*_branch_poly(X, Y, e, m, c, z_fixed))[0]
            size -= _log_polar(num * (m + 1) * m * pr, num * (m + 1) * m * pi, (m - 1) * e)[0]
            if math.isfinite(size):
                offset = _polar((1 + size) / 2, _SEED_PHASE)
                ws[i], ws[j] = _add(centre, offset), _add(centre, offset, -1)
    width = target
    while width <= _WIDTH_CAP * target:
        for _ in range(_SEED_SWEEPS):
            if not _sweep(ws, 2 if double else 0, m, c, z_fixed, width):
                break
        found, failed = _discs(ws, m, c, z_fixed, bits, precision, double)
        if not failed:
            return found
        width *= 2
    raise SolverDivergence(
        f"branch values not certified at {width // 2} bits: discs that meet or exceed"
        f" 2**-{precision + 16} of their values"
    )


# c is solved as it is inside this window, exclusive: 1e-300 and 1e300 as the
# exact values of the doubles
_C_LOW = (1e-300).as_integer_ratio()
_C_HIGH = int(1e300)


def _solve_fast(m: int, c: tuple, z: complex, precision: int) -> BranchSet:
    """The BranchSet at z for ``c = (num, den)``, each value certified by its
    inclusion disc.

    z is a complex double, taken exactly; outside the window of c,
    ``w = 2**-s * v`` makes the leading coefficient near 1, exactly.  Each
    of the trinomial's roots in doubles takes one Newton step on the kernel
    at ``_POLISH_BITS``, its residual exact and its correction formed in
    doubles; above 53 bits, exact Newton steps follow up to the working
    bits plus ``_GUARD_BITS``.  Where z/c is beyond a double the Newton
    polygon's seeds, and where the step in doubles overflows the seeds
    themselves, go to the disc rule (``_discs``) as they are; a point that
    fails it is refined (``_refine``).  The values are sorted by modulus,
    then argument, their residuals are the exact ones as doubles, and the
    tie flag marks consecutive moduli closer than ``TIE_RELATIVE_GAP`` of
    the larger.
    """
    bits = _work_bits(precision, m, z)
    target = _POLISH_BITS if precision == 53 else bits + _GUARD_BITS
    z_fixed = _fixed(z)
    num, den = c
    s = 0
    if not (_C_LOW[0] * den < num * _C_LOW[1] and num < _C_HIGH * den):
        s = (num.bit_length() - den.bit_length()) // (m + 1)
        c = (num, den << s * (m + 1)) if s >= 0 else (num << -s * (m + 1), den)
        z_fixed = z_fixed[0], z_fixed[1], z_fixed[2] - s
    num, den = c
    c_float, size = num / den, m + 1
    try:
        point = _to_complex(*z_fixed)
        seeds = _trinomial_seeds(m, c_float, point) if cmath.isfinite(point / c_float) else []
    except OverflowError:
        seeds = []
    if not (seeds and all(map(cmath.isfinite, seeds))):
        # the Newton polygon's: 1/z, and (z/c)**(1/m) times the m-th roots of 1
        log2z, arg = _log_polar(*z_fixed)
        log2w = (log2z - math.log2(num) + math.log2(den)) / m
        values = [_quotient((1, 0, 0), z_fixed, 64)]
        values += [_polar(log2w, (arg + 2 * math.pi * k) / m) for k in range(m)]
    else:
        # the widths of the exact steps, halved down from the target with 8
        # bits to spare: none asks for more than twice the bits of its input
        values, widths, width = [], [], target
        while width > _POLISH_BITS:
            widths.insert(0, width)
            width = width // 2 + _GUARD_BITS // 2
        try:
            for v in seeds:
                e = math.frexp(max(abs(v.real), abs(v.imag)))[1] - _POLISH_BITS
                X, Y = int(math.ldexp(v.real, -e)), int(math.ldexp(v.imag, -e))
                exact = _to_complex(*_branch_poly(X, Y, e, m, c, z_fixed), den)
                step = exact / (c_float * size * v**m - point)
                X -= int(math.ldexp(step.real, -e))
                Y -= int(math.ldexp(step.imag, -e))
                for width in widths:
                    X, Y, e = _newton_fixed(X, Y, e, m, c, z_fixed, width)
                values.append((X, Y, e))
        except (OverflowError, ValueError, ZeroDivisionError):
            # a power or a correction beyond the range of a double (or not
            # a number), or a vanishing derivative
            values = list(map(_fixed, seeds))
    found, failed = _discs(values, m, c, z_fixed, bits, precision, False)
    if failed:
        found = _refine(values, m, c, z_fixed, bits, target, precision, failed)
    found.sort()
    tie = False
    if any(high - low <= 2**-20 for (low, *_), (high, *_) in zip(found, found[1:])):
        # near moduli go by the moduli rounded to 53 bits, then by argument
        for entry in found:
            re, ere, im, eim = entry[1]
            modulus = to_float(*hypot_man_exp(re, ere - s, im, eim - s, 53))
            entry[0] = modulus, math.atan2(to_float(im, eim - s), to_float(re, ere - s))
        found.sort()
        moduli = [modulus for (modulus, _), *_ in found]
        tie = any(hi - lo < TIE_RELATIVE_GAP * max(hi, 1e-300) for lo, hi in zip(moduli, moduli[1:]))
    parts, residuals = [], []
    for _, (re, ere, im, eim), exact in found:
        parts.append((re, ere - s, im, eim - s))
        try:
            residuals.append(abs(_to_complex(*exact, den)))
        except OverflowError:
            residuals.append(math.inf)
    return BranchSet(z, tuple(parts), tuple(residuals), tie, precision)


def solve_branches_many(p: Params, points, precision: int = 53) -> tuple:
    """``solve_branches`` at every point, by ``_solve_fast``: in input order,
    each point's BranchSet, or the SolverDivergence raised there.  A point
    is solved as ``complex(z)``, the z its BranchSet reports."""
    if precision < 53:
        raise ValueError("precision must be at least 53 bits")
    results = []
    for z in points:
        try:
            results.append(_solve_fast(p.m, p.ratio, complex(z), precision))
        except SolverDivergence as exc:
            results.append(exc)
    return tuple(results)


def solve_branches(p: Params, z, precision: int = 53) -> BranchSet:
    """All m+1 roots of ``c*w**(m+1) - z*w + 1`` at the point z, each
    certified by its inclusion disc (see ``_solve_fast``): the one-point case
    of ``solve_branches_many``."""
    result = solve_branches_many(p, [z], precision)[0]
    if isinstance(result, SolverDivergence):
        raise result
    return result


def coefficients_b(bs: BranchSet, p: Params) -> BranchCoefficients:
    """``b_j = 1 / prod_{k != j} (lambda_j - lambda_k)`` with a recorded cross-check.

    Requires well-separated branches (tie flag false).  The cross-check
    verifies ``c*lambda_j*prod = c*m*lambda_j**(m+1) - 1`` to relative 1e-8.
    mpmath, in the ``test`` extra, is imported on the call.
    """
    if bs.tie_flag:
        raise DegenerateBranches(
            f"tied branch moduli at z={bs.z}; coefficients are ill-conditioned"
        )
    import mpmath

    m = p.m
    workbits = _work_bits(bs.precision, m, bs.z) + 16
    with mpmath.workprec(workbits):
        cmpf = rat_to_mpf(*p.ratio)
        lambdas = bs.lambdas
        values = []
        worst = 0.0
        for j, lam in enumerate(lambdas):
            prod = mpmath.mpc(1)
            for k, other in enumerate(lambdas):
                if k != j:
                    prod *= lam - other
            values.append(1 / prod)
            lhs = cmpf * lam * prod
            rhs = cmpf * m * lam ** (m + 1) - 1
            err = float(abs(lhs - rhs) / max(1, abs(rhs)))
            worst = max(worst, err)
        if worst > 1e-8:
            raise SolverDivergence(
                f"derivative identity off by {worst:.3e} at z={bs.z}"
            )
        return BranchCoefficients(tuple(values), worst)


def explicit_t(p: Params, r: int, z, precision: int = 53):
    """Branch-sum value ``sum_j b_j lambda_j**(r+m)`` of the scalar term at z.

    Indices ``r = -m .. -1`` are admitted and return (numerically) zero, the
    initial data of the recurrence; mpmath (``test`` extra) is imported.
    """
    import mpmath

    if r < -p.m:
        raise ValueError(f"r must be >= -m = {-p.m}")
    bs = solve_branches(p, z, precision)
    coeffs = coefficients_b(bs, p)
    workbits = _work_bits(precision, p.m, z) + 16
    with mpmath.workprec(workbits):
        total = mpmath.mpc(0)
        for b, lam in zip(coeffs.values, bs.lambdas):
            total += b * lam ** (r + p.m)
        return total


StarGeometry = namedtuple(
    "StarGeometry",
    "a even_angles odd_angles attractor even_rotations odd_rotations attractor_rotations",
)
StarGeometry.__doc__ = """Ray/segment skeleton for one parameter pair.

Each family's ``*_rotations`` are ``cmath.exp(-1j*angle)`` of its
angles, which turn a point onto the family's rays; the bounded star's
segments lie along the odd angles.  ``attractor`` is "even" for even m
and "odd" for odd m, and names the family of the attractor star.
"""


# ---- exact star geometry
#
# The star radius a solves a**(m+1) = ((m+1)/m)**(m+1) * m*c, a rational, so
# it is bracketed exactly in fixed point, A * 2**e <= a < (A+1) * 2**e.  The
# star tips a*exp(2*pi*i*k/(m+1)) multiply that bracket by fixed-point unit
# roots, and each component is rounded once to a double on the kernel.

# bits of the fixed-point radius and of the unit roots
_STAR_BITS = 128


def _iroot(x: int, n: int) -> int:
    """``floor(x**(1/n))`` for ``x >= 0``, by Newton's method from above."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def _radius_fixed(p: Params) -> tuple:
    """``(A, e)`` with ``A = floor(a * 2**-e)`` of more than ``_STAR_BITS`` bits."""
    m, n, (c_num, c_den) = p.m, p.m + 1, p.ratio
    # a**(m+1), reduced
    num, den = (m + 1) ** n * c_num, m**m * c_den
    g = math.gcd(num, den)
    num, den = num // g, den // g
    e = (num.bit_length() - den.bit_length()) // n - _STAR_BITS - 2
    shift = -e * n
    scaled = (num << shift) // den if shift >= 0 else num // (den << -shift)
    return _iroot(scaled, n), e


def _discriminant_sign(p: Params, man: int, e: int) -> int:
    """The sign of ``m**m * z**(m+1) - (m+1)**(m+1) * c`` at ``z = man * 2**e``.

    The discriminant of ``c*w**(m+1) - z*w + 1`` in w vanishes exactly
    where that difference does; on the rays of the star tips ``z**(m+1)``
    is ``|z|**(m+1)``, so this is also its sign there at modulus ``man * 2**e``.
    """
    m, n, (num, den) = p.m, p.m + 1, p.ratio
    lhs = m**m * man**n * den
    rhs = (m + 1) ** n * num
    if e >= 0:
        lhs <<= e * n
    else:
        rhs <<= -e * n
    return (lhs > rhs) - (lhs < rhs)


def _radius_bracket(p: Params) -> tuple:
    """``(man, exp)`` whose value ``man * 2**exp`` rounds to any precision of
    at most ``_STAR_BITS`` bits as the star radius a does.

    With ``A * 2**e <= a < (A+1) * 2**e`` it is ``(2A + s) * 2**(e-1)``, s = 1
    when a is not ``A * 2**e``: a point strictly inside the bracket, which
    holds no rounding boundary.  The bracket is checked exactly on the
    discriminant, so a wrong one raises SolverDivergence.
    """
    A, e = _radius_fixed(p)
    low = _discriminant_sign(p, A, e)
    if not low <= 0 < _discriminant_sign(p, A + 1, e):
        raise SolverDivergence(
            f"no collapsed branch pair at candidate branch point of modulus {to_float(A, e)}"
        )
    return 2 * A + (low != 0), e - 1


def star_radius(p: Params) -> float:
    """Common modulus ``((m+1)/m) * (m*c)**(1/(m+1))`` of the segment endpoints,
    correctly rounded to a double (below the normal range as ``float(mpf)``
    rounds, see ``to_float``)."""
    return to_float(*_radius_bracket(p))


def _pi_fixed(bits: int) -> int:
    """``pi * 2**bits`` to within a thousand units, by Machin's formula."""

    def atan_inv(x):  # atan(1/x) * 2**bits
        total, power, k = 0, (1 << bits) // x, 1
        while power:
            total += power // k if k % 4 == 1 else -(power // k)
            power //= x * x
            k += 2
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def _quarter_cos_sin(r: int, n: int) -> tuple:
    """``cos`` and ``sin`` of ``(pi/2) * r/n``, ``2r <= n``, at ``_STAR_BITS`` bits.

    The angles 0, pi/6 and pi/4 are taken exactly or by an integer square
    root, the others by Taylor series at 32 guard bits.
    """
    bits = _STAR_BITS
    if r == 0:
        return 1 << bits, 0
    if 2 * r == n:
        half = math.isqrt(1 << 2 * bits - 1)
        return half, half
    if 3 * r == n:
        return math.isqrt(3 << 2 * bits - 2), 1 << bits - 1
    g = bits + 32
    x = _pi_fixed(g) * r // (2 * n)
    sums = [0, 0]  # x**k/k! summed with alternating signs, k even and k odd
    term, k = 1 << g, 0
    while term:
        sums[k % 2] += -term if k % 4 >= 2 else term
        k += 1
        term = term * x // (k << g)
    return tuple((v + (1 << 31)) >> 32 for v in sums)


@functools.lru_cache(maxsize=16)
def _unit_roots(n: int) -> tuple:
    """``(cos, sin)`` of ``2*pi*k/n`` for k < n, in fixed point at ``_STAR_BITS`` bits.

    Each angle is reduced to ``[0, pi/4]`` by exact quarter turns and
    reflections, so zeros are exact and mirrored values equal.
    """
    out = []
    for k in range(n):
        q, r = divmod(4 * k, n)  # the angle is (pi/2) * (q + r/n)
        if 2 * r <= n:
            cos, sin = _quarter_cos_sin(r, n)
        else:
            sin, cos = _quarter_cos_sin(n - r, n)
        for _ in range(q):
            cos, sin = -sin, cos
        out.append((cos, sin))
    return tuple(out)


@functools.lru_cache(maxsize=64)
def star_geometry(p: Params) -> StarGeometry:
    """The star skeleton of ``p``, computed once per parameter pair."""
    m = p.m
    odd = tuple(2 * math.pi * k / (m + 1) for k in range(m + 1))
    even = tuple((2 * k + 1) * math.pi / (m + 1) for k in range(m + 1))
    attractor = "even" if m % 2 == 0 else "odd"
    even_rotations = tuple(cmath.exp(-1j * angle) for angle in even)
    odd_rotations = tuple(cmath.exp(-1j * angle) for angle in odd)
    return StarGeometry(
        a=star_radius(p),
        even_angles=even,
        odd_angles=odd,
        attractor=attractor,
        even_rotations=even_rotations,
        odd_rotations=odd_rotations,
        attractor_rotations=even_rotations if attractor == "even" else odd_rotations,
    )


def segment_family_distance(z, rotations, length: float) -> float:
    """Euclidean distance from z to the nearest segment ``[0, length] * exp(i*angle)``,
    each segment given by its rotation ``exp(-1j*angle)``; a ray is the
    segment of length ``math.inf``.

    Each case measures one distance, to the segment's line beside it, to the
    origin before it and to its far end beyond it, so that a rotated point
    with an infinite part is never set against an infinite length.
    """
    z = complex(z)
    best = math.inf
    for rotation in rotations:
        u = z * rotation
        x = u.real
        best = min(best, abs(u.imag) if 0 <= x <= length else abs(u) if x < 0 else abs(u - length))
    return best


RegionReport = namedtuple("RegionReport", "dist_s0 dist_even_star dist_odd_star omega")
RegionReport.__doc__ = """Distances from a point to the three stars and the induced domain flags.

``omega[j]`` is True when the point lies in the holomorphy domain of
branch j: off the bounded star for j = 0, off both unbounded stars for
0 < j < m, and off the parity-selected attractor star for j = m.
Distances below ``STAR_TOL`` count as membership in the excluded set.
"""


def region_classify(p: Params, z) -> RegionReport:
    geom = star_geometry(p)
    z = complex(z)
    d0 = segment_family_distance(z, geom.odd_rotations, geom.a)
    de = segment_family_distance(z, geom.even_rotations, math.inf)
    do = segment_family_distance(z, geom.odd_rotations, math.inf)
    da = de if geom.attractor == "even" else do
    flags = [d0 >= STAR_TOL]
    for _ in range(1, p.m):
        flags.append(min(de, do) >= STAR_TOL)
    flags.append(da >= STAR_TOL)
    return RegionReport(d0, de, do, tuple(flags))


def _round_div(num: int, den: int) -> int:
    """``num/den`` (``den > 0``) rounded to an integer, half up."""
    return (2 * num + den) // (2 * den)


# bits the scan's fixed point carries below the working bits: the rounding
# of each step adds up, so 2**16 steps stay below the last working bit
_SCAN_GUARD_BITS = 16


def _limit(p: Params, z, precision: int) -> tuple:
    """``(lambda_m, ratio, beta, L)`` at z, behind the star gate and the tie check.

    lambda_m is a kernel value ``(re, re_exp, im, im_exp)`` and ratio is
    ``|lambda_{m-1}/lambda_m|`` as a double.  beta is ``1/(c*lambda_m**(m+1))``
    and ``L = c/(c*m - lambda_m**-(m+1)) = 1/(m - beta)``, each a kernel
    value in fixed point with the working bits and ``_SCAN_GUARD_BITS``
    below the binary point.
    """
    geom = star_geometry(p)
    # For m = 1 the top-two moduli tie exactly on the bounded segments, not on
    # the full real line, so the gate uses the segments there, along the odd
    # angles that are its attractor's; for m >= 2 the tie set is the
    # unbounded parity star.
    length = geom.a if p.m == 1 else math.inf
    if segment_family_distance(z, geom.attractor_rotations, length) < STAR_TOL:
        raise OnStarSet(f"z={complex(z)} lies within {STAR_TOL} of the attractor star")
    bs = solve_branches(p, z, precision)
    # the moduli, their gap and their ratio in doubles are those of mpmath's
    # default 53-bit context: each operation is rounded once, to 53 bits
    *_, second, high = bs.moduli
    if high - second < TIE_RELATIVE_GAP * high:
        raise OnStarSet(f"largest branch modulus is tied at z={complex(z)}")
    top = bs.parts[-1]
    m, (num, den) = p.m, p.ratio
    bits = _work_bits(precision, m, z) + _SCAN_GUARD_BITS
    re, ere, im, eim = top
    e = min(ere, eim)
    pr, pi = _power(re << ere - e, im << eim - e, m + 1)
    # beta = den * conj(P) / (num * |P|**2) * 2**-((m+1)*e), P = pr + i*pi
    norm, shift = num * (pr * pr + pi * pi), bits - (m + 1) * e
    if shift >= 0:
        br, bi = _round_div(den * pr << shift, norm), _round_div(-den * pi << shift, norm)
    else:
        br, bi = _round_div(den * pr, norm << -shift), _round_div(-den * pi, norm << -shift)
    mr = (m << bits) - br
    norm = mr * mr + bi * bi
    lr, li = _round_div(mr << 2 * bits, norm), _round_div(bi << 2 * bits, norm)
    return top, second / high, (br, -bits, bi, -bits), (lr, -bits, li, -bits)


ScanResult = namedtuple("ScanResult", "window ratio limit_value errors rates decay_estimate")
ScanResult.__doc__ = """Observed error decay of the scaled scalar terms against the limit value.

``errors[r] = |t_r(z)/lambda_m**r - L|`` with t_r(z)/lambda_m**r stepped
by the scaled recurrence at z; ``rates[r] = (errors[r]/errors[r-w])**(1/w)``
over the window ``w = m*(m+1)``; ``decay_estimate`` averages over the
trailing half of the scan and should approach
``ratio = |lambda_{m-1}/lambda_m|``.  Both are computed in doubles,
except where an error cell they need lies below the range of a normal
double: there they come from the errors at the working precision.  A rate,
or the estimate, is None where the scan is shorter than its window or a cell
it compares is zero.
"""


def asymptotic_scan(p: Params, z, r_max: int, precision: int = 53) -> ScanResult:
    """Error table ``e_r = |t_r/lambda_m**r - L|`` for r = 0..r_max.

    ``u_r = t_r/lambda_m**r`` is stepped by ``u_r = alpha*u_{r-m} - beta*u_{r-m-1}``,
    the recurrence ``c*t_r = z*t_{r-m} - t_{r-m-1}`` divided by
    ``c*lambda_m**r``, from u_0 = 1, u_1 .. u_{m-1} = 0 (negative indices
    zero).  Here ``alpha = z/(c*lambda_m**m) = 1 + beta`` and
    ``beta = 1/(c*lambda_m**(m+1))``, and the limit of the u_r is
    ``L = 1/(m - beta)``.  The u_r are Gaussian integers in fixed point with
    the working bits and ``_SCAN_GUARD_BITS`` below the binary point, so a
    step is one complex product, rounded once, and each e_r is rounded as
    ``float(abs(mpc))`` rounds it at the working bits.  Off the attractor
    star, which the limit's gate excludes, t_r is the dominant solution, so
    forward recursion is stable (Gautschi, SIAM Rev. 1967): the u_r stay of
    order one and their rounding adds up at most linearly in r, so the decay
    floor lies at about the last working bit and is set by ``precision``
    alone: deep scans need roughly ``r_max * log2(lambda_m/lambda_{m-1})``
    extra bits.
    """
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    _, ratio, (br, exp, bi, _), (lr, _, li, _) = _limit(p, z, precision)
    m, bits = p.m, -exp
    work, half = bits - _SCAN_GUARD_BITS, 1 << bits - 1
    # u_{-m-1} .. u_{-1} are zero, then u_0 .. u_{m-1} are the unit start;
    # u_r = u_{r-m} + beta*(u_{r-m} - u_{r-m-1})
    re = [0] * (m + 1) + [1 << bits] + [0] * (m - 1)
    im = [0] * (2 * m + 1)
    for _ in range(m, r_max + 1):
        a, b = re[-m], im[-m]
        dr, di = a - re[-m - 1], b - im[-m - 1]
        re.append(a + ((br * dr - bi * di + half) >> bits))
        im.append(b + ((br * di + bi * dr + half) >> bits))
    exact = [
        hypot_man_exp(x - lr, exp, y - li, exp, work)
        for x, y in zip(re[m + 1 : m + 2 + r_max], im[m + 1 : m + 2 + r_max])
    ]
    errors = [to_float(*e) for e in exact]

    def root(r, s, n):
        # (e_r/e_s)**(1/n) in doubles where both cells are normal ones,
        # else from the errors at the working precision, which a deep
        # scan resolves below the range of a double
        if min(errors[r], errors[s]) >= sys.float_info.min:
            return (errors[r] / errors[s]) ** (1.0 / n)
        (a, ea), (b, eb) = exact[r], exact[s]
        if a and b:
            power = (math.log2(a) - math.log2(b) + ea - eb) / n
            return 2.0**power if power < 1024 else math.inf
        return None

    window = m * (m + 1)
    rates = [root(r, r - window, window) if r >= window else None for r in range(r_max + 1)]
    tail = window * max(1, r_max // (2 * window))
    estimate = root(r_max, r_max - tail, tail) if r_max >= window else None
    return ScanResult(
        window=window,
        ratio=ratio,
        limit_value=complex(to_float(lr, exp), to_float(li, exp)),
        errors=tuple(errors),
        rates=tuple(rates),
        decay_estimate=estimate,
    )


def branch_points(p: Params) -> list:
    """The m+1 points where two branches collide: the tips of the bounded star.

    Solving ``P_z(w) = 0`` together with ``P_z'(w) = 0`` eliminates z and
    leaves ``w**(m+1) = 1/(c*m)``, whose critical values ``z = c*(m+1)*w**m``
    are the points ``a*exp(2*pi*i*k/(m+1))``, a the star radius.  There the
    discriminant of ``c*w**(m+1) - z*w + 1`` vanishes, ``m**m * z**(m+1) =
    (m+1)**(m+1) * c``, which the radius bracket is checked against exactly.
    Each component is rounded once from fixed-point integers, so a zero
    component is exactly 0.0.
    """
    man, exp = _radius_bracket(p)
    exp -= _STAR_BITS
    points = [
        complex(to_float(man * cos, exp), to_float(man * sin, exp))
        for cos, sin in _unit_roots(p.m + 1)
    ]
    points.sort(key=lambda w: (round(math.atan2(w.imag, w.real), 12), w.real))
    return points


def seeded_offstar_points(
    p: Params,
    count: int,
    seed: int,
    rmin: float | None = None,
    rmax: float | None = None,
) -> list:
    """Reproducible sample of points avoiding all stars and branch points.

    Points are drawn uniformly from an annulus (defaults sized by the segment
    radius a) and rejected within ``0.1 * a`` of the bounded star, either
    unbounded star, or any branch point.
    """
    geom = star_geometry(p)
    a = geom.a
    rmin = 0.3 * a if rmin is None else rmin
    rmax = 3.0 * a if rmax is None else rmax
    margin = 0.1 * a
    if not 0 < rmin < rmax:
        raise ValueError("need 0 < rmin < rmax")
    bps = branch_points(p)
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        rho = rmin + (rmax - rmin) * rng.random()
        theta = 2 * math.pi * rng.random()
        z = complex(rho * math.cos(theta), rho * math.sin(theta))
        if segment_family_distance(z, geom.odd_rotations, a) < margin:
            continue
        if segment_family_distance(z, geom.even_rotations, math.inf) < margin:
            continue
        if segment_family_distance(z, geom.odd_rotations, math.inf) < margin:
            continue
        if min(abs(z - bp) for bp in bps) < margin:
            continue
        points.append(z)
    return points
