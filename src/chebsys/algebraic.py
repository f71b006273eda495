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

At the default 53-bit precision each point is first solved by a fast path
on plain floats: the roots of the trinomial found in complex doubles, two
Newton steps in double and two with the polynomial in double-double
arithmetic (Dekker, Numer. Math. 1971), after the seed-then-polish scheme of
MPSolve (Bini and Robol, JCAM 2014).  A point whose result fails the
residual gate, or whose moduli come close to a tie, is solved again by
per-point mpmath Aberth iteration, so every tie decision is made at full
working precision.  An accepted point keeps each value as its double-double
parts summed on the integer kernel of ``chebsys.rationals``, so a run whose
every point is accepted loads no mpmath.  The per-point solver, and every
point above 53 bits, seeds Aberth with the same roots in doubles.  This
module uses no numpy, and imports mpmath only where it is used.

Star geometry: the bounded star is the m+1 segments of length
``a = ((m+1)/m) * (m*c)**(1/(m+1))`` along the angles ``2*pi*k/(m+1)``, whose
tips are the branch points; a is bracketed exactly in integers, so the radius
and the tips are correctly rounded without mpmath.  The unbounded stars are
the ray families at ``2*pi*k/(m+1)`` ("odd") and ``(2k+1)*pi/(m+1)``
("even").  For odd m each family is closed under the antipode, so rays and
full lines coincide; both families are therefore implemented as rays
uniformly.  The attractor of the root sets is the even family for even m
and the odd family for odd m.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from typing import NamedTuple

from .errors import DegenerateBranches, OnStarSet, RootRefinementError, SolverDivergence
from .rationals import (
    Rational,
    add_man_exp,
    from_float,
    hypot_man_exp,
    rat_to_mpf,
    raw_mpf,
    to_float,
)
from .recurrence import Params

TIE_RELATIVE_GAP = 1e-10
# the 53-bit fast path accepts a point only if consecutive moduli differ by
# more than this relative gap, far above the tie threshold
BATCH_RELATIVE_GAP = 1e4 * TIE_RELATIVE_GAP


class BranchSet:
    """The m+1 branch values at one point, sorted by ascending modulus.

    ``lambdas`` are the values as mpmath complex numbers.  ``values`` are
    them as ``complex(l)`` rounds each, and ``moduli`` their moduli as
    ``float(abs(l))`` rounds them in the default 53-bit context.  A point
    of the 53-bit fast path keeps each value as its double-double parts
    summed on the integer kernel (``parts``): its ``values`` and ``moduli``
    are rounded there, and its ``lambdas`` are built on first use.
    """

    __slots__ = ("z", "parts", "residuals", "tie_flag", "precision", "_lambdas")

    def __init__(self, z, parts, residuals, tie_flag, precision, lambdas=None):
        self.z = z
        # (re, re_exp, im, im_exp) per branch, or None for mpmath values
        self.parts = parts
        self.residuals = residuals
        self.tie_flag = tie_flag
        self.precision = precision
        self._lambdas = lambdas

    @property
    def lambdas(self) -> tuple:
        if self._lambdas is None:
            import mpmath

            make = mpmath.mp.make_mpc
            self._lambdas = tuple(
                make((raw_mpf(re, ere), raw_mpf(im, eim))) for re, ere, im, eim in self.parts
            )
        return self._lambdas

    @property
    def values(self) -> tuple:
        if self.parts is None:
            return tuple(complex(l) for l in self._lambdas)
        return tuple(complex(to_float(re, ere), to_float(im, eim)) for re, ere, im, eim in self.parts)

    @property
    def moduli(self) -> tuple:
        if self.parts is None:
            return tuple(float(abs(l)) for l in self._lambdas)
        return tuple(to_float(*hypot_man_exp(*part, 53)) for part in self.parts)


class BranchCoefficients(NamedTuple):
    """Dual-Vandermonde coefficients with the recorded derivative-identity check.

    ``identity_error`` is the worst relative mismatch of
    ``c*lambda_j*prod_{k != j}(lambda_j - lambda_k)`` against
    ``c*m*lambda_j**(m+1) - 1`` over the branches.
    """

    values: tuple
    identity_error: float


def _work_bits(precision: int, m: int, z) -> int:
    # extra bits scale with |z|: the residual floor grows like |c*m*lambda^(m+1)|
    size = abs(complex(z))
    return precision + 48 + max(0, int((m + 1) * math.log2(1 + size)))


def _residual_tolerance(precision: int):
    """``10**(2 - 0.3*precision)``, a float while that does not underflow to
    0.0 (to about 1085 bits) and an mpmath value of the current context beyond."""
    exponent = 2 - 0.3 * precision
    if tolerance := 10.0**exponent:
        return tolerance
    import mpmath

    return mpmath.mpf(10) ** exponent


# sweeps of the double-precision seed iteration; from the Newton-polygon
# circles it settles in far fewer
_SEED_SWEEPS = 64
# phase offset of the start points: with a real z, real or conjugate-symmetric
# starts would keep every iterate so, and miss roots that are not
_SEED_PHASE = 0.7


def _trinomial_seeds(m: int, c, z) -> list:
    """The roots of ``c*w**(m+1) - z*w + 1`` in complex doubles, by Aberth
    iteration, or an empty list where a root lies beyond the range of a
    double (or the iteration divides by zero).

    The start is the Newton polygon of the trinomial: when
    ``|z|**(m+1) > c``, one point of modulus ``1/|z|`` and m spread on
    ``|w| = (|z|/c)**(1/m)``, otherwise m+1 on ``|w| = c**(-1/(m+1))``, each
    turned by ``_SEED_PHASE``.  Newton's correction is taken as
    ``w * (P(w)/w) / P'(w)`` with ``c*w**m`` formed as
    ``(c**(1/m) * w)**m``, so no intermediate is much larger than z or the
    roots.  The values may still be non-finite; ``rootfind.complex_roots``
    then spreads its seeds on a circle instead.
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
            for i, w in enumerate(ws):
                cw = scaled = root_c * w  # c*w**m
                for _ in range(m - 1):
                    cw *= scaled
                newton = w * ((cw - z + 1 / w) / (n * cw - z))
                coupling = sum(1 / (w - v) for j, v in enumerate(ws) if j != i)
                step = newton / (1 - newton * coupling)
                ws[i] = w - step
                moved = moved or abs(step) > 1e-15 * abs(w)
            if not moved:
                break
    except (OverflowError, ZeroDivisionError):
        return []
    return ws


def solve_branches_aberth(p: Params, z, precision: int) -> BranchSet:
    """The branches at one point by mpmath Aberth iteration at the working
    precision, seeded with the trinomial's roots in doubles.

    A root passes when its residual is at most ``10**(2 - 0.3*precision)``
    times the largest of 1, ``|c*lambda**(m+1)|`` and ``|z*lambda|``;
    ``residuals`` are the absolute values.
    """
    import mpmath

    from .rootfind import complex_roots

    m, c = p.m, p.c
    workbits = _work_bits(precision, m, z)
    seeds = _trinomial_seeds(m, c, z)
    with mpmath.workprec(workbits):
        zz = mpmath.mpc(z)
        coeffs = [mpmath.mpc(1), -zz] + [mpmath.mpc(0)] * (m - 1) + [
            mpmath.mpc(rat_to_mpf(c))
        ]
        try:
            roots = complex_roots(coeffs, precision=workbits - 16, seeds=seeds)
        except RootRefinementError as exc:
            raise SolverDivergence(f"branch solve failed at z={complex(z)}") from exc
        roots.sort(key=lambda l: (abs(l), mpmath.arg(l)))
        residuals = []
        # each residual against the gate, relative to the larger of 1 and the
        # trinomial's terms, which far from the origin are much larger than 1
        relative = []
        cmpf = rat_to_mpf(c)
        for lam in roots:
            power, linear = cmpf * lam ** (m + 1), zz * lam
            residual = abs(power - linear + 1)
            residuals.append(float(residual))
            relative.append(residual / max(1, abs(power), abs(linear)))
        tolerance = _residual_tolerance(precision)
        if max(relative) > tolerance:
            # a value below the range of a double is shown by mpmath
            worst, gate = (
                f"{float(v):.3e}" if float(v) or not v else mpmath.nstr(v, 4)
                for v in (max(relative), tolerance)
            )
            raise SolverDivergence(f"relative residual {worst} above {gate} at z={complex(z)}")
        tie = False
        for lo, hi in zip(roots, roots[1:]):
            gap = abs(hi) - abs(lo)
            if gap < TIE_RELATIVE_GAP * max(abs(hi), mpmath.mpf(1e-300)):
                tie = True
        return BranchSet(complex(z), None, tuple(residuals), tie, precision, tuple(roots))


# ---- double-double arithmetic on floats (Dekker 1971)
#
# A real double-double is a pair (hi, lo) with |lo| <= ulp(hi)/2 and value
# hi + lo; a complex one is a pair (re, im) of those.  Every primitive is a
# separate float operation, so no step is contracted into a fused multiply-add.

_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    return _fast_two_sum(s, e + (x[1] + y[1]))


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return _fast_two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_neg(x):
    return -x[0], -x[1]


def _cdd_mul(x, y):
    (xr, xi), (yr, yi) = x, y
    re = _dd_add(_dd_mul(xr, yr), _dd_neg(_dd_mul(xi, yi)))
    im = _dd_add(_dd_mul(xr, yi), _dd_mul(xi, yr))
    return re, im


def _cdd_hi(x) -> complex:
    return complex(x[0][0], x[1][0])


def _dd_parts(hi: complex, lo: complex, prec: int) -> tuple:
    """``mpc(hi) + mpc(lo)`` rounded to ``prec`` bits, as ``(re, re_exp, im, im_exp)``."""
    return (
        *add_man_exp(*from_float(hi.real), *from_float(lo.real), prec),
        *add_man_exp(*from_float(hi.imag), *from_float(lo.imag), prec),
    )


def _branch_poly_dd(w, m: int, c_dd, z: complex):
    """``c*w**(m+1) - z*w + 1`` in double-double, as ``w*(c*w**m - z) + 1``,
    for the complex double-double w and the real double-double c_dd."""
    power = w
    for _ in range(m - 1):
        power = _cdd_mul(power, w)
    inner = (
        _dd_add(_dd_mul(power[0], c_dd), (-z.real, 0.0)),
        _dd_add(_dd_mul(power[1], c_dd), (-z.imag, 0.0)),
    )
    value = _cdd_mul(inner, w)
    return _dd_add(value[0], (1.0, 0.0)), value[1]


def _solve_fast(m: int, c_dd, z: complex, precision: int):
    """The BranchSet of the 53-bit fast path at the complex double z, or None
    where the point fails its acceptance test.

    The trinomial's roots in doubles are polished by two Newton steps in
    double and two with the polynomial in double-double.  The point is
    accepted when every value is finite, every double-double residual passes
    the gate ``10**(2 - 0.3*precision)`` and consecutive moduli differ by
    more than ``BATCH_RELATIVE_GAP`` relative to the larger.
    """
    c, size = c_dd[0], m + 1
    # a point whose z/c overflows is rejected
    ws = _trinomial_seeds(m, c, z) if cmath.isfinite(z / c) else []
    if not ws:
        return None

    def derivative(v):
        return c * size * v**m - z

    try:
        for _ in range(2):
            ws = [v - (c * v**size - z * v + 1) / derivative(v) for v in ws]
        wdd = [((v.real, 0.0), (v.imag, 0.0)) for v in ws]
        for _ in range(2):
            for k, v in enumerate(wdd):
                step = _cdd_hi(_branch_poly_dd(v, m, c_dd, z)) / derivative(_cdd_hi(v))
                wdd[k] = _dd_add(v[0], (-step.real, 0.0)), _dd_add(v[1], (-step.imag, 0.0))
        wdd.sort(key=lambda v: abs(_cdd_hi(v)))
        his = [_cdd_hi(v) for v in wdd]
        moduli = [abs(hi) for hi in his]
        residuals = tuple(abs(_cdd_hi(_branch_poly_dd(v, m, c_dd, z))) for v in wdd)
    except (OverflowError, ZeroDivisionError):
        # a power or a modulus beyond the range of a double, or a vanishing
        # derivative
        return None
    los = [complex(v[0][1], v[1][1]) for v in wdd]
    tolerance = _residual_tolerance(precision)
    if not all(map(cmath.isfinite, his + los)) or not all(r <= tolerance for r in residuals):
        return None
    # a gap between consecutive moduli bounds every pairwise distance from
    # below, so this one test also rejects collided or duplicated roots
    if not all(high - low > BATCH_RELATIVE_GAP * high for low, high in zip(moduli, moduli[1:])):
        return None
    bits = _work_bits(precision, m, z)
    parts = tuple(_dd_parts(hi, lo, bits) for hi, lo in zip(his, los))
    return BranchSet(z, parts, residuals, False, precision)


class BranchBatch(NamedTuple):
    """Branch sets of many points, in input order, and the path that solved them.

    ``results[i]`` is the BranchSet of the i-th point, or the
    SolverDivergence raised there.  ``batched`` counts the points accepted
    by the 53-bit fast path and ``fallback`` those solved by per-point
    mpmath Aberth iteration (every point above 53 bits).
    """

    results: tuple
    batched: int
    fallback: int


def solve_branches_many(p: Params, points, precision: int = 53) -> BranchBatch:
    """``solve_branches`` at every point, by the fast path at the default 53 bits.

    At 53 bits, and when c lies well inside the range of a double, a point
    that is an exact complex double is first solved by ``_solve_fast``,
    whose accepted points have a false tie flag.  Every point it rejects,
    every other point, and every point above 53 bits is solved by
    ``solve_branches_aberth``.
    """
    if precision < 53:
        raise ValueError("precision must be at least 53 bits")
    points = list(points)
    results: list = [None] * len(points)
    # c and its low part must be normal doubles for c_dd to carry c exactly
    # enough; a point that is not a double (an exact branch point from
    # ``branch_points``, say) must not be rounded to one
    if precision == 53 and 1e-300 < p.c < 1e300:
        c = float(p.c)
        c_dd = (c, float(p.c - Rational(c)))
        for i, z in enumerate(points):
            if complex(z) == z:
                results[i] = _solve_fast(p.m, c_dd, complex(z), precision)
    batched = sum(bs is not None for bs in results)
    for i, z in enumerate(points):
        if results[i] is None:
            try:
                results[i] = solve_branches_aberth(p, z, precision)
            except SolverDivergence as exc:
                results[i] = exc
    return BranchBatch(tuple(results), batched, len(points) - batched)


def solve_branches(p: Params, z, precision: int = 53) -> BranchSet:
    """All m+1 roots of ``c*w**(m+1) - z*w + 1`` at the point z, modulus-sorted.

    Each root is refined until its residual is below ``10**(2 - 0.3*precision)``;
    the tie flag marks consecutive moduli closer than a relative 1e-10.  This
    is the one-point case of ``solve_branches_many``.
    """
    result = solve_branches_many(p, [z], precision).results[0]
    if isinstance(result, SolverDivergence):
        raise result
    return result


def coefficients_b(bs: BranchSet, p: Params) -> BranchCoefficients:
    """``b_j = 1 / prod_{k != j} (lambda_j - lambda_k)`` with a recorded cross-check.

    Requires well-separated branches (tie flag false).  The cross-check
    verifies ``c*lambda_j*prod = c*m*lambda_j**(m+1) - 1`` to relative 1e-8.
    """
    if bs.tie_flag:
        raise DegenerateBranches(
            f"tied branch moduli at z={bs.z}; coefficients are ill-conditioned"
        )
    import mpmath

    m, c = p.m, p.c
    workbits = _work_bits(bs.precision, m, bs.z) + 16
    with mpmath.workprec(workbits):
        cmpf = rat_to_mpf(c)
        values = []
        worst = 0.0
        for j, lam in enumerate(bs.lambdas):
            prod = mpmath.mpc(1)
            for k, other in enumerate(bs.lambdas):
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
    initial data of the recurrence.
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


class StarGeometry(NamedTuple):
    """Ray/segment skeleton for one parameter pair.

    Each family's ``*_rotations`` are ``cmath.exp(-1j*angle)`` of its
    angles, which turn a point onto the family's rays; the bounded star's
    segments lie along the odd angles.
    """

    m: int
    c_float: float
    a: float
    s0_angles: tuple
    even_angles: tuple
    odd_angles: tuple
    attractor: str  # "even" for even m, "odd" for odd m
    attractor_angles: tuple
    even_rotations: tuple
    odd_rotations: tuple
    attractor_rotations: tuple


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
    m, n = p.m, p.m + 1
    power = Rational((m + 1) ** n, m**m) * p.c  # a**(m+1)
    num, den = power.numerator, power.denominator
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
    m, n = p.m, p.m + 1
    lhs = m**m * man**n * p.c.denominator
    rhs = (m + 1) ** n * p.c.numerator
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
        m=m,
        c_float=float(p.c),
        a=star_radius(p),
        s0_angles=odd,
        even_angles=even,
        odd_angles=odd,
        attractor=attractor,
        attractor_angles=even if attractor == "even" else odd,
        even_rotations=even_rotations,
        odd_rotations=odd_rotations,
        attractor_rotations=even_rotations if attractor == "even" else odd_rotations,
    )


def ray_family_distance(z, rotations) -> float:
    """Euclidean distance from z to the nearest ray ``[0, inf) * exp(i*angle)``,
    each ray given by its rotation ``exp(-1j*angle)``."""
    z = complex(z)
    best = math.inf
    for rotation in rotations:
        u = z * rotation
        best = min(best, abs(u.imag) if u.real >= 0 else abs(u))
    return best


def segment_family_distance(z, rotations, length: float) -> float:
    """Euclidean distance from z to the nearest segment ``[0, length] * exp(i*angle)``,
    each segment given by its rotation ``exp(-1j*angle)``."""
    z = complex(z)
    best = math.inf
    for rotation in rotations:
        u = z * rotation
        best = min(best, abs(u - min(max(u.real, 0.0), length)))
    return best


class RegionReport(NamedTuple):
    """Distances from a point to the three stars and the induced domain flags.

    ``omega[j]`` is True when the point lies in the holomorphy domain of
    branch j: off the bounded star for j = 0, off both unbounded stars for
    0 < j < m, and off the parity-selected attractor star for j = m.
    Distances below the tolerance count as membership in the excluded set.
    """

    z: complex
    tol: float
    dist_s0: float
    dist_even_star: float
    dist_odd_star: float
    dist_attractor: float
    omega: tuple


def region_classify(p: Params, z, tol: float) -> RegionReport:
    if tol <= 0:
        raise ValueError("tol must be positive")
    geom = star_geometry(p)
    z = complex(z)
    d0 = segment_family_distance(z, geom.odd_rotations, geom.a)
    de = ray_family_distance(z, geom.even_rotations)
    do = ray_family_distance(z, geom.odd_rotations)
    da = de if geom.attractor == "even" else do
    flags = [d0 >= tol]
    for _ in range(1, p.m):
        flags.append(min(de, do) >= tol)
    flags.append(da >= tol)
    return RegionReport(z, tol, d0, de, do, da, tuple(flags))


def _limit_gate_distance(p: Params, geom: StarGeometry, z) -> float:
    # For m = 1 the top-two moduli tie exactly on the bounded segments, not on
    # the full real line, so the gate uses the segments there; for m >= 2 the
    # tie set is the unbounded parity star.
    if p.m == 1:
        return segment_family_distance(z, geom.odd_rotations, geom.a)
    return ray_family_distance(z, geom.attractor_rotations)


def _limit(p: Params, z, precision: int, tol: float) -> tuple:
    """``(lambda_m, lambda_{m-1}, L)`` at z, behind the star gate and the tie check."""
    import mpmath

    geom = star_geometry(p)
    if _limit_gate_distance(p, geom, z) < tol:
        raise OnStarSet(f"z={complex(z)} lies within {tol} of the attractor star")
    bs = solve_branches(p, z, precision)
    top, second = bs.lambdas[-1], bs.lambdas[-2]
    if abs(top) - abs(second) < TIE_RELATIVE_GAP * abs(top):
        raise OnStarSet(f"largest branch modulus is tied at z={complex(z)}")
    with mpmath.workprec(_work_bits(precision, p.m, z)):
        cmpf = rat_to_mpf(p.c)
        return top, second, cmpf / (cmpf * p.m - mpmath.mpc(top) ** (-(p.m + 1)))


def limit_L(p: Params, z, precision: int = 53, tol: float = 1e-9):
    """The limit value ``c / (c*m - lambda_m**-(m+1))`` of ``t_r / lambda_m**r``.

    It is ``b_m * lambda_m**m = c * lambda_m**m / P'(lambda_m)`` for
    ``P(w) = c*w**(m+1) - z*w + 1``, with ``P'(w) = c*m*w**m - 1/w`` on the
    roots of P.

    Raises OnStarSet when z is within ``tol`` of the attractor set (or when
    the top two branch moduli tie, which is the same set seen numerically).
    """
    return _limit(p, z, precision, tol)[2]


class ScanResult(NamedTuple):
    """Observed error decay of the scaled scalar terms against the limit value.

    ``errors[r] = |t_r(z)/lambda_m**r - L|`` with t_r(z) stepped by the
    scalar recurrence at z; ``rates[r] = (errors[r]/errors[r-w])**(1/w)``
    over the window ``w = m*(m+1)``; ``decay_estimate`` averages over the
    trailing half of the scan and should approach
    ``ratio = |lambda_{m-1}/lambda_m|``.
    """

    z: complex
    r_max: int
    precision: int
    window: int
    ratio: float
    limit_value: complex
    errors: tuple
    rates: tuple
    decay_estimate: float | None


def asymptotic_scan(
    p: Params, z, r_max: int, precision: int = 53, tol: float = 1e-9
) -> ScanResult:
    """Error table ``e_r = |t_r/lambda_m**r - L|`` for r = 0..r_max.

    Each t_r(z) is stepped by ``c*t_r = z*t_{r-m} - t_{r-m-1}`` from t_0 = 1,
    t_1 .. t_{m-1} = 0 at the working precision, O(r_max) work in all.  Off the
    attractor star, which the limit's gate excludes, t_r is the dominant
    solution, so forward recursion is stable (Gautschi, SIAM Rev. 1967) and
    the decay floor is set by ``precision`` alone: deep scans need roughly
    ``r_max * log2(lambda_m/lambda_{m-1})`` extra bits.
    """
    import mpmath

    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    top, second, limit_value = _limit(p, z, precision, tol)
    ratio = float(abs(second) / abs(top))
    m = p.m
    with mpmath.workprec(_work_bits(precision, m, z)):
        zz, cmpf = mpmath.mpc(z), rat_to_mpf(p.c)
        # t_{-m-1} .. t_{-1} are zero, then t_0 .. t_{m-1} are the unit start
        values = [mpmath.mpc(0)] * (m + 1) + [mpmath.mpc(1)] + [mpmath.mpc(0)] * (m - 1)
        for _ in range(m, r_max + 1):
            values.append((zz * values[-m] - values[-m - 1]) / cmpf)
        errors, power = [], mpmath.mpc(1)
        for tval in values[m + 1 : m + 2 + r_max]:
            errors.append(float(abs(tval / power - limit_value)))
            power *= top
    window = m * (m + 1)
    rates: list[float | None] = [None] * len(errors)
    for r in range(window, len(errors)):
        if errors[r - window] > 0 and errors[r] > 0:
            rates[r] = (errors[r] / errors[r - window]) ** (1.0 / window)
    estimate = None
    tail = window * max(1, r_max // (2 * window))
    if r_max >= window and errors[r_max] > 0 and errors[r_max - tail] > 0:
        estimate = (errors[r_max] / errors[r_max - tail]) ** (1.0 / tail)
    return ScanResult(
        z=complex(z),
        r_max=r_max,
        precision=precision,
        window=window,
        ratio=ratio,
        limit_value=complex(limit_value),
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
    margin: float | None = None,
) -> list:
    """Reproducible sample of points avoiding all stars and branch points.

    Points are drawn uniformly from an annulus (defaults sized by the segment
    radius) and rejected within ``margin`` of the bounded star, either
    unbounded star, or any branch point.
    """
    geom = star_geometry(p)
    a = geom.a
    rmin = 0.3 * a if rmin is None else rmin
    rmax = 3.0 * a if rmax is None else rmax
    margin = 0.1 * a if margin is None else margin
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
        if ray_family_distance(z, geom.even_rotations) < margin:
            continue
        if ray_family_distance(z, geom.odd_rotations) < margin:
            continue
        if min(abs(z - bp) for bp in bps) < margin:
            continue
        points.append(z)
    return points
