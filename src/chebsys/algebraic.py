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

At the default 53-bit precision the branches of many points are solved in
blocks: stacked companion eigenvalues, two Newton steps in double and two
with the polynomial in double-double arithmetic (Dekker, Numer. Math. 1971),
after the seed-then-polish scheme of MPSolve (Bini and Robol, JCAM 2014).
A point whose result fails the residual gate, or whose moduli come close to
a tie, is solved again by per-point mpmath Aberth iteration, so every tie
decision is made at full working precision.

Star geometry: the bounded star is the m+1 segments of length
``a = ((m+1)/m) * (m*c)**(1/(m+1))`` along the angles ``2*pi*k/(m+1)``; the
unbounded stars are the ray families at ``2*pi*k/(m+1)`` ("odd") and
``(2k+1)*pi/(m+1)`` ("even").  For odd m each family is closed under the
antipode, so rays and full lines coincide; both families are therefore
implemented as rays uniformly.  The attractor of the root sets is the even
family for even m and the odd family for odd m.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass

import mpmath
import numpy as np
from mpmath.libmp import from_float, mpf_add, round_nearest

from .errors import DegenerateBranches, OnStarSet, RootRefinementError, SolverDivergence
from .rationals import Rational, as_rational, rat_to_mpf
from .recurrence import Params, gen_type1_scalar
from .rootfind import complex_roots

TIE_RELATIVE_GAP = 1e-10
# the batched path accepts a point only if consecutive moduli differ by more
# than this relative gap, far above the tie threshold
BATCH_RELATIVE_GAP = 1e4 * TIE_RELATIVE_GAP
# points per block of the batched path, which bounds its array sizes
BATCH_BLOCK = 1024


@dataclass(frozen=True)
class BranchSet:
    """The m+1 branch values at one point, sorted by ascending modulus."""

    z: complex
    lambdas: tuple
    residuals: tuple
    tie_flag: bool
    precision: int

    @property
    def moduli(self) -> tuple:
        return tuple(abs(l) for l in self.lambdas)


@dataclass(frozen=True)
class BranchCoefficients:
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


def _residual_tolerance(precision: int) -> float:
    return 10.0 ** (2 - 0.3 * precision)


def solve_branches_aberth(p: Params, z, precision: int) -> BranchSet:
    """The branches at one point by mpmath Aberth iteration at the working precision."""
    m, c = p.m, p.c
    workbits = _work_bits(precision, m, z)
    with mpmath.workprec(workbits):
        zz = mpmath.mpc(z)
        coeffs = [mpmath.mpc(1), -zz] + [mpmath.mpc(0)] * (m - 1) + [
            mpmath.mpc(rat_to_mpf(c))
        ]
        try:
            roots = complex_roots(coeffs, precision=workbits - 16)
        except RootRefinementError as exc:
            raise SolverDivergence(f"branch solve failed at z={complex(z)}") from exc
        roots.sort(key=lambda l: (abs(l), mpmath.arg(l)))
        residuals = []
        cmpf = rat_to_mpf(c)
        for lam in roots:
            residuals.append(float(abs(cmpf * lam ** (m + 1) - zz * lam + 1)))
        tolerance = _residual_tolerance(precision)
        if max(residuals) > tolerance:
            raise SolverDivergence(
                f"residual {max(residuals):.3e} above {tolerance:.3e} at z={complex(z)}"
            )
        tie = False
        for lo, hi in zip(roots, roots[1:]):
            gap = abs(hi) - abs(lo)
            if gap < TIE_RELATIVE_GAP * max(abs(hi), mpmath.mpf(1e-300)):
                tie = True
        return BranchSet(complex(z), tuple(roots), tuple(residuals), tie, precision)


# ---- double-double arithmetic on float64 arrays (Dekker 1971)
#
# A real double-double is a pair (hi, lo) with |lo| <= ulp(hi)/2 and value
# hi + lo; a complex one is a pair (re, im) of those.  Every primitive is a
# separate NumPy operation, so no step is contracted into a fused multiply-add.

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


def _cdd_hi(x):
    return x[0][0] + 1j * x[1][0]


def _dd_to_mpc(hi: complex, lo: complex, prec: int):
    """``mpc(hi) + mpc(lo)`` rounded to ``prec`` bits, without the context switch."""
    return mpmath.mp.make_mpc(
        (
            mpf_add(from_float(hi.real), from_float(lo.real), prec, round_nearest),
            mpf_add(from_float(hi.imag), from_float(lo.imag), prec, round_nearest),
        )
    )


def _branch_poly_dd(w, m: int, c_dd, z):
    """``c*w**(m+1) - z*w + 1`` in double-double, as ``w*(c*w**m - z) + 1``.

    ``w`` is a complex double-double of shape (n, m+1), ``z`` a complex array
    of shape (n, 1) and ``c_dd`` the real double-double of c.
    """
    zero = np.zeros_like(w[0][0])
    power = w
    for _ in range(m - 1):
        power = _cdd_mul(power, w)
    inner = (
        _dd_add(_dd_mul(power[0], c_dd), (-z.real, zero)),
        _dd_add(_dd_mul(power[1], c_dd), (-z.imag, zero)),
    )
    value = _cdd_mul(inner, w)
    return _dd_add(value[0], (np.ones_like(zero), zero)), value[1]


@np.errstate(all="ignore")
def _solve_block(m: int, c_dd, z, precision: int) -> list:
    """Batched branch sets at the points ``z`` (a complex array of shape (n,)).

    Entry i is the BranchSet of ``z[i]``, or None if the point fails a check.
    """
    n, size, c = len(z), m + 1, c_dd[0]
    # points whose z/c overflows are rejected; z = 0 stands in for them
    finite = np.isfinite(z / c)
    z = np.where(finite, z, 0)
    zc = z[:, None]
    # companion matrix of the monic w**(m+1) - (z/c)*w + 1/c
    companion = np.zeros((n, size, size), dtype=complex)
    companion[:, np.arange(1, size), np.arange(size - 1)] = 1
    companion[:, 0, m] = -1 / c
    companion[:, 1, m] += z / c
    try:
        w = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError:
        # the QR iteration failed on some matrix: leave the block to Aberth
        w = np.full((n, size), np.nan, dtype=complex)

    def derivative(v):
        return c * size * v**m - zc

    for _ in range(2):
        w = w - (c * w**size - zc * w + 1) / derivative(w)
    zero = np.zeros(w.shape)
    wdd = ((w.real, zero), (w.imag, zero))
    for _ in range(2):
        step = _cdd_hi(_branch_poly_dd(wdd, m, c_dd, zc)) / derivative(_cdd_hi(wdd))
        wdd = _dd_add(wdd[0], (-step.real, zero)), _dd_add(wdd[1], (-step.imag, zero))
    residuals = np.abs(_cdd_hi(_branch_poly_dd(wdd, m, c_dd, zc)))

    hi = _cdd_hi(wdd)
    lo = wdd[0][1] + 1j * wdd[1][1]
    order = np.argsort(np.abs(hi), axis=1)
    hi = np.take_along_axis(hi, order, axis=1)
    lo = np.take_along_axis(lo, order, axis=1)
    residuals = np.take_along_axis(residuals, order, axis=1)
    moduli = np.abs(hi)
    # a gap between consecutive moduli bounds every pairwise distance from
    # below, so this one test also rejects collided or duplicated roots
    gaps = np.diff(moduli, axis=1) > BATCH_RELATIVE_GAP * moduli[:, 1:]
    accepted = (
        finite
        & np.isfinite(hi).all(axis=1)
        & np.isfinite(lo).all(axis=1)
        & (residuals.max(axis=1) <= _residual_tolerance(precision))
        & gaps.all(axis=1)
    )
    out = []
    rows = zip(z.tolist(), hi.tolist(), lo.tolist(), residuals.tolist(), accepted)
    for zi, his, los, res, ok in rows:
        if ok:
            bits = _work_bits(precision, m, zi)
            lambdas = tuple(_dd_to_mpc(h, l, bits) for h, l in zip(his, los))
            out.append(BranchSet(zi, lambdas, tuple(res), False, precision))
        else:
            out.append(None)
    return out


@dataclass(frozen=True)
class BranchBatch:
    """Branch sets of many points, in input order, and the path that solved them.

    ``results[i]`` is the BranchSet of the i-th point, or the
    SolverDivergence raised there.  ``batched`` counts the points the
    double-double path accepted and ``fallback`` those solved by per-point
    mpmath Aberth iteration (every point above 53 bits).
    """

    results: tuple
    batched: int
    fallback: int


def solve_branches_many(p: Params, points, precision: int = 53) -> BranchBatch:
    """``solve_branches`` at every point, batched at the default 53 bits.

    At 53 bits, and when c lies well inside the range of a double, points
    that are exact complex doubles go through the batched path in blocks of
    ``BATCH_BLOCK``.  A point is accepted when its values are finite, its
    double-double residual passes the gate ``10**(2 - 0.3*precision)`` and
    consecutive moduli differ by more than ``BATCH_RELATIVE_GAP`` relative to
    the larger (so its tie flag is false).  Every other point, and every
    point above 53 bits, is solved by ``solve_branches_aberth``.
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
        batch = [i for i, z in enumerate(points) if complex(z) == z]
        for start in range(0, len(batch), BATCH_BLOCK):
            block = batch[start : start + BATCH_BLOCK]
            z = np.array([complex(points[i]) for i in block])
            for i, bs in zip(block, _solve_block(p.m, c_dd, z, precision)):
                results[i] = bs
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


@dataclass(frozen=True)
class StarGeometry:
    """Ray/segment skeleton for one parameter pair."""

    m: int
    c_float: float
    a: float
    s0_angles: tuple
    even_angles: tuple
    odd_angles: tuple
    attractor: str  # "even" for even m, "odd" for odd m
    attractor_angles: tuple


def star_radius(p: Params) -> float:
    """Common modulus ``((m+1)/m) * (m*c)**(1/(m+1))`` of the segment endpoints."""
    m = p.m
    with mpmath.workprec(80):
        mc = rat_to_mpf(as_rational(m) * p.c)
        return float(mpmath.mpf(m + 1) / m * mpmath.root(mc, m + 1))


@functools.lru_cache(maxsize=64)
def star_geometry(p: Params) -> StarGeometry:
    """The star skeleton of ``p``, computed once per parameter pair."""
    m = p.m
    odd = tuple(2 * math.pi * k / (m + 1) for k in range(m + 1))
    even = tuple((2 * k + 1) * math.pi / (m + 1) for k in range(m + 1))
    attractor = "even" if m % 2 == 0 else "odd"
    return StarGeometry(
        m=m,
        c_float=float(p.c),
        a=star_radius(p),
        s0_angles=odd,
        even_angles=even,
        odd_angles=odd,
        attractor=attractor,
        attractor_angles=even if attractor == "even" else odd,
    )


def ray_distance(z, angle: float) -> float:
    """Euclidean distance from z to the ray ``[0, inf) * exp(i*angle)``."""
    u = complex(z) * cmath.exp(-1j * angle)
    if u.real >= 0:
        return abs(u.imag)
    return abs(u)


def segment_distance(z, angle: float, length: float) -> float:
    """Euclidean distance from z to the segment ``[0, length] * exp(i*angle)``."""
    u = complex(z) * cmath.exp(-1j * angle)
    t = min(max(u.real, 0.0), length)
    return abs(u - t)


def ray_family_distance(z, angles) -> float:
    return min(ray_distance(z, ang) for ang in angles)


def segment_family_distance(z, angles, length: float) -> float:
    return min(segment_distance(z, ang, length) for ang in angles)


@dataclass(frozen=True)
class RegionReport:
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
    d0 = segment_family_distance(z, geom.s0_angles, geom.a)
    de = ray_family_distance(z, geom.even_angles)
    do = ray_family_distance(z, geom.odd_angles)
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
        return segment_family_distance(z, geom.s0_angles, geom.a)
    return ray_family_distance(z, geom.attractor_angles)


def limit_L(p: Params, z, precision: int = 53, tol: float = 1e-9):
    """The limit value ``c / (c*m - lambda_m**-(m+1))`` of ``t_r / lambda_m**r``.

    It is ``b_m * lambda_m**m = c * lambda_m**m / P'(lambda_m)`` for
    ``P(w) = c*w**(m+1) - z*w + 1``, with ``P'(w) = c*m*w**m - 1/w`` on the
    roots of P.

    Raises OnStarSet when z is within ``tol`` of the attractor set (or when
    the top two branch moduli tie, which is the same set seen numerically).
    """
    geom = star_geometry(p)
    if _limit_gate_distance(p, geom, z) < tol:
        raise OnStarSet(f"z={complex(z)} lies within {tol} of the attractor star")
    bs = solve_branches(p, z, precision)
    top, second = bs.lambdas[-1], bs.lambdas[-2]
    if abs(top) - abs(second) < TIE_RELATIVE_GAP * abs(top):
        raise OnStarSet(f"largest branch modulus is tied at z={complex(z)}")
    with mpmath.workprec(_work_bits(precision, p.m, z)):
        cmpf = rat_to_mpf(p.c)
        return cmpf / (cmpf * p.m - mpmath.mpc(top) ** (-(p.m + 1)))


@dataclass(frozen=True)
class ScanResult:
    """Observed error decay of the scaled scalar terms against the limit value.

    ``errors[r] = |t_r(z)/lambda_m**r - L|`` from the exact-recurrence
    coefficients; ``rates[r] = (errors[r]/errors[r-w])**(1/w)`` over the
    window ``w = m*(m+1)``; ``decay_estimate`` averages over the trailing
    half of the scan and should approach ``ratio = |lambda_{m-1}/lambda_m|``.
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

    The scalar terms are generated exactly and only evaluated at the working
    precision, so the decay floor is set by ``precision`` alone.  Deep scans
    need roughly ``r_max * log2(lambda_m/lambda_{m-1})`` extra bits.
    """
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    geom = star_geometry(p)
    if _limit_gate_distance(p, geom, z) < tol:
        raise OnStarSet(f"z={complex(z)} lies within {tol} of the attractor star")
    bs = solve_branches(p, z, precision)
    top, second = bs.lambdas[-1], bs.lambdas[-2]
    if abs(top) - abs(second) < TIE_RELATIVE_GAP * abs(top):
        raise OnStarSet(f"largest branch modulus is tied at z={complex(z)}")
    ratio = float(abs(second) / abs(top))
    terms = gen_type1_scalar(p, r_max)
    workbits = _work_bits(precision, p.m, z)
    errors = []
    with mpmath.workprec(workbits):
        cmpf = rat_to_mpf(p.c)
        limit_value = cmpf / (cmpf * p.m - mpmath.mpc(top) ** (-(p.m + 1)))
        zz = mpmath.mpc(z)
        power = mpmath.mpc(1)
        for r in range(r_max + 1):
            tval = terms[r].eval_complex(zz, workbits)
            errors.append(float(abs(tval / power - limit_value)))
            power *= top
    window = p.m * (p.m + 1)
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


def branch_points(p: Params, precision: int = 80) -> list:
    """The m+1 points where two branches collide, from the critical-point system.

    Solving ``P_z(w) = 0`` together with ``P_z'(w) = 0`` eliminates z and
    leaves ``w**(m+1) = 1/(c*m)``; each critical value ``z = c*(m+1)*w**m`` is
    then verified to carry a vanishing discriminant (a collapsed pair of
    branch values).  The discriminant of ``c*w**(m+1) - z*w + 1`` in w
    vanishes exactly where ``m**m * z**(m+1) = (m+1)**(m+1) * c``, which is
    checked to the relative tolerance ``2**(8 - precision)``.
    """
    m, c = p.m, p.c
    with mpmath.workprec(precision + 32):
        cm = rat_to_mpf(as_rational(m) * c)
        coeffs = [mpmath.mpc(-1) / cm] + [mpmath.mpc(0)] * m + [mpmath.mpc(1)]
        crit = complex_roots(coeffs, precision=precision)
        cmpf = rat_to_mpf(c)
        exact_points = [cmpf * (m + 1) * w**m for w in crit]
        # check the unrounded values: rounding z to a double would leave a
        # relative discriminant of about 1e-16
        target = rat_to_mpf((m + 1) ** (m + 1) * c)
        tol = mpmath.mpf(2) ** (8 - precision)
        for pt in exact_points:
            if abs(m**m * pt ** (m + 1) - target) > tol * target:
                raise SolverDivergence(
                    f"no collapsed branch pair at candidate branch point {complex(pt)}"
                )
    points = [complex(pt) for pt in exact_points]
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
        if segment_family_distance(z, geom.s0_angles, a) < margin:
            continue
        if ray_family_distance(z, geom.even_angles) < margin:
            continue
        if ray_family_distance(z, geom.odd_angles) < margin:
            continue
        if min(abs(z - bp) for bp in bps) < margin:
            continue
        points.append(z)
    return points
