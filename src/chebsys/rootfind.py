"""Complex root extraction at a caller-chosen bit precision.

Strategy: seed with double-precision root estimates, then refine all roots
simultaneously with Aberth-Ehrlich iteration evaluated against the original
coefficients at the working precision.  The simultaneous scheme keeps
clustered and multiple roots honest where per-root Newton would stall or
double-count.  A caller that knows its roots approximately passes them as
the seeds (the branch trinomial does); otherwise the seeds are
companion-matrix eigenvalues of the normalized coefficients, which is the
only use of numpy here, so numpy is imported only then.  ``roots`` comes
here only for an h_r whose zeros the probe did not isolate.
"""

from __future__ import annotations

import cmath

import mpmath
from mpmath.libmp import (
    fone,
    fzero,
    mpc_abs,
    mpc_add,
    mpc_add_mpf,
    mpc_div,
    mpc_mpf_div,
    mpc_mul,
    mpc_sub,
    mpf_add,
    mpf_le,
    mpf_mul,
    mpf_rdiv_int,
    round_nearest,
)

from .errors import RootRefinementError
from .rationals import add_man_exp, man_exp, rat_to_mpf, raw_mpf, round_man_exp

_CZERO = (fzero, fzero)
_CONE = (fone, fzero)


def to_mpc(value):
    """Convert an exact rational or any numeric scalar to mpc at current precision."""
    num = getattr(value, "numerator", None)
    if num is not None and not isinstance(value, (int, float, complex)):
        return mpmath.mpc(rat_to_mpf(value))
    return mpmath.mpc(value)


def _companion_seeds(coeffs) -> list | None:
    """Companion-matrix eigenvalues of the normalized coefficients, in double
    precision, or None where numpy cannot give n finite ones."""
    import numpy as np

    n = len(coeffs) - 1
    scale = max(abs(c) for c in coeffs)
    try:
        arr = np.array([complex(c / scale) for c in reversed(coeffs)])
        if np.all(np.isfinite(arr)):
            # overflowing seeds are rejected below, so numpy need not warn
            with np.errstate(all="ignore"):
                seeds = np.roots(arr)
            if len(seeds) == n and np.all(np.isfinite(seeds)):
                return [complex(s) for s in seeds]
    except Exception:
        pass
    return None


def _initial_guesses(coeffs, seeds=None):
    """The Aberth seeds of the polynomial ``coeffs``: the caller's ``seeds``, or
    companion-matrix seeds when ``seeds`` is None; circle fallback.

    Caller seeds are used when there is one per root and each is finite;
    otherwise, and where numpy gives no finite companion seeds, the seeds
    are spread on a circle.
    """
    n = len(coeffs) - 1
    if seeds is None:
        seeds = _companion_seeds(coeffs)
    if seeds is not None and len(seeds) == n and all(map(cmath.isfinite, seeds)):
        return [mpmath.mpc(s) for s in seeds]
    # evenly spread on a circle sized by the root bound, phase-offset to dodge symmetry
    radius = 1 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
    return [
        mpmath.mpc(radius) * mpmath.exp(2j * mpmath.pi * (k + 0.35) / n)
        for k in range(n)
    ]


def _separate(points):
    # Aberth needs pairwise-distinct iterates; nudge duplicates.
    seen = {}
    out = []
    for x in points:
        key = (mpmath.nstr(x.real, 12), mpmath.nstr(x.imag, 12))
        bump = seen.get(key, 0)
        if bump:
            x = x + mpmath.mpf(bump) * mpmath.mpf(2) ** -20 * (1 + abs(x))
        seen[key] = bump + 1
        out.append(x)
    return out


def complex_roots(
    coeffs, precision: int = 53, maxiter: int | None = None, seeds=None
) -> list:
    """All roots (with multiplicity) of ``sum coeffs[i] * x**i``.

    Coefficients may be exact rationals or complex scalars.  ``seeds`` are
    double-precision estimates of the roots other than the exact zeros at
    the origin, which are split off first; without them the seeds are
    companion-matrix eigenvalues, from numpy (see ``_initial_guesses``).
    Returns mpc values accurate to roughly the requested precision; raises
    RootRefinementError when the iteration fails to settle.
    """
    workbits = precision + 32
    with mpmath.workprec(workbits):
        cs = [to_mpc(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("the zero polynomial has no well-defined root set")
        # exact zero roots split off first
        origin = 0
        while cs[origin] == 0:
            origin += 1
        zeros = [mpmath.mpc(0)] * origin
        cs = cs[origin:]
        n = len(cs) - 1
        if n == 0:
            return zeros
        if n == 1:
            return zeros + [-cs[0] / cs[1]]
        xs = _separate(_initial_guesses(cs, seeds))
        if maxiter is None:
            maxiter = max(100, 2 * precision)
        raw = [c._mpc_ for c in cs]
        abs_cs = [mpc_abs(c, workbits, round_nearest) for c in raw]
        xs, settled = _aberth(raw, abs_cs, [x._mpc_ for x in xs], workbits, maxiter)
        if not settled:
            # allow a loose residual pass before declaring failure
            scale = max(mpmath.mp.make_mpf(a) for a in abs_cs)
            kernel = _on_kernel(raw, abs_cs)
            for x in xs:
                p = _fused_horner(*kernel, x, fzero, workbits)[0]
                local = scale * max(1, abs(mpmath.mp.make_mpc(x))) ** n
                if abs(mpmath.mp.make_mpc(p)) > mpmath.mpf(2) ** -(precision // 2) * local:
                    raise RootRefinementError(
                        f"root refinement did not converge in {maxiter} iterations",
                        coeffs=tuple(coeffs),
                    )
        return zeros + [mpmath.mp.make_mpc(x) for x in xs]


# The Aberth iteration runs on raw mpmath values (libmp tuples): each step
# below is the libmp call the mpc/mpf operator would make at the working
# precision with round-to-nearest, in the same order, so the iterates are
# bit for bit those of the operator form, without its object overhead.  Its
# Horner loop runs on the integer kernel, which rounds as those calls do.


def _on_kernel(cs, abs_cs) -> tuple:
    """Raw coefficients and moduli as ``_fused_horner`` takes them."""
    return [(*man_exp(a), *man_exp(b)) for a, b in cs], [man_exp(a) for a in abs_cs]


def _fused_horner(cs, abs_cs, x, ax, prec):
    """Value, derivative and local coefficient scale ``sum |c_i| ax**i`` at x.

    ``cs`` holds the coefficients as ``(re, re_exp, im, im_exp)`` and
    ``abs_cs`` their moduli as ``(man, exp)``, on the integer kernel; x, ax
    and the three results are raw.  Each step rounds as ``mpc_mul``,
    ``mpc_add``, ``mpf_mul`` and ``mpf_add`` round it.
    """
    xr, er = man_exp(x[0])
    xi, ei = man_exp(x[1])
    a, ea = man_exp(ax)
    pr, epr, pi, epi = cs[-1]
    dr = edr = di = edi = 0
    s, es = abs_cs[-1]
    for i in range(len(cs) - 2, -1, -1):
        # dp*x + p, with the p of the step before
        (dr, edr), (di, edi) = (
            add_man_exp(dr * xr, edr + er, -(di * xi), edi + ei, prec),
            add_man_exp(dr * xi, edr + ei, di * xr, edi + er, prec),
        )
        dr, edr = add_man_exp(dr, edr, pr, epr, prec)
        di, edi = add_man_exp(di, edi, pi, epi, prec)
        # p*x + c_i
        (pr, epr), (pi, epi) = (
            add_man_exp(pr * xr, epr + er, -(pi * xi), epi + ei, prec),
            add_man_exp(pr * xi, epr + ei, pi * xr, epi + er, prec),
        )
        cr, ecr, ci, eci = cs[i]
        pr, epr = add_man_exp(pr, epr, cr, ecr, prec)
        pi, epi = add_man_exp(pi, epi, ci, eci, prec)
        # scale*ax + |c_i|
        s, es = round_man_exp(s * a, es + ea, prec)
        s, es = add_man_exp(s, es, *abs_cs[i], prec)
    return (
        (raw_mpf(pr, epr), raw_mpf(pi, epi)),
        (raw_mpf(dr, edr), raw_mpf(di, edi)),
        raw_mpf(s, es),
    )


def _aberth(cs, abs_cs, xs, prec, maxiter):
    """Gauss-Seidel Aberth-Ehrlich sweeps from the seeds ``xs``.

    Returns the iterates and whether every root settled within ``maxiter``
    sweeps.
    """
    rnd = round_nearest
    n = len(xs)
    cs, abs_cs = _on_kernel(cs, abs_cs)
    step_tol = (mpmath.mpf(2) ** -(prec - 6))._mpf_
    floor_eps = (mpmath.mpf(2) ** -(prec - 4))._mpf_
    nudge = (mpmath.mpf(2) ** -16)._mpf_
    collide = (mpmath.mpf(2) ** -(prec // 2))._mpf_
    done = [False] * n
    for _ in range(maxiter):
        for i in range(n):
            if done[i]:
                continue
            x = xs[i]
            ax = mpc_abs(x, prec, rnd)
            p, dp, scale = _fused_horner(cs, abs_cs, x, ax, prec)
            if mpf_le(mpc_abs(p, prec, rnd), mpf_mul(floor_eps, scale, prec, rnd)):
                # backward error at the rounding floor; cannot improve
                done[i] = True
                continue
            if dp == _CZERO:
                bump = mpf_mul(nudge, mpf_add(ax, fone, prec, rnd), prec, rnd)
                xs[i] = mpc_add_mpf(x, bump, prec, rnd)
                continue
            newton = mpc_div(p, dp, prec, rnd)
            coupling = _CZERO
            for j in range(n):
                if j == i:
                    continue
                diff = mpc_sub(x, xs[j], prec, rnd)
                if diff == _CZERO:
                    # the operator form divides 1 by a real here
                    gap = mpf_mul(collide, mpf_add(ax, fone, prec, rnd), prec, rnd)
                    coupling = mpc_add_mpf(coupling, mpf_rdiv_int(1, gap, prec, rnd), prec, rnd)
                else:
                    coupling = mpc_add(coupling, mpc_mpf_div(fone, diff, prec, rnd), prec, rnd)
            denom = mpc_sub(_CONE, mpc_mul(newton, coupling, prec, rnd), prec, rnd)
            w = newton if denom == _CZERO else mpc_div(newton, denom, prec, rnd)
            xs[i] = x = mpc_sub(x, w, prec, rnd)
            size = mpf_add(mpc_abs(x, prec, rnd), fone, prec, rnd)
            if mpf_le(mpc_abs(w, prec, rnd), mpf_mul(step_tol, size, prec, rnd)):
                done[i] = True
        if all(done):
            return xs, True
    return xs, False


def coefficient_moduli(poly, prec: int) -> list:
    """``|c_i|`` of an exact polynomial's coefficients rounded to ``prec`` bits,
    as ``(man, exp)`` pairs on the integer kernel."""
    return [(abs(man), exp) for man, exp in map(man_exp, poly.rounded(prec))]


def max_term(moduli, x) -> mpmath.mpf:
    """``max_i moduli[i] * |x|**i`` at the current precision.

    With ``coefficient_moduli`` at the current precision this is the
    backward-error denominator of the polynomial at x, each coefficient
    rounded once and not again at every point.  Each product rounds as
    ``mpf_mul`` rounds it; the first of equal greatest terms is kept.
    """
    prec = mpmath.mp.prec
    a, ea = man_exp(mpc_abs(mpmath.mpc(x)._mpc_, prec, round_nearest))
    best = eb = top = 0
    power, ep = 1, 0
    for c, ec in moduli:
        term, et = round_man_exp(c * power, ec + ep, prec)
        if term:
            # a greater leading bit decides; at the same one, both mantissas
            # fit prec + 1 bits, so aligning them shifts by little
            lead = term.bit_length() + et
            if not best or lead > top or lead == top and (
                term << et - eb > best if et >= eb else term > best << eb - et
            ):
                best, eb, top = term, et, lead
        power, ep = round_man_exp(power * a, ep + ea, prec)
    return mpmath.mp.make_mpf(raw_mpf(best, eb))
