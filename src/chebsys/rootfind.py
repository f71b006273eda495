"""Complex root extraction at a caller-chosen bit precision.

Strategy: seed with double-precision root estimates, then refine all roots
simultaneously with Aberth-Ehrlich iteration evaluated against the original
coefficients at the working precision.  The simultaneous scheme keeps
clustered and multiple roots honest where per-root Newton would stall or
double-count.  A caller that knows its roots approximately passes them as
the seeds (the branch trinomial does); otherwise the seeds are
companion-matrix eigenvalues of the normalized coefficients, which is the
only use of numpy here, so numpy is imported only then.  ``roots`` comes
here only for an h_r whose zeros the probe did not isolate, and the branch
solver only for a point its 53-bit fast path rejects, so the iteration
runs on mpmath's own mpc and mpf operators.
"""

from __future__ import annotations

import cmath

import mpmath

from .errors import RootRefinementError
from .rationals import rat_to_mpf


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
        abs_cs = [abs(c) for c in cs]
        xs, settled = _aberth(cs, abs_cs, xs, workbits, maxiter)
        if not settled:
            # allow a loose residual pass before declaring failure
            scale = max(abs_cs)
            zero = mpmath.mpf(0)
            for x in xs:
                p = _horner(cs, abs_cs, x, zero)[0]
                local = scale * max(1, abs(x)) ** n
                if abs(p) > mpmath.mpf(2) ** -(precision // 2) * local:
                    raise RootRefinementError(
                        f"root refinement did not converge in {maxiter} iterations",
                        coeffs=tuple(coeffs),
                    )
        return zeros + xs


def _horner(cs, abs_cs, x, ax):
    """Value, derivative and local coefficient scale ``sum |c_i| ax**i`` at x."""
    p = cs[-1]
    dp = mpmath.mpc(0)
    scale = abs_cs[-1]
    for c, ac in zip(reversed(cs[:-1]), reversed(abs_cs[:-1])):
        dp = dp * x + p
        p = p * x + c
        scale = scale * ax + ac
    return p, dp, scale


def _aberth(cs, abs_cs, xs, prec, maxiter):
    """Gauss-Seidel Aberth-Ehrlich sweeps from the seeds ``xs``, at the
    current precision ``prec``.

    Returns the iterates and whether every root settled within ``maxiter``
    sweeps.
    """
    n = len(xs)
    step_tol = mpmath.mpf(2) ** -(prec - 6)
    floor_eps = mpmath.mpf(2) ** -(prec - 4)
    done = [False] * n
    for _ in range(maxiter):
        for i in range(n):
            if done[i]:
                continue
            x = xs[i]
            ax = abs(x)
            p, dp, scale = _horner(cs, abs_cs, x, ax)
            if abs(p) <= floor_eps * scale:
                # backward error at the rounding floor; cannot improve
                done[i] = True
                continue
            if dp == 0:
                xs[i] = x + mpmath.mpf(2) ** -16 * (1 + ax)
                continue
            newton = p / dp
            coupling = mpmath.mpc(0)
            for j in range(n):
                if j == i:
                    continue
                diff = x - xs[j]
                if diff == 0:
                    diff = mpmath.mpf(2) ** -(prec // 2) * (1 + ax)
                coupling += 1 / diff
            denom = 1 - newton * coupling
            w = newton if denom == 0 else newton / denom
            xs[i] = x - w
            if abs(w) <= step_tol * (1 + abs(xs[i])):
                done[i] = True
        if all(done):
            return xs, True
    return xs, False


def coefficient_moduli(poly, prec: int) -> list:
    """``|c_i|`` of an exact polynomial's coefficients rounded to ``prec`` bits,
    as ``rat_to_mpf`` rounds them."""
    with mpmath.workprec(prec):
        return [abs(rat_to_mpf(c)) for c in poly.coeffs]


def max_term(moduli, x) -> mpmath.mpf:
    """``max_i moduli[i] * |x|**i`` at the current precision.

    With ``coefficient_moduli`` at the current precision this is the
    backward-error denominator of the polynomial at x, each coefficient
    rounded once and not again at every point.
    """
    ax = abs(mpmath.mpc(x))
    best = mpmath.mpf(0)
    power = mpmath.mpf(1)
    for c in moduli:
        term = c * power
        if term > best:
            best = term
        power *= ax
    return best
