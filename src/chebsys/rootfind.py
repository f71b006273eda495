"""Complex root extraction at a caller-chosen bit precision.

Strategy: seed with double-precision companion-matrix eigenvalues (numpy) on
normalized coefficients, then refine all roots simultaneously with
Aberth-Ehrlich iteration evaluated against the original coefficients at the
working precision.  The simultaneous scheme keeps clustered and multiple
roots honest where per-root Newton would stall or double-count.
"""

from __future__ import annotations

import mpmath
import numpy as np

from .errors import RootRefinementError
from .rationals import rat_to_mpf


def to_mpc(value):
    """Convert an exact rational or any numeric scalar to mpc at current precision."""
    num = getattr(value, "numerator", None)
    if num is not None and not isinstance(value, (int, float, complex)):
        return mpmath.mpc(rat_to_mpf(value))
    return mpmath.mpc(value)


def _horner_pair(coeffs, x):
    """Value and derivative at x; coeffs are mpc, ordered by ascending power."""
    p = coeffs[-1]
    dp = mpmath.mpc(0)
    for c in reversed(coeffs[:-1]):
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _initial_guesses(coeffs):
    """Companion-matrix seeds in double precision; circle fallback."""
    n = len(coeffs) - 1
    scale = max(abs(c) for c in coeffs)
    try:
        arr = np.array([complex(c / scale) for c in reversed(coeffs)])
        if np.all(np.isfinite(arr)):
            # overflowing seeds are rejected below, so numpy need not warn
            with np.errstate(all="ignore"):
                seeds = np.roots(arr)
            if len(seeds) == n and np.all(np.isfinite(seeds)):
                return [mpmath.mpc(complex(s)) for s in seeds]
    except Exception:
        pass
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


def complex_roots(coeffs, precision: int = 53, maxiter: int | None = None) -> list:
    """All roots (with multiplicity) of ``sum coeffs[i] * x**i``.

    Coefficients may be exact rationals or complex scalars.  Returns mpc
    values accurate to roughly the requested precision; raises
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
        xs = _separate(_initial_guesses(cs))
        if maxiter is None:
            maxiter = max(100, 2 * precision)
        step_tol = mpmath.mpf(2) ** -(workbits - 6)
        floor_eps = mpmath.mpf(2) ** -(workbits - 4)
        abs_cs = [abs(c) for c in cs]
        done = [False] * n
        for _ in range(maxiter):
            for i in range(n):
                if done[i]:
                    continue
                x = xs[i]
                # fused Horner for value, derivative, and local coefficient scale
                p = cs[-1]
                dp = mpmath.mpc(0)
                scale = abs_cs[-1]
                ax = abs(x)
                for c, ac in zip(reversed(cs[:-1]), reversed(abs_cs[:-1])):
                    dp = dp * x + p
                    p = p * x + c
                    scale = scale * ax + ac
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
                        diff = mpmath.mpf(2) ** -(workbits // 2) * (1 + ax)
                    coupling += 1 / diff
                denom = 1 - newton * coupling
                w = newton if denom == 0 else newton / denom
                xs[i] = x - w
                if abs(w) <= step_tol * (1 + abs(xs[i])):
                    done[i] = True
            if all(done):
                break
        else:
            # allow a loose residual pass before declaring failure
            scale = max(abs_cs)
            for x in xs:
                p, _ = _horner_pair(cs, x)
                local = scale * max(1, abs(x)) ** n
                if abs(p) > mpmath.mpf(2) ** -(precision // 2) * local:
                    raise RootRefinementError(
                        f"root refinement did not converge in {maxiter} iterations",
                        coeffs=tuple(coeffs),
                    )
        return zeros + xs


def residual_scale(coeffs, x) -> mpmath.mpf:
    """Backward-error denominator ``max_i |c_i| |x|**i`` at the point x."""
    ax = abs(mpmath.mpc(x))
    best = mpmath.mpf(0)
    power = mpmath.mpf(1)
    for c in coeffs:
        term = abs(to_mpc(c)) * power
        if term > best:
            best = term
        power *= ax
    return best
