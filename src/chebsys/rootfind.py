"""Complex root extraction at a caller-chosen bit precision.

Strategy: seed, then refine all roots simultaneously with Aberth-Ehrlich
iteration evaluated against the original coefficients at the working
precision.  The simultaneous scheme keeps clustered and multiple roots
honest where per-root Newton would stall or double-count.  A caller that
knows its roots approximately passes them as the seeds (the tests' branch
reference passes the trinomial's roots in doubles); otherwise the seeds are
placed on circles from the Newton polygon of the coefficients.  No module of
the package calls it; it is the tests' reference solver, and solves by hand
an h_r the probe finds to be a counterexample (``complex_roots(h.coeffs)``),
on mpmath's operators.
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


def _initial_guesses(cs, seeds=None):
    """The Aberth seeds of the polynomial ``cs``, mpc coefficients at the
    working precision: the caller's ``seeds`` where there is one per root
    and each is finite, otherwise the Newton polygon's.

    The polygon's seeds are Bini's (Numer. Algorithms 13, 1996): each edge
    of the upper convex hull of the points (i, log|c_i|), from i to j, puts
    j - i seeds on the circle of radius |c_i/c_j|**(1/(j-i)), turned by
    2*pi*i/n + 0.7 so that no seed is real and no two circles align.  They
    are computed at the working precision, so a radius beyond the range of
    a double is still one.
    """
    n = len(cs) - 1
    if seeds and len(seeds) == n and all(map(cmath.isfinite, seeds)):
        return [mpmath.mpc(s) for s in seeds]
    hull = []
    for point in [(i, mpmath.log(abs(c))) for i, c in enumerate(cs) if c]:
        # drop the last vertex while it lies on or below the chord to the point
        while len(hull) > 1 and (
            (hull[-1][1] - hull[-2][1]) * (point[0] - hull[-2][0])
            <= (point[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(point)
    guesses = []
    for (i, a), (j, b) in zip(hull, hull[1:]):
        radius = mpmath.exp((a - b) / (j - i))
        guesses += [
            radius * mpmath.expj(2 * mpmath.pi * (k / (j - i) + i / n) + 0.7) for k in range(j - i)
        ]
    return guesses


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
    the origin, which are split off first; without them the seeds come from
    the Newton polygon (see ``_initial_guesses``).
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
            # a loose residual pass before declaring failure, against the
            # local scale sum |c_i| |x|**i of each iterate
            for x in xs:
                p, _, scale = _horner(cs, abs_cs, x, abs(x))
                if not (mpmath.isfinite(x) and abs(p) <= mpmath.mpf(2) ** -(precision // 2) * scale):
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
    step_tol = mpmath.mpf(2) ** -(prec - 7)  # relative: roots far below 1 settle too
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
            if abs(w) <= step_tol * abs(xs[i]):
                done[i] = True
        if all(done):
            return xs, True
    return xs, False
