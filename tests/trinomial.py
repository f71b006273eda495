"""The tests' reference roots of the branch trinomial ``c*w**(m+1) - z*w + 1``,
by Newton's steps in mpmath's own arithmetic.

Each root is refined on its own from one start, at 32 bits above the
asked-for ``bits``, until its step falls to ``2**-(bits+8)`` of its value or
the trinomial's value to ``2**-(bits+24)`` of its largest term.
The starts are the trinomial's roots in doubles (``_trinomial_seeds``), or
where those do not exist the leading-order roots: ``1/z`` and the m roots of
``c*w**m = z`` when ``|z|**(m+1) > c``, otherwise the m+1 roots of
``c*w**(m+1) = -1``, all on the circles of the Newton polygon.  Where the
discriminant vanishes, ``m**m * z**(m+1) = (m+1)**(m+1) * c``, the double
root ``(m+1)/(m*z)`` is exact and is taken twice in place of the two starts
nearest it, since Newton's steps settle a double root only to half the bits.
Two starts within ``2**-16`` of each other lie about a near-double root, where
Newton's steps from both may go to one root, or stay on the real axis when
the pair is not real; they are replaced by ``w* +- sqrt(-2*p(w*)/p''(w*))``
at the critical point w* between them, each good to about the square of the
pair's distance.
"""

import cmath
from fractions import Fraction

import mpmath

from chebsys import algebraic
from chebsys.rationals import rat_to_mpf

MAX_STEPS = 100


def leading_order_roots(m, c, z) -> list:
    """The roots of the trinomial's two dominant terms, at the current precision."""
    if abs(z) ** (m + 1) > c:
        big = mpmath.root(z / c, m)
        return [1 / z] + [big * mpmath.root(1, m, k) for k in range(m)]
    return [mpmath.root(-1 / c, m + 1, k) for k in range(m + 1)]


def paired(m, c, z, starts) -> list:
    """The starts, with each two that lie within 2**-16 of each other replaced
    by the roots of the trinomial's quadratic Taylor polynomial at the
    critical point between them, at the current precision."""
    out = list(starts)
    for i in range(len(out)):
        for j in range(i):
            if abs(out[i] - out[j]) <= mpmath.ldexp(abs(out[i]), -16):
                mid = (out[i] + out[j]) / 2
                crits = [mpmath.root(z / ((m + 1) * c), m, k) for k in range(m)]
                crit = min(crits, key=lambda w: abs(w - mid))
                value = c * crit ** (m + 1) - z * crit + 1
                half = mpmath.sqrt(-2 * value / ((m + 1) * m * c * crit ** (m - 1)))
                out[j], out[i] = crit - half, crit + half
    return out


def double_root(m, c, z):
    """The double root ``(m+1)/(m*z)`` as its real and imaginary Fractions
    where the discriminant of the trinomial at the complex double z
    vanishes, else None."""
    zr, zi = Fraction(z.real), Fraction(z.imag)
    pr, pi = Fraction(1), Fraction(0)
    for _ in range(m + 1):
        pr, pi = pr * zr - pi * zi, pr * zi + pi * zr
    if pi or m**m * pr != (m + 1) ** (m + 1) * c:
        return None
    norm = m * (zr * zr + zi * zi)
    return (m + 1) * zr / norm, -(m + 1) * zi / norm


def trinomial_roots(m, c, z, bits, seeds=None) -> list:
    """The m+1 roots of ``c*w**(m+1) - z*w + 1``, pairwise distinct but at a
    double root, from ``seeds`` (default the trinomial's own in doubles) where
    there is one per root and each is finite.  ``c`` is exact; ``z`` is a
    complex double or an mpmath value, taken at the working precision."""
    c = Fraction(c)
    if seeds is None:
        try:
            seeds = algebraic._trinomial_seeds(m, float(c), complex(z))
        except (OverflowError, ValueError):
            seeds = []
    with mpmath.workprec(bits + 32):
        cc, zz = mpmath.mpf(c.numerator) / c.denominator, mpmath.mpc(z)
        if len(seeds) == m + 1 and all(map(cmath.isfinite, seeds)):
            starts = [mpmath.mpc(s) for s in seeds]
        else:
            starts = leading_order_roots(m, cc, zz)
        found = []
        double = double_root(m, c, complex(z)) if complex(z) == z else None
        if double is not None:
            twice = mpmath.mpc(*map(rat_to_mpf, double))
            starts = sorted(starts, key=lambda w: abs(w - twice))[2:]
            found = [twice, twice]
        starts = paired(m, cc, zz, starts)
        for w in starts:
            for _ in range(MAX_STEPS):
                power = cc
                for _ in range(m):  # not w**m, which mpmath takes by exp and log at many bits
                    power *= w
                value = power * w - zz * w + 1
                if abs(value) <= mpmath.ldexp(abs(power * w) + abs(zz * w) + 1, -(bits + 24)):
                    break  # at the rounding floor of the working bits
                step = value / ((m + 1) * power - zz)
                w -= step
                if abs(step) <= mpmath.ldexp(abs(w), -(bits + 8)):
                    break
            else:
                raise AssertionError(f"Newton's steps did not settle at z = {z}")
            found.append(w)
        simple = found[1:] if double is not None else found
        for i, a in enumerate(simple):
            assert all(abs(a - b) > mpmath.ldexp(abs(a), -bits // 2) for b in simple[:i]), (m, c, z)
    return found
