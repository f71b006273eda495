"""Seeds without numpy: the branch trinomial solved in plain doubles, and the
companion-matrix seeds it replaces, kept here as the reference.  Both start
the same Newton's steps in mpmath (``trinomial.trinomial_roots``) at the
branch solver's working bits, which take the leading-order roots, on the
Newton polygon's circles, where the seeds do not exist."""

import cmath
import math
import random
from collections import namedtuple
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from chebsys import algebraic
from chebsys.recurrence import Params
from trinomial import trinomial_roots

Solved = namedtuple("Solved", "values tie_flag residuals relative")


def solve(p, z, precision, seeds):
    """The roots of ``c*w**(m+1) - z*w + 1`` by Newton's steps at the branch
    solver's working bits from ``seeds``, sorted by modulus and then
    argument: their values, the tie rule, their absolute residuals, and the
    largest residual relative to the largest of 1, ``|c*w**(m+1)|`` and
    ``|z*w|``."""
    m, workbits = p.m, algebraic._work_bits(precision, p.m, z)
    roots = trinomial_roots(m, p.c, z, workbits - 16, seeds)
    with mpmath.workprec(workbits):
        zz, c = mpmath.mpc(z), mpmath.mpf(p.c.numerator) / p.c.denominator
        roots.sort(key=lambda l: (abs(l), mpmath.arg(l)))
        moduli = [abs(l) for l in roots]
        tie = any(hi - lo < algebraic.TIE_RELATIVE_GAP * max(hi, 1e-300) for lo, hi in zip(moduli, moduli[1:]))
        residuals = [c * l ** (m + 1) - zz * l + 1 for l in roots]
        relative = max(
            abs(r) / max(1, abs(c * l ** (m + 1)), abs(zz * l)) for r, l in zip(residuals, roots)
        )
        return Solved(tuple(map(complex, roots)), tie, tuple(float(abs(r)) for r in residuals), relative)


def gate(precision):
    """The relative residual a solve at ``precision`` bits reaches."""
    return mpmath.mpf(10) ** (2 - 0.3 * precision)


def companion_seeds(m, c, z) -> list:
    """numpy's companion eigenvalues of ``c*w**(m+1) - z*w + 1``, normalized
    by its largest coefficient, in double precision, or none where a root
    overflows, which leaves the solve to the leading-order roots."""
    cs = [1, -complex(z)] + [0] * (m - 1) + [float(c)]
    scale = max(map(abs, cs))
    try:
        with np.errstate(all="ignore"):
            return [complex(s) for s in np.roots([a / scale for a in reversed(cs)])]
    except np.linalg.LinAlgError:
        return []


def trinomial_seeded(p, z, precision):
    """The solve seeded with the trinomial's roots in doubles."""
    return solve(p, z, precision, algebraic._trinomial_seeds(p.m, p.c, z))


def companion_seeded(p, z, precision):
    """The same solve seeded with numpy's companion eigenvalues, as before."""
    return solve(p, z, precision, companion_seeds(p.m, p.c, z))


def seeded_points(rng):
    """Points off the stars, at moduli from 1e-3 to 1e300."""
    points = [cmath.rect(10 ** rng.uniform(-3, 3), rng.uniform(0, 2 * math.pi)) for _ in range(4)]
    points += [cmath.rect(10 ** rng.uniform(100, 300), rng.uniform(0, 2 * math.pi))]
    return points + [cmath.rect(1e300, 0.3)]


def star_points(p):
    """z = 0, where all moduli tie, the branch points, and points on each star."""
    geom = algebraic.star_geometry(p)
    points = [0j, *algebraic.branch_points(p)]
    points.append(cmath.rect(geom.a / 2, geom.odd_angles[0]))
    attractor = geom.even_angles if geom.attractor == "even" else geom.odd_angles
    points.append(cmath.rect(2 * geom.a, attractor[-1]))
    return points


def denoised(bs, precision):
    """``complex()`` of each branch with any part below the requested precision
    relative to the branch set to 0, sorted: the branches up to the noise and
    the order of exactly tied moduli.  At a double root (a branch point) the
    solve is accurate to about half its working bits, which is still more
    than the requested precision."""
    floor = 2.0 ** -precision
    out = []
    for v in bs.values:
        size = abs(v)
        out.append(complex(v.real if abs(v.real) > floor * size else 0.0,
                           v.imag if abs(v.imag) > floor * size else 0.0))
    return sorted(out, key=lambda v: (v.real, v.imag))


CASES = [(m, c) for m in range(1, 7) for c in ("1", "7/3", "2/97")]


@pytest.mark.parametrize("precision", [53, 200])
@pytest.mark.parametrize("m, c", CASES)
def test_trinomial_seeds_give_the_companion_seeded_branches(m, c, precision):
    p = Params(m, c)
    rng = random.Random(f"{m}:{c}:{precision}")
    for z in seeded_points(rng):
        seeds = algebraic._trinomial_seeds(m, p.c, z)
        assert len(seeds) == m + 1 and all(map(cmath.isfinite, seeds)), z
        got, ref = trinomial_seeded(p, z, precision), companion_seeded(p, z, precision)
        assert got.values == ref.values, z
        assert got.tie_flag == ref.tie_flag, z
        assert got.relative <= gate(precision) and ref.relative <= gate(precision)


@pytest.mark.parametrize("m, c", CASES)
def test_tied_and_star_points_differ_only_in_noise_and_tie_order(m, c):
    p = Params(m, c)
    for z in star_points(p):
        got, ref = trinomial_seeded(p, z, 53), companion_seeded(p, z, 53)
        assert denoised(got, 53) == denoised(ref, 53), z
        assert got.tie_flag == ref.tie_flag, z
        assert got.relative <= gate(53) and ref.relative <= gate(53)


@pytest.mark.parametrize("z", [1e300, cmath.rect(3e299, 2.0)])
def test_a_root_beyond_a_double_takes_the_circle_seeds(z):
    # for m = 1 the large root is about z/c, here beyond the range of a
    # double; neither kind of seeds exists, and both solves start from the
    # leading-order roots 1/z and z/c, on the Newton polygon's circles, at
    # the working precision
    p = Params(1, Fraction(1, 10**20))
    assert algebraic._trinomial_seeds(1, p.c, z) == []
    assert companion_seeds(1, p.c, z) == []
    got = trinomial_seeded(p, z, 53)
    ref = companion_seeded(p, z, 53)
    # the residual is relative to the trinomial's terms, about |z|**2/c
    # here, so the non-real z solves as the real one does
    assert got.relative <= gate(53) and ref.relative <= gate(53)
    assert got.values == ref.values and got.residuals == ref.residuals
