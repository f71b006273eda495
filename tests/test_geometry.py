"""The exact star geometry against the mpmath geometry it replaced.

``star_radius`` was the 80-bit ``mpmath.root`` of m*c, and ``branch_points``
came from an 80-bit solve of the critical-point system; the reference below
takes the same radius, and the critical points in closed form at 80 bits.
On a seeded sample the exact versions must give the same doubles, except
that a component that is exactly zero reads 0.0 where mpmath left noise;
next to a half-way point they round correctly where the 80-bit radius did
not.
"""

import cmath
import json
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from test_cli_outputs import assert_pinned

from chebsys import algebraic
from chebsys.algebraic import branch_points, star_radius
from chebsys.cli import main
from chebsys.rationals import as_rational, rat_to_mpf
from chebsys.recurrence import Params

# ---------------------------------------------------------------- references


def mpmath_star_radius(p):
    m = p.m
    with mpmath.workprec(80):
        mc = rat_to_mpf(as_rational(m) * p.c)
        return float(mpmath.mpf(m + 1) / m * mpmath.root(mc, m + 1))


def mpmath_branch_points(p, precision=80):
    m, c = p.m, p.c
    with mpmath.workprec(precision + 32):
        # the critical points of the trinomial in closed form, w**(m+1) = 1/(c*m)
        cm = rat_to_mpf(as_rational(m) * c)
        crit = [mpmath.root(1 / cm, m + 1, k) for k in range(m + 1)]
        cmpf = rat_to_mpf(c)
        return [complex(cmpf * (m + 1) * w**m) for w in crit]


def seeded_params(count, seed):
    """(m, c) with m = 1..8 and c = P/Q spread over 1e-300 .. 1e300."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.randint(1, 8)
        mantissa = Fraction(rng.randint(10**5, 10**6), rng.randint(10**5, 10**6))
        out.append(Params(m, mantissa * Fraction(10) ** rng.randint(-300, 299)))
    return out


def tip_index(w, n):
    return round(math.atan2(w.imag, w.real) * n / (2 * math.pi)) % n


# ---------------------------------------------------------------- the geometry


@pytest.mark.parametrize("seed", range(4))
def test_radius_and_tips_match_the_mpmath_geometry(seed):
    zeros = 0
    for p in seeded_params(260, seed):
        n = p.m + 1
        a = star_radius(p)
        assert a == mpmath_star_radius(p), p
        tips = branch_points(p)
        reference = {tip_index(w, n): w for w in mpmath_branch_points(p)}
        assert sorted(map(lambda w: tip_index(w, n), tips)) == list(range(n))
        for w in tips:
            k = tip_index(w, n)
            for got, want, zero in (
                (w.real, reference[k].real, 4 * k % n == 0 and 4 * k // n % 2 == 1),
                (w.imag, reference[k].imag, 2 * k % n == 0),
            ):
                if zero:
                    # exactly zero, where the solve left noise far below a
                    assert got == 0.0 and math.copysign(1.0, got) == 1.0
                    assert abs(want) < 1e-30 * a
                    zeros += 1
                else:
                    assert got == want, (p, k)
    assert zeros > 260


@pytest.mark.parametrize("seed", range(4))
def test_the_radius_bracket_lies_on_the_discriminant(seed):
    # m**m * z**(m+1) = (m+1)**(m+1) * c on the tips, where z**(m+1) = a**(m+1):
    # the fixed-point radius A * 2**e brackets its root exactly
    for p in seeded_params(260, seed):
        m, n = p.m, p.m + 1
        man, e = algebraic._radius_fixed(p)
        scale = Fraction(2) ** (e * n)
        target = (m + 1) ** n * p.c
        assert m**m * man**n * scale <= target < m**m * (man + 1) ** n * scale
        assert man.bit_length() > algebraic._STAR_BITS


def test_radius_is_exact_where_a_is_a_double():
    # a = 2*sqrt(c) for m = 1, and (3/2) * (2c)**(1/3) for m = 2
    assert star_radius(Params(1, "1")) == 2.0
    assert star_radius(Params(1, "9/4")) == 3.0
    assert star_radius(Params(2, "4")) == 3.0
    assert branch_points(Params(1, "1")) == [complex(2, 0), complex(-2, 0)]


def test_radius_rounds_correctly_next_to_a_half_way_point():
    # a = 2*sqrt(c) = 1 + 2**-53 + d lies on, just above or just below the
    # half-way point between 1 and the next double; 2**-140 is below the
    # fixed-point bracket, so only its exactness flag tells the cases apart
    # (the 80-bit mpmath radius rounded the first one down as well)
    half = 1 + Fraction(1, 2**53)
    for d, a in ((Fraction(1, 2**140), 1 + 2.0**-52), (0, 1.0), (-Fraction(1, 2**140), 1.0)):
        p = Params(1, (half + d) ** 2 / 4)
        assert star_radius(p) == a
        assert branch_points(p) == [complex(a, 0.0), complex(-a, 0.0)]


def test_unit_roots_are_mirrored_exactly():
    for n in range(2, 13):
        roots = algebraic._unit_roots(n)
        for k in range(1, n):
            cos, sin = roots[k]
            assert roots[n - k] == (cos, -sin)
        assert roots[0] == (1 << algebraic._STAR_BITS, 0)
        assert sum(cos == 0 for cos, _ in roots) == (2 if n % 4 == 0 else 0)
        assert sum(sin == 0 for _, sin in roots) == (2 if n % 2 == 0 else 1)


def test_odd_m_puts_the_negative_tip_at_angle_pi():
    # for m = 3, -a sorts last at its exact angle pi; the solve's noise put
    # it first or last by the sign of its imaginary part
    a = star_radius(Params(3, "7/3"))
    assert branch_points(Params(3, "7/3")) == [
        complex(0.0, -a), complex(a, 0.0), complex(0.0, a), complex(-a, 0.0)
    ]


def test_odd_m_branches_output_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["branches", "--m", "3", "--c", "7/3", "--grid=-3:3:3,-2:2:2", "--out", "odd.json"]
    assert main(argv) == 0
    geometry = json.loads((tmp_path / "odd.json").read_bytes())["geometry"]
    a = geometry["a"]
    assert geometry["branch_points"] == [[0.0, -a], [a, 0.0], [0.0, a], [-a, 0.0]]
    assert_pinned(tmp_path, "odd.json")


# ---------------------------------------------------------------- star distances


def angle_ray_distance(z, angle):
    """The distance to a ray as it was computed: one rotation per call."""
    u = complex(z) * cmath.exp(-1j * angle)
    return abs(u.imag) if u.real >= 0 else abs(u)


def angle_segment_distance(z, angle, length):
    u = complex(z) * cmath.exp(-1j * angle)
    return abs(u - min(max(u.real, 0.0), length))


@pytest.mark.parametrize("seed", range(3))
def test_star_distances_from_cached_rotations_are_the_per_angle_ones(seed):
    rng = random.Random(seed)
    for m in range(1, 9):
        p = Params(m, Fraction(rng.randint(1, 999), rng.randint(1, 999)))
        geom = algebraic.star_geometry(p)
        points = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) * geom.a for _ in range(40)]
        points += [cmath.rect(geom.a * rng.uniform(0, 3), angle) for angle in geom.even_angles]
        points += [0j, *branch_points(p)]
        for z in points:
            region = algebraic.region_classify(p, z)
            # the bounded star's segments lie along the odd angles, and the
            # attractor star is the family its parity names
            assert region.dist_s0 == min(angle_segment_distance(z, a, geom.a) for a in geom.odd_angles)
            assert region.dist_even_star == min(angle_ray_distance(z, a) for a in geom.even_angles)
            assert region.dist_odd_star == min(angle_ray_distance(z, a) for a in geom.odd_angles)
            angles = geom.even_angles if geom.attractor == "even" else geom.odd_angles
            attractor = min(angle_ray_distance(z, a) for a in angles)
            assert region.omega[-1] == (attractor >= 1e-9)


# ---------------------------------------------------------------- one distance
#
# one function measures the distance to a family of segments and, at length
# inf, of rays; these are the two functions it replaced, as they were


def ray_family_distance(z, rotations):
    z = complex(z)
    best = math.inf
    for rotation in rotations:
        u = z * rotation
        best = min(best, abs(u.imag) if u.real >= 0 else abs(u))
    return best


def segment_family_distance(z, rotations, length):
    z = complex(z)
    best = math.inf
    for rotation in rotations:
        u = z * rotation
        best = min(best, abs(u - min(max(u.real, 0.0), length)))
    return best


def extreme_points() -> list:
    """Points at the ends of the double range: signed zeros, the least
    subnormal, the corner where products overflow, and their mixtures."""
    parts = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1.7e308, -1.7e308, sys.float_info.max]
    return [complex(x, y) for x in parts for y in parts]


def sampled_points(rng, geom) -> list:
    """Points over the whole double range, and points near the stars."""
    points = [
        complex(
            rng.choice((-1, 1)) * math.ldexp(rng.random(), rng.randint(-1074, 1024)),
            rng.choice((-1, 1)) * math.ldexp(rng.random(), rng.randint(-1074, 1024)),
        )
        for _ in range(150)
    ]
    for angle in geom.even_angles + geom.odd_angles:
        points.append(cmath.rect(geom.a * rng.uniform(0, 3), angle))
        points.append(cmath.rect(geom.a * rng.uniform(0, 3), angle) * (1 + 1e-12j))
        points.append(cmath.rect(geom.a, angle))
    return points


def outcome(distance, *args) -> str:
    """The distance bit for bit, as repr tells -0.0 from 0.0 and reads back
    exactly, or the error: ``abs`` of a rotated point of modulus beyond the
    doubles raises OverflowError, in both old functions alike."""
    try:
        return repr(distance(*args))
    except OverflowError:
        return "OverflowError"


@pytest.mark.parametrize("seed", range(3))
def test_one_distance_is_both_old_ones_bit_for_bit(seed):
    rng = random.Random(seed)
    compared = 0
    for m in range(1, 7):
        for c in ("1", "3/7", Fraction(1, 10**300), 10**300):
            geom = algebraic.star_geometry(Params(m, c))
            for z in sampled_points(rng, geom) + extreme_points():
                for rotations in (geom.even_rotations, geom.odd_rotations):
                    new = outcome(algebraic.segment_family_distance, z, rotations, math.inf)
                    assert new == outcome(ray_family_distance, z, rotations), (m, c, z)
                    new = outcome(algebraic.segment_family_distance, z, rotations, geom.a)
                    assert new == outcome(segment_family_distance, z, rotations, geom.a), (m, c, z)
                    compared += 2
    assert compared > 10000


@pytest.mark.parametrize("m, ray", [(3, 1.99584030953472e292), (4, 1.0914671872643506e308)])
def test_a_ray_is_a_segment_of_infinite_length_where_products_overflow(m, ray):
    # along the even rays at this corner a rotated point has an infinite
    # real part: the old segment rule at length inf subtracted inf from it,
    # where the ray rule, and the one distance, read a finite distance
    geom = algebraic.star_geometry(Params(m, 1))
    z = complex(-1.7e308, 1.7e308)
    assert ray_family_distance(z, geom.even_rotations) == ray
    assert algebraic.segment_family_distance(z, geom.even_rotations, math.inf) == ray
    assert segment_family_distance(z, geom.even_rotations, math.inf) != ray
    for rotations in (geom.even_rotations, geom.odd_rotations):
        new = outcome(algebraic.segment_family_distance, z, rotations, math.inf)
        assert new == outcome(ray_family_distance, z, rotations)
