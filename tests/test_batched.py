"""The branch solver: every value certified by its inclusion disc, against a
256-bit reference by Newton's steps in mpmath (``trinomial.trinomial_roots``)."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, round_nearest

from chebsys import algebraic
from chebsys.algebraic import (
    SolverDivergence,
    branch_points,
    solve_branches,
    solve_branches_many,
    star_radius,
)
from chebsys.rationals import raw_mpf
from chebsys.recurrence import Params
from trinomial import double_root, trinomial_roots


def cells(bs):
    """What the CLI writes of a branch set, as 17-digit strings, and the tie flag."""
    out = []
    for lam in bs.lambdas:
        lam = complex(lam)
        out += [f"{lam.real:.17g}", f"{lam.imag:.17g}"]
    out += [f"{float(mod):.17g}" for mod in bs.moduli]
    return out, bs.tie_flag


def refined(p, z, precision=53):
    """Whether the point z fails the disc rule after the polish, and is refined."""
    calls = []
    refine = algebraic._refine
    try:
        algebraic._refine = lambda *args: calls.append(1) or refine(*args)
        solve_branches(p, z, precision)
    finally:
        algebraic._refine = refine
    return bool(calls)


def box(rng, a, far):
    """Random points in a box crossing the stars, or far out (|z| up to about 1e3)."""
    if far:
        rho = min(1e3, a * 10 ** rng.uniform(1.0, 2.5))
        center = cmath.rect(rho, rng.uniform(0, 2 * math.pi))
        half = 0.2 * rho
    else:
        center = complex(a * rng.uniform(-0.3, 0.3), a * rng.uniform(-0.3, 0.3))
        half = a * rng.uniform(0.8, 2.5)
    return [
        center + complex(rng.uniform(-half, half), rng.uniform(-half, half))
        for _ in range(40)
    ]


def reference(p, z, bits=256):
    """The roots of ``c*w**(m+1) - z*w + 1`` by Newton's steps in mpmath at
    ``bits``, from the trinomial's roots in doubles where they exist."""
    return trinomial_roots(p.m, p.c, z, bits)


def exact(part):
    """A kernel value ``(re, re_exp, im, im_exp)`` as two Fractions."""
    re, ere, im, eim = part
    return Fraction(re) * Fraction(2) ** ere, Fraction(im) * Fraction(2) ** eim


def disc_radius(p, z, part):
    """``(m+1)*|p(w)|/|p'(w)|`` at the value of one part, from its Fractions,
    as an mpmath value at the current precision."""
    wr, wi = exact(part)
    zr, zi = Fraction(z.real), Fraction(z.imag)
    pr, pi = Fraction(1), Fraction(0)  # w**m
    for _ in range(p.m):
        pr, pi = pr * wr - pi * wi, pr * wi + pi * wr
    qr, qi = pr * wr - pi * wi, pr * wi + pi * wr  # w**(m+1)
    value = (p.c * qr - (zr * wr - zi * wi) + 1, p.c * qi - (zr * wi + zi * wr))
    slope = (p.c * (p.m + 1) * pr - zr, p.c * (p.m + 1) * pi - zi)

    def norm(x):
        square = x[0] ** 2 + x[1] ** 2
        return mpmath.sqrt(mpmath.mpf(square.numerator) / square.denominator)

    return (p.m + 1) * norm(value) / norm(slope)


def assert_certified(p, z, bs, bits=256):
    """Each value lies within its disc radius of a root of the 256-bit
    reference, each radius is at most 2**-(precision+16) of its value, and
    no two values take the same root.  Where the discriminant vanishes,
    ``m**m * z**(m+1) = (m+1)**(m+1) * c``, two values are instead the
    double root ``(m+1)/(m*z)`` rounded to the working bits."""
    parts = list(bs.parts)
    double = double_root(p.m, p.c, z)
    if double is not None:
        tolerance = Fraction(2) ** (1 - algebraic._work_bits(bs.precision, p.m, z))
        near = [
            part for part in parts
            if all(abs(x - y) <= tolerance * abs(y) for x, y in zip(exact(part), double))
        ]
        assert len(near) == 2 and near[0] == near[1], z
        parts = [part for part in parts if part not in near]
    refs = reference(p, z, bits)
    with mpmath.workprec(bits + 64):
        taken = set()
        for part in parts:
            w = mpmath.mp.make_mpc((raw_mpf(*part[:2]), raw_mpf(*part[2:])))
            radius = disc_radius(p, z, part)
            assert radius <= mpmath.ldexp(abs(w), -(bs.precision + 16)), (z, part)
            k = min(range(len(refs)), key=lambda i: abs(refs[i] - w))
            assert abs(refs[k] - w) <= radius + mpmath.ldexp(abs(refs[k]), 16 - bits), (z, part)
            taken.add(k)
        assert len(taken) == len(parts), z


def reference_tie(p, z) -> bool:
    """The tie rule on the moduli of the 256-bit reference, rounded to doubles."""
    moduli = sorted(float(abs(root)) for root in reference(p, z))
    return any(hi - lo < algebraic.TIE_RELATIVE_GAP * max(hi, 1e-300) for lo, hi in zip(moduli, moduli[1:]))


@pytest.mark.parametrize(
    "m, c", [(1, "37/91"), (2, "640/17"), (3, "5/23"), (4, "118/7")]
)
@pytest.mark.parametrize("far", [False, True])
def test_matches_aberth_on_seeded_grids(m, c, far):
    p = Params(m, c)
    rng = random.Random(f"{m}:{c}:{far}")
    points = box(rng, star_radius(p), far)
    results = solve_branches_many(p, points)
    assert len(results) == len(points)
    assert sum(refined(p, z) for z in points) <= 2
    for z, bs in zip(points, results):
        assert bs.z == z
        assert_certified(p, z, bs)
        assert bs.tie_flag == reference_tie(p, z)


def job_box(rng, m):
    """The points of a grid shaped as the benchmark's grid jobs draw them: c
    of one digit over one digit, a box around the origin that crosses the
    stars, or one at 10 to 300 star radii."""
    c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    a = star_radius(Params(m, c))
    if rng.random() < 0.5:
        rho, angle = a * 10 ** rng.uniform(1.0, 2.5), rng.uniform(0, 2 * math.pi)
        half, center = rho * rng.uniform(0.05, 0.3), cmath.rect(rho, angle)
    else:
        half, center = a * rng.uniform(0.8, 2.5), a * complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
    n_re = rng.randint(10, 20)
    n_im = max(2, round({1: 240, 2: 190, 3: 135, 4: 100}[m] / n_re))
    res = [center.real - half + 2 * half * k / (n_re - 1) for k in range(n_re)]
    ims = [center.imag - half + 2 * half * k / (n_im - 1) for k in range(n_im)]
    return Params(m, c), [complex(re, im) for im in ims for re in res]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_one_polish_step_certifies_every_grid_point(m):
    # the one Newton step from each seed leaves every value within the disc
    # rule at 53 bits, on the seeded grids and on boxes shaped as the grid
    # jobs: no point is refined
    c = {1: "37/91", 2: "640/17", 3: "5/23", 4: "118/7"}[m]
    p = Params(m, c)
    grids = [(p, box(random.Random(f"{m}:{c}:{far}"), star_radius(p), far)) for far in (False, True)]
    rng = random.Random(f"jobs:{m}")
    grids += [job_box(rng, m) for _ in range(8)]
    assert not any(refined(p, z) for p, points in grids for z in points)


@pytest.mark.parametrize("precision", [128, 400, 800, 1600])
def test_the_exact_steps_above_53_bits_certify_every_point(precision):
    # the steps above 53 bits, their widths halved down from the target,
    # leave every value within the disc rule: no point is refined
    for m, c in [(1, "37/91"), (2, "640/17"), (3, "5/23"), (4, "118/7")]:
        p = Params(m, c)
        for far in (False, True):
            points = box(random.Random(f"{m}:{c}:{far}:{precision}"), star_radius(p), far)
            assert not any(refined(p, z, precision) for z in points)


def test_branch_point_falls_back_and_ties():
    # the exact branch point fails the disc rule, and the refinement proves
    # it a double root by its discriminant: w = (m+1)/(m*z) = 1, twice
    p = Params(1, "1")
    assert refined(p, 2)
    bs = solve_branches_many(p, [2])[0]
    assert bs.tie_flag
    assert bs.values == (1, 1) and bs.residuals == (0.0, 0.0)


def test_equal_moduli_fall_back_and_tie():
    # at the real tip of m = 2 two branches are a conjugate pair whose discs
    # meet after the polish: the refinement splits them off the real axis,
    # and their equal moduli tie
    p = Params(2, "1")
    tip = max(branch_points(p), key=lambda z: z.real)
    tied, apart = solve_branches_many(p, [tip, 3])
    assert refined(p, tip) and not refined(p, 3)
    assert tied.tie_flag
    assert not apart.tie_flag
    # for |z| < 2 on the real axis of m = 1 the pair's discs are disjoint
    # at once, and the tie is the same
    p = Params(1, "1")
    pair = solve_branches(p, 1)
    assert not refined(p, 1) and pair.tie_flag
    assert pair.values[0] == pair.values[1].conjugate() and pair.values[0].imag < 0


def mixed_points():
    # points around a tie (z = 1 lies on the bounded segment of c = 1/2,
    # where the two moduli are equal), a point that is not a double and one
    # whose z/c overflows a double
    with mpmath.workprec(120):
        exact = mpmath.mpc(1) / 3 + mpmath.mpc(0, 1)
    return [complex(3, 0.5), 1, complex(-1, 2), exact, complex(1e308, 0), complex(0.5, -4)]


def test_mixed_points_keep_their_input_order():
    p = Params(1, "1/2")
    points = mixed_points()
    results = solve_branches_many(p, points)
    assert [bs.z for bs in results] == [complex(z) for z in points]
    # the Newton polygon's seeds of the last but one are refined on the kernel
    assert [refined(p, z) for z in points] == [False] * 4 + [True, False]
    assert [bs.tie_flag for bs in results] == [False, True, False, False, False, False]
    for z, bs in zip(points, results):
        if complex(z) == z:
            assert_certified(p, complex(z), bs)


@pytest.mark.parametrize("precision", [53, 128])
def test_fallback_values_are_those_of_their_mpmath_roots(precision):
    # the points the refinement solves, at the tips of the star: each value
    # is certified against the mpmath roots, and the conjugate pair at the
    # real tip of m = 2 is split off the real axis
    p = Params(2, "1")
    tips = branch_points(p)
    assert all(refined(p, z, precision) for z in tips)
    for z, bs in zip(tips, solve_branches_many(p, tips, precision)):
        assert_certified(p, z, bs)
    low, high, _ = solve_branches(p, max(tips, key=lambda z: z.real), precision).values
    assert low == high.conjugate() and high.imag == pytest.approx(4.9e-9, rel=0.01)


@pytest.mark.parametrize("bad", ["inf", "nan", "infj"])
def test_seeds_that_are_not_finite_give_way_to_the_polygon(monkeypatch, bad):
    # the Newton polygon's seeds on the kernel replace seeds in doubles that
    # are not finite, and the point is solved as before
    root = complex(bad)
    p = Params(2, "1")
    want = solve_branches(p, complex(3, 1))
    monkeypatch.setattr(algebraic, "_trinomial_seeds", lambda *args: [root, 1, 2])
    got = solve_branches(p, complex(3, 1))
    assert cells(got) == cells(want)
    assert_certified(p, complex(3, 1), got)


def test_above_53_bits_points_run_on_the_kernel():
    # the exact Newton steps carry each value to the working bits: it agrees
    # with the mpmath reference at 64 more bits to within its last working bit
    p = Params(3, "5/2")
    points = [complex(1.3, 0.4), complex(-2.2, 1.9)]
    for precision in (80, 400, 1200):
        results = solve_branches_many(p, points, precision)
        assert not any(refined(p, z, precision) for z in points)
        for z, bs in zip(points, results):
            bits = algebraic._work_bits(precision, p.m, z)
            ref = sorted(reference(p, z, precision + 64), key=lambda l: (abs(l), mpmath.arg(l)))
            assert bs.values == tuple(complex(l) for l in ref)
            with mpmath.workprec(bits + 64):
                for got, want in zip(bs.lambdas, ref):
                    assert abs(got - want) <= mpmath.ldexp(abs(want), 1 - bits)


@pytest.mark.parametrize("m, c", [(1, "3/7"), (2, "7/3"), (3, "5/2"), (4, "9/8")])
@pytest.mark.parametrize("far", [False, True])
def test_kernel_values_are_the_mpmath_values_rounded(monkeypatch, m, c, far):
    # every branch: each part is a fixed-point value rounded once to the
    # working bits as mpmath rounds it, its values and moduli are complex(l)
    # and float(abs(l)) of that mpmath value l, and its lambdas are those
    # values themselves
    rounded = {}
    kernel = algebraic.round_man_exp

    def record(man, exp, prec):
        got = kernel(man, exp, prec)
        want = from_man_exp(man, exp, prec, round_nearest)
        assert raw_mpf(*got) == want
        rounded[got] = want
        return got

    monkeypatch.setattr(algebraic, "round_man_exp", record)
    p = Params(m, c)
    points = box(random.Random(f"kernel:{m}:{far}"), star_radius(p), far)
    for bs in solve_branches_many(p, points):
        want = [
            mpmath.mp.make_mpc((rounded[re, ere], rounded[im, eim]))
            for re, ere, im, eim in bs.parts
        ]
        assert bs.values == tuple(complex(l) for l in want)
        assert bs.moduli == tuple(float(abs(l)) for l in want)
        assert all(a._mpc_ == b._mpc_ for a, b in zip(bs.lambdas, want))


def exact_residual(p, z, part):
    """``|c*l**(m+1) - z*l + 1|`` in Fractions at the value l of one part."""
    lr, li = exact(part)
    zr, zi = Fraction(z.real), Fraction(z.imag)
    pr, pi = Fraction(1), Fraction(0)
    for _ in range(p.m + 1):
        pr, pi = pr * lr - pi * li, pr * li + pi * lr
    return math.hypot(
        float(p.c * pr - (zr * lr - zi * li) + 1), float(p.c * pi - (zr * li + zi * lr))
    )


@pytest.mark.parametrize("m, c", [(1, "37/91"), (2, "640/17"), (3, "5/23"), (4, "118/7")])
@pytest.mark.parametrize("far", [False, True])
def test_residuals_are_the_exact_residuals_of_the_written_values(m, c, far):
    p = Params(m, c)
    points = box(random.Random(f"residual:{m}:{far}"), star_radius(p), far)
    for z, bs in zip(points, solve_branches_many(p, points)):
        for part, residual in zip(bs.parts, bs.residuals):
            assert residual == pytest.approx(exact_residual(p, z, part), rel=1e-3, abs=0)


@pytest.mark.parametrize("m, c", [(1, "3/7"), (2, "640/17"), (3, "5/23"), (4, "9/8")])
@pytest.mark.parametrize("far", [False, True])
def test_fast_path_values_match_aberth_at_256_bits(m, c, far):
    p = Params(m, c)
    points = box(random.Random(f"aberth256:{m}:{far}"), star_radius(p), far)
    with mpmath.workprec(256):
        for z, bs in zip(points, solve_branches_many(p, points)):
            ref = sorted(reference(p, z), key=lambda l: (abs(l), mpmath.arg(l)))
            for got, want in zip(bs.lambdas, ref):
                assert abs(got - want) <= mpmath.ldexp(abs(want), -100), z


def test_batched_lambdas_carry_more_than_double():
    bs = solve_branches(Params(1, "1"), complex(3, 0.5))
    assert any(complex(lam) != lam for lam in bs.lambdas)
    assert max(bs.residuals) <= 1e-25


def test_divergence_is_returned_for_its_point(monkeypatch):
    # with Aberth sweeps that move nothing, the split pair at the real tip
    # of m = 2 stays unresolved up to the widest width; the divergence is
    # the result of its point and names that width
    p = Params(2, "1")
    tip = max(branch_points(p), key=lambda z: z.real)
    monkeypatch.setattr(algebraic, "_sweep", lambda *args: False)
    results = solve_branches_many(p, [tip, 3])
    assert isinstance(results[0], SolverDivergence)
    assert str(results[0]).startswith(f"branch values not certified at {16 * 112} bits")
    assert not isinstance(results[1], SolverDivergence)
    with pytest.raises(SolverDivergence):
        solve_branches(p, tip)


def test_residual_gate_sends_points_to_aberth(monkeypatch):
    # a point whose radius bound fails after the polish goes to the Aberth
    # sweeps on the kernel, which certify it
    sweeps = []
    sweep = algebraic._sweep
    monkeypatch.setattr(algebraic, "_sweep", lambda *args: sweeps.append(1) or sweep(*args))
    p = Params(3, "1")
    for z in branch_points(p):
        assert_certified(p, z, solve_branches(p, z))
    assert sweeps
    sweeps.clear()
    solve_branches(p, complex(3, 0.5))
    assert not sweeps


def below(a, ea, b, eb) -> bool:
    return Fraction(a) * Fraction(2) ** ea < Fraction(b) * Fraction(2) ** eb


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**90), st.integers(-1300, 300), st.integers(1, 2**90), st.integers(-1300, 300),
    st.integers(1, 2**64),
)
def test_the_gate_below_a_double_is_compared_exactly(a, ea, b, eb, den):
    # the disc rule compares in integers, also where its bound
    # 2**-(precision+16) lies below the range of a double, and bounds a
    # radius sqrt(b/den * 4**eb) from above to within 2**-28 of it
    assert algebraic._below(a, ea, b, eb) == below(a, ea, b, eb)
    assert not algebraic._below(a, ea, a, ea)
    s, k = algebraic._radius(b, den, eb)
    square = Fraction(b, den) * Fraction(4) ** eb
    bound = Fraction(s) * Fraction(2) ** k
    assert square <= bound**2 <= square * (1 + Fraction(1, 2**28))


# ---- the certificate oracle


def tips():
    """The rounded branch points: m = 1..5, five values of c, at 53 and 128 bits."""
    for m in range(1, 6):
        for c in ("1", "3/7", "7/3", "640/17", "1/2"):
            for z in branch_points(Params(m, c)):
                yield m, c, z


@pytest.mark.parametrize("precision", [53, 128])
def test_every_value_at_the_rounded_tips_lies_in_its_disc(precision):
    doubles = 0
    for m, c, z in tips():
        p = Params(m, c)
        assert refined(p, z, precision)
        bs = solve_branches(p, z, precision)
        assert_certified(p, z, bs)
        doubles += len(set(bs.parts)) == m
    assert doubles == 3  # three of the hundred tips are exact branch points


@pytest.mark.parametrize(
    "m, c, z", [(1, "1", 2), (1, "1", -2), (2, "4", 3), (3, "27/16", 2j), (1, "1/4", 1), (3, "27", 4)]
)
def test_exact_tips_are_written_as_their_double_root(m, c, z):
    # w = (m+1)/(m*z) twice, rounded to the working bits, with a tie, and
    # every other value in its disc
    p = Params(m, c)
    assert refined(p, z)
    bs = solve_branches(p, z)
    assert bs.tie_flag
    assert_certified(p, complex(z), bs)
    assert len(set(bs.parts)) == m


@pytest.mark.parametrize("m, c", [(1, "1"), (2, "1"), (3, "7/3"), (4, "1/2")])
def test_real_axis_grids_are_certified_with_the_reference_ties(m, c):
    p = Params(m, c)
    a = star_radius(p)
    points = [complex(x * a / 8, 0) for x in range(-24, 25)]
    for z, bs in zip(points, solve_branches_many(p, points)):
        assert_certified(p, z, bs)
        if min(abs(z - tip) for tip in branch_points(p)) > 1e-3 * a:
            assert bs.tie_flag == reference_tie(p, z), z


@pytest.mark.parametrize(
    "c", [Fraction(1, 10**305), Fraction(10**305), Fraction(1, 10**400), Fraction(10**400),
          Fraction(7, 3 * 10**350)],
)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_extreme_c_is_solved_by_scaling(m, c):
    # w = 2**-s * v turns the trinomial into one whose leading coefficient
    # is near 1; the values are certified for c itself
    p = Params(m, c)
    for z in (complex(0.5, 0.5), complex(3, 0), complex(-2, 1), complex(1e10, 3)):
        bs = solve_branches(p, z)
        assert_certified(p, z, bs)
