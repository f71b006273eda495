"""The 53-bit fast branch solver against the per-point mpmath Aberth path."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, round_nearest

from chebsys import algebraic, rootfind
from chebsys.algebraic import (
    SolverDivergence,
    solve_branches,
    solve_branches_aberth,
    solve_branches_many,
    star_radius,
)
from chebsys.rationals import raw_mpf
from chebsys.recurrence import Params
from chebsys.rootfind import RootRefinementError, complex_roots


def cells(bs):
    """What the CLI writes of a branch set, as 17-digit strings, and the tie flag."""
    out = []
    for lam in bs.lambdas:
        lam = complex(lam)
        out += [f"{lam.real:.17g}", f"{lam.imag:.17g}"]
    out += [f"{float(mod):.17g}" for mod in bs.moduli]
    return out, bs.tie_flag


def accepted(p, z, precision=53):
    """Whether the fast path accepts the point z when solved on its own."""
    return solve_branches_many(p, [z], precision).batched == 1


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


@pytest.mark.parametrize(
    "m, c", [(1, "37/91"), (2, "640/17"), (3, "5/23"), (4, "118/7")]
)
@pytest.mark.parametrize("far", [False, True])
def test_matches_aberth_on_seeded_grids(m, c, far):
    p = Params(m, c)
    rng = random.Random(f"{m}:{c}:{far}")
    points = box(rng, star_radius(p), far)
    batch = solve_branches_many(p, points)
    assert batch.batched + batch.fallback == len(points)
    assert batch.batched >= len(points) - 2
    for z, bs in zip(points, batch.results):
        assert bs.z == z
        assert cells(bs) == cells(solve_branches_aberth(p, z, 53))


def test_branch_point_falls_back_and_ties():
    batch = solve_branches_many(Params(1, "1"), [2])
    assert (batch.batched, batch.fallback) == (0, 1)
    assert batch.results[0].tie_flag


def test_equal_moduli_fall_back_and_tie():
    # for |z| < 2 on the real axis the two branches are a conjugate pair
    batch = solve_branches_many(Params(1, "1"), [1, 3])
    assert (batch.batched, batch.fallback) == (1, 1)
    assert batch.results[0].tie_flag
    assert not batch.results[1].tie_flag


def mixed_points():
    # accepted points around a tie (z = 1 lies on the bounded segment of
    # c = 1/2, where the two moduli are equal), a point that is not a double
    # and one whose z/c overflows a double; the last three fall back
    with mpmath.workprec(120):
        exact = mpmath.mpc(1) / 3 + mpmath.mpc(0, 1)
    return [complex(3, 0.5), 1, complex(-1, 2), exact, complex(1e308, 0), complex(0.5, -4)]


def test_mixed_points_keep_their_input_order():
    p = Params(1, "1/2")
    points = mixed_points()
    batch = solve_branches_many(p, points)
    assert (batch.batched, batch.fallback) == (3, 3)
    assert [bs.z for bs in batch.results] == [complex(z) for z in points]
    assert [accepted(p, z) for z in points] == [True, False, True, False, False, True]
    assert [bs.tie_flag for bs in batch.results] == [False, True, False, False, False, False]
    for z, bs in zip(points, batch.results):
        assert cells(bs) == cells(solve_branches_aberth(p, z, 53))


@pytest.mark.parametrize("precision", [53, 128])
def test_fallback_values_are_those_of_their_mpmath_roots(monkeypatch, precision):
    # a point that falls back keeps its roots as kernel values, exactly: its
    # lambdas are the roots Aberth found, and its values and moduli are
    # complex(l) and float(abs(l)) of them in the default 53-bit context
    found = []

    def spy(*args, **kwargs):
        roots = complex_roots(*args, **kwargs)
        found.append({l._mpc_ for l in roots})
        return roots

    p = Params(1, "1/2")
    points = [z for z in mixed_points() if not accepted(p, z, precision)]
    assert len(points) == 3
    monkeypatch.setattr(rootfind, "complex_roots", spy)
    results = solve_branches_many(p, points, precision).results
    assert len(found) == 3
    for bs, roots in zip(results, found):
        assert mpmath.mp.prec == 53
        assert {l._mpc_ for l in bs.lambdas} == roots
        assert bs.values == tuple(complex(l) for l in bs.lambdas)
        assert bs.moduli == tuple(float(abs(l)) for l in bs.lambdas)


@pytest.mark.parametrize("bad", ["inf", "nan", "infj"])
def test_a_root_that_is_not_finite_is_a_divergence(monkeypatch, bad):
    # the Aberth path refuses a root it cannot keep as a kernel value; its
    # residual, not a number, does not fail the gate
    root = mpmath.mpc(0, mpmath.inf) if bad == "infj" else mpmath.mpc(getattr(mpmath, bad))
    monkeypatch.setattr(rootfind, "complex_roots", lambda *args, **kwargs: [root, mpmath.mpc(1)])
    batch = solve_branches_many(Params(1, "1"), [2, 3])
    assert (batch.batched, batch.fallback) == (1, 1)
    assert isinstance(batch.results[0], SolverDivergence)
    assert "not finite" in str(batch.results[0])
    assert not isinstance(batch.results[1], SolverDivergence)


def test_above_53_bits_points_run_on_the_kernel():
    # the exact Newton steps carry each value to the working bits: it agrees
    # with an Aberth solve at 64 more bits to within its last working bit
    p = Params(3, "5/2")
    points = [complex(1.3, 0.4), complex(-2.2, 1.9)]
    for precision in (80, 400, 1200):
        batch = solve_branches_many(p, points, precision)
        assert (batch.batched, batch.fallback) == (2, 0)
        for z, bs in zip(points, batch.results):
            bits = algebraic._work_bits(precision, p.m, z)
            ref = solve_branches_aberth(p, z, precision + 64).lambdas
            assert bs.values == tuple(complex(l) for l in ref)
            with mpmath.workprec(bits + 64):
                for got, want in zip(bs.lambdas, ref):
                    assert abs(got - want) <= mpmath.ldexp(abs(want), 1 - bits)


def test_point_that_is_not_a_double_uses_aberth():
    with mpmath.workprec(120):
        z = mpmath.mpc(1) / 3 + mpmath.mpc(0, 1)
    batch = solve_branches_many(Params(2, "1"), [z])
    assert (batch.batched, batch.fallback) == (0, 1)


@pytest.mark.parametrize("m, c", [(1, "3/7"), (2, "7/3"), (3, "5/2"), (4, "9/8")])
@pytest.mark.parametrize("far", [False, True])
def test_kernel_values_are_the_mpmath_values_rounded(monkeypatch, m, c, far):
    # every accepted branch: each part is a fixed-point value rounded once
    # to the working bits as mpmath rounds it, its values and moduli are
    # complex(l) and float(abs(l)) of that mpmath value l, and its
    # lambdas are those values themselves
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
    batch = solve_branches_many(p, points)
    assert batch.batched >= len(points) - 2
    fast = [bs for z, bs in zip(points, batch.results) if accepted(p, z)]
    assert len(fast) == batch.batched
    for bs in fast:
        want = [
            mpmath.mp.make_mpc((rounded[re, ere], rounded[im, eim]))
            for re, ere, im, eim in bs.parts
        ]
        assert bs.values == tuple(complex(l) for l in want)
        assert bs.moduli == tuple(float(abs(l)) for l in want)
        assert all(a._mpc_ == b._mpc_ for a, b in zip(bs.lambdas, want))


def exact_residual(p, z, part):
    """``|c*l**(m+1) - z*l + 1|`` in Fractions at the value l of one part."""
    re, ere, im, eim = part
    lr, li = Fraction(re) * Fraction(2) ** ere, Fraction(im) * Fraction(2) ** eim
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
    batch = solve_branches_many(p, points)
    assert batch.batched >= len(points) - 2
    gate = algebraic._residual_tolerance(53)
    for z, bs in zip(points, batch.results):
        if not accepted(p, z):
            continue
        for part, residual in zip(bs.parts, bs.residuals):
            assert residual <= gate
            assert residual == pytest.approx(exact_residual(p, z, part), rel=1e-3, abs=0)


@pytest.mark.parametrize("m, c", [(1, "3/7"), (2, "640/17"), (3, "5/23"), (4, "9/8")])
@pytest.mark.parametrize("far", [False, True])
def test_fast_path_values_match_aberth_at_256_bits(m, c, far):
    p = Params(m, c)
    points = box(random.Random(f"aberth256:{m}:{far}"), star_radius(p), far)
    batch = solve_branches_many(p, points)
    assert batch.batched >= len(points) - 2
    with mpmath.workprec(256):
        for z, bs in zip(points, batch.results):
            if not accepted(p, z):
                continue
            ref = solve_branches_aberth(p, z, 256).lambdas
            for got, want in zip(bs.lambdas, ref):
                assert abs(got - want) <= mpmath.ldexp(abs(want), -100), z


def test_batched_lambdas_carry_more_than_double():
    bs = solve_branches(Params(1, "1"), complex(3, 0.5))
    assert any(complex(lam) != lam for lam in bs.lambdas)
    assert max(bs.residuals) <= 1e-25


def test_divergence_is_returned_for_its_point(monkeypatch):
    def fail(*args, **kwargs):
        raise RootRefinementError("no convergence")

    monkeypatch.setattr(rootfind, "complex_roots", fail)
    batch = solve_branches_many(Params(1, "1"), [2, 3])
    assert isinstance(batch.results[0], SolverDivergence)
    assert not isinstance(batch.results[1], SolverDivergence)
    with pytest.raises(SolverDivergence):
        solve_branches(Params(1, "1"), 2)


def test_residual_gate_sends_points_to_aberth(monkeypatch):
    # with a gate no residual can pass, no point is accepted by the fast
    # path, and the Aberth path then reports the divergence
    monkeypatch.setattr(algebraic, "_residual_tolerance", lambda precision: -1.0)
    batch = solve_branches_many(Params(1, "1"), [complex(3, 0.5)])
    assert (batch.batched, batch.fallback) == (0, 1)
    assert isinstance(batch.results[0], SolverDivergence)


def exactly_within(residual, den, gate) -> bool:
    re, im, exp = residual
    man, gate_exp = gate
    square = Fraction(re * re + im * im) * Fraction(2) ** (2 * exp) / den**2
    return square <= (Fraction(man) * Fraction(2) ** gate_exp) ** 2


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-(2**90), 2**90), st.integers(-(2**90), 2**90), st.integers(-300, 300),
    st.integers(1, 2**64), st.integers(1, 2**53), st.integers(-1300, 20),
)
def test_the_gate_below_a_double_is_compared_exactly(re, im, exp, den, man, gate_exp):
    # the gate 10**(2 - 0.3*precision) beyond about 1085 bits is the kernel
    # value man * 2**gate_exp, compared in integers
    residual, gate = (re, im, exp), (man, gate_exp)
    assert algebraic._within(residual, den, gate) == exactly_within(residual, den, gate)
    # a residual exactly at the gate passes, and one unit above it does not
    at = (man * den, 0, gate_exp)
    assert algebraic._within(at, den, gate)
    assert not algebraic._within((man * den + 1, 0, gate_exp), den, gate)
