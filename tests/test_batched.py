"""The batched 53-bit branch solver against the per-point mpmath Aberth path."""

import cmath
import math
import random

import mpmath
import pytest

from chebsys import algebraic
from chebsys.algebraic import (
    BATCH_BLOCK,
    SolverDivergence,
    solve_branches,
    solve_branches_aberth,
    solve_branches_many,
    star_radius,
)
from chebsys.recurrence import Params
from chebsys.rootfind import RootRefinementError


def cells(bs):
    """What the CLI writes of a branch set, as 17-digit strings, and the tie flag."""
    out = []
    for lam in bs.lambdas:
        lam = complex(lam)
        out += [f"{lam.real:.17g}", f"{lam.imag:.17g}"]
    out += [f"{float(mod):.17g}" for mod in bs.moduli]
    return out, bs.tie_flag


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


def test_grid_one_point_longer_than_a_block():
    p = Params(2, "3/7")
    n = BATCH_BLOCK + 1
    points = [complex(0.31 + 0.0137 * k, 0.53 + 0.0029 * k) for k in range(n)]
    batch = solve_branches_many(p, points)
    assert len(batch.results) == n
    assert batch.batched + batch.fallback == n
    assert [bs.z for bs in batch.results] == points
    for k in (0, BATCH_BLOCK - 1, BATCH_BLOCK):
        assert cells(batch.results[k]) == cells(solve_branches_aberth(p, points[k], 53))


def test_above_53_bits_every_point_uses_aberth():
    p = Params(3, "5/2")
    points = [complex(1.3, 0.4), complex(-2.2, 1.9)]
    batch = solve_branches_many(p, points, 80)
    assert (batch.batched, batch.fallback) == (0, 2)
    for z, bs in zip(points, batch.results):
        assert bs.lambdas == solve_branches_aberth(p, z, 80).lambdas


def test_point_that_is_not_a_double_uses_aberth():
    with mpmath.workprec(120):
        z = mpmath.mpc(1) / 3 + mpmath.mpc(0, 1)
    batch = solve_branches_many(Params(2, "1"), [z])
    assert (batch.batched, batch.fallback) == (0, 1)


def test_batched_lambdas_carry_more_than_double():
    bs = solve_branches(Params(1, "1"), complex(3, 0.5))
    assert any(complex(lam) != lam for lam in bs.lambdas)
    assert max(bs.residuals) <= 1e-25


def test_divergence_is_returned_for_its_point(monkeypatch):
    def fail(*args, **kwargs):
        raise RootRefinementError("no convergence")

    monkeypatch.setattr(algebraic, "complex_roots", fail)
    batch = solve_branches_many(Params(1, "1"), [2, 3])
    assert isinstance(batch.results[0], SolverDivergence)
    assert not isinstance(batch.results[1], SolverDivergence)
    with pytest.raises(SolverDivergence):
        solve_branches(Params(1, "1"), 2)


def test_residual_gate_sends_points_to_aberth(monkeypatch):
    # with a gate no residual can pass, no point is accepted by the batched
    # path, and the Aberth path then reports the divergence
    monkeypatch.setattr(algebraic, "_residual_tolerance", lambda precision: -1.0)
    batch = solve_branches_many(Params(1, "1"), [complex(3, 0.5)])
    assert (batch.batched, batch.fallback) == (0, 1)
    assert isinstance(batch.results[0], SolverDivergence)
