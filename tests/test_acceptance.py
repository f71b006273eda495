"""Acceptance battery.

Each test covers one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line (run ``pytest tests/test_acceptance.py -v -s`` to see
them).  The exact-identity criteria compare rationals with zero tolerance;
the numeric criteria pin the tolerances inline.
"""

import cmath
import contextlib
import math
import random

import mpmath

from chebsys.algebraic import (
    branch_points,
    coefficients_b,
    seeded_offstar_points,
    solve_branches,
    star_radius,
    asymptotic_scan,
    explicit_t,
)
from chebsys.exactpoly import compose_star
from chebsys.operators import gram_matrix, jump_check_typeI, jump_check_typeII
from chebsys.recurrence import (
    Params,
    gen_type1_records,
    gen_type1_scalar,
    verify_h_recurrence,
)
from chebsys.roots import conjecture_probe, roots_of_t


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {label}: PASS", flush=True)


def test_criterion_01_factorization_exact():
    with criterion("1 factorization"):
        for m in (1, 2, 3, 4, 5):
            for c in ("1", "1/2", "3"):
                p = Params(m, c)
                for rec in gen_type1_records(p, 120):
                    assert compose_star(rec.h, m, rec.k, rec.ell) == rec.t
                    if rec.tau >= 0:
                        assert rec.h.degree == rec.tau
                        assert rec.t.degree == rec.d - rec.k
                    else:
                        assert rec.t.is_zero and rec.h.is_zero


def test_criterion_02_biorthogonality_gram_identity():
    with criterion("2 biorthogonality"):
        for m in (1, 2, 3):
            for c in ("1", "3/2"):
                p = Params(m, c)
                gram = gram_matrix(p, 40, 40)
                for r in range(41):
                    for n in range(41):
                        assert gram[r][n] == (1 if n == r else 0), (m, c, r, n)


def test_criterion_03_jump_identities():
    with criterion("3 jump identities"):
        for m in (1, 2, 3):
            for c in ("1", "3/2"):
                p = Params(m, c)
                for n in range(41):
                    assert jump_check_typeII(p, n), (m, c, n)
                for r in range(41):
                    assert jump_check_typeI(p, r), (m, c, r)


def test_criterion_04_branch_sum_oracle():
    with criterion("4 branch-sum oracle"):
        for m in (1, 2, 3):
            p = Params(m, "1")
            terms = gen_type1_scalar(p, 60)
            for z in seeded_offstar_points(p, 20, seed=400 + m):
                bs = solve_branches(p, z, 128)
                coeffs = coefficients_b(bs, p)
                with mpmath.workprec(192):
                    powers = [lam**m for lam in bs.lambdas]
                    for r in range(61):
                        exact = terms[r].eval_complex(z, 128)
                        if abs(exact) > 1e-10:
                            total = sum(
                                b * pw for b, pw in zip(coeffs.values, powers)
                            )
                            assert abs(total - exact) / abs(exact) <= 1e-6, (m, z, r)
                        powers = [pw * lam for pw, lam in zip(powers, bs.lambdas)]
                # the packaged operation agrees as well at spot indices
                for r in (0, 17, 60):
                    exact = terms[r].eval_complex(z, 128)
                    if abs(exact) > 1e-10:
                        value = explicit_t(p, r, z, 128)
                        assert abs(value - exact) / abs(exact) <= 1e-6


def test_criterion_05_strong_asymptotics():
    with criterion("5 strong asymptotics"):
        scan1 = asymptotic_scan(Params(1, "1"), 3, 80, precision=320)
        expected = (3 - math.sqrt(5)) / (3 + math.sqrt(5))
        assert scan1.decay_estimate is not None
        assert abs(scan1.decay_estimate - expected) <= 0.05
        scan2 = asymptotic_scan(Params(2, "1"), 3, 80, precision=200)
        assert scan2.decay_estimate is not None
        assert abs(scan2.decay_estimate - scan2.ratio) <= 0.05


def test_criterion_06_branch_point_geometry():
    with criterion("6 branch-point geometry"):
        for m in (1, 2, 3, 4):
            for c in ("1", "1/2", "3"):
                p = Params(m, c)
                a = star_radius(p)
                points = branch_points(p)
                assert len(points) == m + 1
                for pt in points:
                    assert abs(abs(pt) - a) <= 1e-10, (m, c, pt)
        assert abs(star_radius(Params(1, "1")) - 2) <= 1e-12


def test_criterion_07_branch_invariants():
    with criterion("7 branch invariants"):
        for m in (1, 2, 3):
            for c_str in ("1", "1/2", "3"):
                p = Params(m, c_str)
                c = float(p.c)
                for z in seeded_offstar_points(p, 200, seed=700 + 10 * m):
                    bs = solve_branches(p, z)
                    assert max(bs.residuals) <= 1e-10
                    mods = [float(v) for v in bs.moduli]
                    assert not bs.tie_flag
                    assert all(a < b for a, b in zip(mods, mods[1:]))
                    total = sum(complex(l) for l in bs.lambdas)
                    # Vieta: the w^m coefficient is -z for m=1 and 0 for m>=2
                    expected_sum = z / c if m == 1 else 0
                    assert abs(total - expected_sum) <= 1e-8 * max(mods)
                    product = 1
                    for l in bs.lambdas:
                        product *= complex(l)
                    assert abs(product - (-1) ** (m + 1) / c) <= 1e-8 / c
                # reciprocal behavior of the smallest branch at large modulus
                for z in seeded_offstar_points(
                    p, 30, seed=770 + m, rmin=100.0, rmax=1000.0
                ):
                    bs = solve_branches(p, z)
                    assert abs(z * complex(bs.lambdas[0]) - 1) <= 10 / abs(z)


def test_criterion_08_root_structure():
    with criterion("8 root structure"):
        p = Params(2, "1")
        records = gen_type1_records(p, 90)
        rec6 = records[6]
        report6 = roots_of_t(rec6, p, 128)
        expected = [
            complex(-1),
            cmath.exp(1j * math.pi / 3),
            cmath.exp(-1j * math.pi / 3),
        ]
        for target in expected:
            assert any(
                abs(complex(z) - target) <= 1e-10 for z, _ in report6.t_roots
            )
        rot = cmath.exp(2j * math.pi / 3)
        for rec in records:
            if rec.t.is_zero or rec.t.degree == 0:
                continue
            report = roots_of_t(rec, p, 128)
            assert report.total_root_count == rec.d - rec.k
            nonzero = [z for z, _ in report.t_roots if z != 0]
            for z in nonzero:
                rotated = z * rot
                assert any(
                    abs(rotated - w) <= 1e-8 * max(1, abs(w)) for w in nonzero
                ), rec.r


def test_criterion_09_m1_classical_reduction():
    with criterion("9 m=1 reduction"):
        rng = random.Random(900)
        for c_str, c in (("1", 1.0), ("4", 4.0)):
            p = Params(1, c_str)
            terms = gen_type1_scalar(p, 40)
            for _ in range(20):
                u = rng.uniform(-0.999, 0.999)
                oracle = [1.0, 2 * u]
                for _ in range(2, 41):
                    oracle.append(2 * u * oracle[-1] - oracle[-2])
                x = 2 * math.sqrt(c) * u
                for n in range(41):
                    value = complex(terms[n].eval_complex(x, 128)) * c ** (n / 2)
                    assert abs(value.real - oracle[n]) <= 1e-9 * max(1, abs(oracle[n]))
                    assert abs(value.imag) <= 1e-12


def test_criterion_10_reports_emitted():
    with criterion("10 informational reports"):
        for m in (1, 2, 3):
            p = Params(m, "1")
            hs = [rec.h for rec in gen_type1_records(p, 60)]
            sign_report = verify_h_recurrence(hs, p)
            assert len(sign_report.rows) == 61 - m
            assert sign_report.empirical_table
            print(
                f"  sign study m={m}: table={sign_report.empirical_table} "
                f"ell_parity_rule={sign_report.ell_parity_rule_holds} "
                f"k_parity_rule={sign_report.k_parity_rule_holds}"
            )
            probe = conjecture_probe(p, 60)
            assert probe.classification in {"PASS", "COUNTEREXAMPLE"}
            print(
                f"  probe m={m}: {probe.classification} "
                f"max|Im|={probe.max_imag_normalized:.2e} "
                f"min sep={probe.min_separation_normalized:.2e}"
            )
        for m in (1, 2):
            p = Params(m, "1")
            records = gen_type1_records(p, 90)
            for r in (30, 60, 90):
                report = roots_of_t(records[r], p, 128)
                assert report.off_attractor == 0, (m, r)
            print(f"  attraction m={m}: every zero of t_30, t_60, t_90 on the attractor")
