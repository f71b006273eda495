import cmath
import math

import mpmath
import pytest

from chebsys import algebraic, exactpoly, parallel, recurrence
from chebsys.algebraic import (
    DegenerateBranches,
    OnStarSet,
    SolverDivergence,
    asymptotic_scan,
    branch_points,
    coefficients_b,
    explicit_t,
    limit_L,
    region_classify,
    seeded_offstar_points,
    solve_branches,
    star_geometry,
    star_radius,
)
from chebsys.exactpoly import poly_eval_complex
from chebsys.recurrence import Params, gen_type1_scalar


def horner_scan_errors(p, z, r_max, precision):
    """The scan's errors with each t_r from its exact coefficients by Horner."""
    top, _, limit = algebraic._limit(p, z, precision, 1e-9)
    workbits = algebraic._work_bits(precision, p.m, z)
    errors, power = [], mpmath.mpc(1)
    with mpmath.workprec(workbits):
        for t in gen_type1_scalar(p, r_max):
            errors.append(float(abs(t.eval_complex(z, workbits) / power - limit)))
            power *= top
    return errors


class TestSolveBranches:
    def test_m1_quadratic_closed_form(self):
        bs = solve_branches(Params(1, "1"), 3)
        lo, hi = (complex(l) for l in bs.lambdas)
        assert abs(lo - (3 - math.sqrt(5)) / 2) < 1e-12
        assert abs(hi - (3 + math.sqrt(5)) / 2) < 1e-12
        assert not bs.tie_flag

    def test_tie_at_branch_point(self):
        bs = solve_branches(Params(1, "1"), 2)
        assert bs.tie_flag
        assert all(abs(complex(l) - 1) < 1e-6 for l in bs.lambdas)

    def test_smallest_branch_behaves_like_reciprocal(self):
        for p in (Params(1, "1"), Params(3, "5/2")):
            bs = solve_branches(p, 1e6)
            assert abs(complex(bs.lambdas[0]) * 1e6 - 1) < 1e-4

    def test_residuals_below_tolerance(self):
        bs = solve_branches(Params(4, "1/2"), complex(1.7, -0.4), precision=128)
        assert max(bs.residuals) <= 10 ** (2 - 0.3 * 128)

    @pytest.mark.parametrize("precision", [1090, 1200])
    def test_solves_above_the_range_of_a_float_gate(self, precision):
        # 10**(2 - 0.3*precision) is below the smallest double here
        tolerance = algebraic._residual_tolerance(precision)
        assert tolerance > 0 and float(tolerance) == 0.0
        p, z = Params(2, "1"), complex(3, 1)
        deep, double = solve_branches(p, z, precision), solve_branches(p, z)
        assert all(abs(a - b) < 1e-14 for a, b in zip(deep.values, double.values))

    def test_divergence_message_keeps_values_below_a_double(self, monkeypatch):
        gate = mpmath.mpf(10) ** -2000
        monkeypatch.setattr(algebraic, "_residual_tolerance", lambda precision: gate)
        with pytest.raises(SolverDivergence, match=r"above 1\.0e-2000 at"):
            solve_branches(Params(2, "1"), complex(3, 1), 1100)

    def test_vieta_sum_and_product(self):
        # the coefficient of w^m is -z when m == 1 and 0 for m >= 2
        for m in (1, 2, 3):
            p = Params(m, "1/2")
            z = complex(1.3, 0.7)
            bs = solve_branches(p, z, 80)
            total = sum(complex(l) for l in bs.lambdas)
            product = 1
            for l in bs.lambdas:
                product *= complex(l)
            expected_sum = z / 0.5 if m == 1 else 0
            top = max(bs.moduli)
            assert abs(total - expected_sum) <= 1e-8 * float(top)
            assert abs(product - (-1) ** (m + 1) / 0.5) <= 1e-8 / 0.5


class TestCoefficients:
    def test_m1_lagrange_values(self):
        p = Params(1, "1")
        bs = solve_branches(p, 3)
        coeffs = coefficients_b(bs, p)
        b0, b1 = (complex(b) for b in coeffs.values)
        assert abs(b0 + 1 / math.sqrt(5)) < 1e-10
        assert abs(b1 - 1 / math.sqrt(5)) < 1e-10
        assert coeffs.identity_error <= 1e-8

    def test_vandermonde_dual_rows(self):
        for m in (1, 2, 3):
            p = Params(m, "1")
            z = complex(2.1, 1.3)
            bs = solve_branches(p, z, 80)
            coeffs = coefficients_b(bs, p)
            for s in range(m + 1):
                total = sum(
                    complex(b) * complex(l) ** s
                    for b, l in zip(coeffs.values, bs.lambdas)
                )
                expected = 1 if s == m else 0
                assert abs(total - expected) <= 1e-8

    def test_tied_branches_rejected(self):
        p = Params(1, "1")
        bs = solve_branches(p, 2)
        with pytest.raises(DegenerateBranches):
            coefficients_b(bs, p)


class TestExplicitT:
    def test_initial_values(self):
        p = Params(2, "1")
        assert abs(explicit_t(p, 0, complex(1.5, 0.5)) - 1) < 1e-9
        assert abs(explicit_t(p, -1, complex(1.5, 0.5))) < 1e-9

    def test_matches_linear_term(self):
        assert abs(explicit_t(Params(2, "1"), 5, 2) - (-4)) < 1e-8

    def test_matches_exact_evaluation(self):
        for m in (1, 2, 3):
            p = Params(m, "1")
            ts = gen_type1_scalar(p, 30)
            for z in seeded_offstar_points(p, 4, seed=5):
                for r in (7, 19, 30):
                    exact = poly_eval_complex(ts[r], z, 128)
                    if abs(exact) <= 1e-10:
                        continue
                    approx = explicit_t(p, r, z, 128)
                    assert abs(approx - exact) / abs(exact) <= 1e-6


class TestLimit:
    def test_m1_value(self):
        value = complex(limit_L(Params(1, "1"), 3))
        assert abs(value - 1.1708203932499369) < 1e-9

    def test_large_z_tends_to_reciprocal_cm(self):
        p = Params(2, "1")
        value = complex(limit_L(p, 1e5 * cmath.exp(0.4j)))
        assert abs(value - 1 / 2) < 1e-3

    def test_large_z_tends_to_reciprocal_m_for_c_other_than_one(self):
        # c / (c*m - l_m^-(m+1)) -> 1/m as |z| grows, whatever c is
        value = complex(limit_L(Params(2, "3"), 1e5 * cmath.exp(0.4j)))
        assert abs(value - 1 / 2) < 1e-3

    def test_on_star_rejected_for_even_m(self):
        with pytest.raises(OnStarSet):
            limit_L(Params(2, "1"), cmath.exp(1j * math.pi / 3))

    def test_on_segment_rejected_for_m1(self):
        with pytest.raises(OnStarSet):
            limit_L(Params(1, "1"), 1.0)


class TestAsymptoticScan:
    def test_m1_two_branch_decay(self):
        scan = asymptotic_scan(Params(1, "1"), 3, 40, precision=200)
        expected = (3 - math.sqrt(5)) / (3 + math.sqrt(5))
        assert abs(scan.decay_estimate - expected) <= 1e-6
        assert scan.errors[0] > 0  # finite, well-defined start
        for rate in scan.rates:
            if rate is not None:
                assert rate <= scan.ratio + 0.05

    def test_m2_rate_matches_branch_ratio(self):
        scan = asymptotic_scan(Params(2, "1"), 3, 60, precision=160)
        assert abs(scan.decay_estimate - scan.ratio) <= 0.05
        assert scan.window == 6

    def test_decay_matches_ratio_for_c_other_than_one(self):
        scan = asymptotic_scan(Params(1, "3/2"), complex(3, 1), 60, precision=200)
        assert abs(scan.decay_estimate - scan.ratio) <= 0.05

    def test_on_star_rejected(self):
        with pytest.raises(OnStarSet):
            asymptotic_scan(Params(2, "1"), -2.5, 20)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("c", ["1", "3/7", "5/2"])
    def test_recursion_equals_exact_evaluation(self, m, c):
        # 400 bits cover Horner's cancellation at these depths, so every cell
        # above 2**-200 is resolved by both and must round to the same float
        p = Params(m, c)
        z = seeded_offstar_points(p, 1, seed=m)[0]
        r_max, precision = 60 * m, 400
        got = asymptotic_scan(p, z, r_max, precision).errors
        ref = horner_scan_errors(p, z, r_max, precision)
        resolved = [r for r in range(r_max + 1) if ref[r] > 2.0 ** (-precision / 2)]
        assert len(resolved) > r_max // 3
        assert [got[r] for r in resolved] == [ref[r] for r in resolved]

    def test_recursion_resolves_a_scan_that_horner_cancels(self):
        # near the segment, t_r's coefficients grow like mu**r with mu = 2.6
        # against |lambda_m| = 1.6, so Horner loses about 0.7 bits per term,
        # 70 bits by r = 100; the recursion loses none
        p, z, r_max, precision = Params(1, "1"), complex(2.2, 0.1), 100, 120
        got = asymptotic_scan(p, z, r_max, precision).errors
        horner = horner_scan_errors(p, z, r_max, precision)
        ref = horner_scan_errors(p, z, r_max, 2 * precision)
        assert all(abs(g - e) <= abs(h - e) for g, h, e in zip(got, horner, ref))
        assert max(abs(g - e) for g, e in zip(got, ref)) < 1e-40 < horner[-1]

    def test_scan_is_a_recursion_that_forks_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan must not call this")

        monkeypatch.setattr(recurrence, "gen_type1_scalar", refuse)
        monkeypatch.setattr(parallel, "fork_map", refuse)
        monkeypatch.setattr(exactpoly.Poly, "eval_complex", refuse)
        p, z, r_max = Params(2, "1"), 1.5, 1200
        moduli = solve_branches(p, z).moduli
        # the README's rule r_max*log2(l_m/l_{m-1}) plus a margin: above the
        # 1085 bits where the residual gate would underflow as a float
        precision = math.ceil(r_max * math.log2(moduli[-1] / moduli[-2])) + 128
        assert precision > 1085
        scan = asymptotic_scan(p, z, r_max, precision)
        assert abs(scan.decay_estimate - scan.ratio) <= 0.05


class TestGeometry:
    def test_star_radius_values(self):
        assert abs(star_radius(Params(1, "1")) - 2) < 1e-14
        assert abs(star_radius(Params(2, "1")) - 1.5 * 2 ** (1 / 3)) < 1e-12
        assert abs(star_radius(Params(1, "4")) - 4) < 1e-12

    def test_branch_points_m1(self):
        pts = sorted(branch_points(Params(1, "1")), key=lambda w: w.real)
        assert abs(pts[0] + 2) < 1e-10 and abs(pts[1] - 2) < 1e-10

    def test_branch_points_share_star_radius(self):
        for m, c in ((2, "1"), (3, "1/2"), (4, "3")):
            p = Params(m, c)
            a = star_radius(p)
            pts = branch_points(p)
            assert len(pts) == m + 1
            for pt in pts:
                assert abs(abs(pt) - a) < 1e-10
            # angles are the (m+1)-st roots of a positive real, so (m+1)*theta
            # is a multiple of 2*pi, and all m+1 directions are hit
            angles = [math.atan2(pt.imag, pt.real) for pt in pts]
            for theta in angles:
                assert abs(math.remainder((m + 1) * theta, 2 * math.pi)) < 1e-8
            indices = sorted(
                round(theta * (m + 1) / (2 * math.pi)) % (m + 1) for theta in angles
            )
            assert indices == list(range(m + 1))

    def test_branch_points_reject_candidates_off_the_discriminant(self, monkeypatch):
        # a star radius scaled by 1 + 1e-6 gives candidates whose
        # discriminant is far from zero
        bracket = algebraic._radius_fixed

        def perturbed(p):
            man, exp = bracket(p)
            return man + man // 10**6, exp

        monkeypatch.setattr(algebraic, "_radius_fixed", perturbed)
        for m, c in ((1, "1"), (2, "7/3"), (4, "3")):
            with pytest.raises(SolverDivergence, match="candidate branch point"):
                branch_points(Params(m, c))

    def test_region_on_segment(self):
        report = region_classify(Params(1, "1"), 1.0, tol=1e-9)
        assert report.dist_s0 < 1e-12
        assert not report.omega[0]

    def test_region_distance_from_axis(self):
        report = region_classify(Params(1, "1"), 1j, tol=1e-9)
        assert abs(report.dist_s0 - 1) < 1e-12

    def test_region_even_star_ray(self):
        report = region_classify(Params(2, "1"), cmath.exp(1j * math.pi / 3), tol=1e-9)
        assert report.dist_even_star < 1e-12
        assert not report.omega[2]

    def test_growth_of_upper_branches(self):
        for m in (1, 2, 3):
            p = Params(m, "1")
            errors = []
            for mag in (1e2, 1e3, 1e4):
                z = mag * cmath.exp(1j * math.pi / 7)
                bs = solve_branches(p, z, 80)
                errors.append(
                    max(
                        abs(complex(bs.lambdas[j]) ** m / z - 1)
                        for j in range(1, m + 1)
                    )
                )
            assert errors[0] > errors[1] > errors[2]
            assert errors[2] < 1e-4


class TestSeededPoints:
    def test_reproducible(self):
        p = Params(2, "1")
        assert seeded_offstar_points(p, 10, seed=3) == seeded_offstar_points(
            p, 10, seed=3
        )

    def test_margins_respected(self):
        p = Params(3, "1/2")
        geom = star_geometry(p)
        margin = 0.1 * geom.a
        for z in seeded_offstar_points(p, 40, seed=4):
            report = region_classify(p, z, tol=margin)
            assert all(report.omega)

    def test_strict_ordering_off_stars(self):
        p = Params(2, "3")
        for z in seeded_offstar_points(p, 25, seed=6):
            bs = solve_branches(p, z)
            assert not bs.tie_flag
            mods = bs.moduli
            assert all(a < b for a, b in zip(mods, mods[1:]))


def test_reciprocal_change_of_variable():
    # omega = 1/lambda solves omega^(m+1) - z*omega^m + c = 0
    p = Params(3, "5/4")
    z = complex(1.9, 0.8)
    bs = solve_branches(p, z, 100)
    with mpmath.workprec(120):
        for lam in bs.lambdas:
            omega = 1 / lam
            value = omega ** (p.m + 1) - z * omega**p.m + mpmath.mpf(1.25)
            assert abs(value) < 1e-20
