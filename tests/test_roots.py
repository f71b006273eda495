import cmath
import math
from fractions import Fraction

import mpmath
import pytest

from chebsys.algebraic import segment_family_distance, star_geometry
from chebsys.exactpoly import Poly, compose_star
from chebsys.recurrence import Params, gen_type1_records
from chebsys.roots import (
    ConvergenceFailure,
    conjecture_probe,
    isolate,
    roots_of_t,
    solve_indices,
)


def max_term(poly: Poly, z) -> mpmath.mpf:
    """``max_i |c_i| * |z|**i`` over the coefficients of poly, at the current
    precision: the backward-error denominator of poly at z."""
    az = abs(mpmath.mpc(z))
    return max(abs(mpmath.mpf(c.numerator) / c.denominator) * az**i
               for i, c in enumerate(poly.coeffs))


class TestRootsOfT:
    def test_linear_term_has_only_origin(self):
        p = Params(2, "1")
        rec = gen_type1_records(p, 5)[5]  # t_5 = -2z
        report = roots_of_t(rec, p, 128)
        assert report.t_roots == ((0j, 1),)
        assert report.origin_multiplicity == 1

    def test_constant_term_has_no_roots(self):
        p = Params(2, "1")
        rec = gen_type1_records(p, 0)[0]
        report = roots_of_t(rec, p, 128)
        assert report.t_roots == () and report.total_root_count == 0

    def test_cube_roots_of_minus_one(self):
        p = Params(2, "1")
        rec = gen_type1_records(p, 6)[6]  # t_6 = z^3 + 1
        report = roots_of_t(rec, p, 128)
        got = sorted(
            (complex(z) for z, _ in report.t_roots),
            key=lambda w: math.atan2(w.imag, w.real),
        )
        expected = sorted(
            (
                complex(-1),
                cmath.exp(1j * math.pi / 3),
                cmath.exp(-1j * math.pi / 3),
            ),
            key=lambda w: math.atan2(w.imag, w.real),
        )
        for a, b in zip(got, expected):
            assert abs(a - b) < 1e-10

    def test_counts_and_orbits(self):
        p = Params(2, "1")
        rot = cmath.exp(2j * math.pi / 3)
        for rec in gen_type1_records(p, 45):
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
            assert report.total_root_count == rec.ell + (p.m + 1) * rec.h.degree

    def test_residuals_against_exact_coefficients(self):
        p = Params(2, "1")
        for r in (60, 90):
            rec = gen_type1_records(p, 90)[r]
            report = roots_of_t(rec, p, 128)
            for z, _ in report.t_roots:
                value = rec.t.eval_complex(z, 128)
                scale = max(float(max_term(rec.t, z)), float(max_term(rec.t, 1)))
                assert abs(value) <= 1e-8 * scale

class TestRootsOfTProvesItsIndex:
    @pytest.mark.parametrize("m, c", [(1, "3/2"), (2, "59/62"), (3, Fraction(1, 10**40))])
    def test_without_intervals_the_index_is_proved_first(self, m, c):
        # roots_of_t runs the probe on its own index, and writes the zeros
        # that the intervals of the whole table give
        p = Params(m, c)
        records = gen_type1_records(p, 40)
        isolated = isolate(p, records)[1]
        for r in (20, 33, 40):
            rec = records[r]
            if rec.tau < 1:
                continue
            for precision in (53, 128):
                [(_, whole)] = solve_indices(p, records, [r], precision, isolated)
                assert roots_of_t(rec, p, precision) == whole, (r, precision)

    def test_an_index_off_the_grading_is_unproved(self):
        # h_20 at c = 3/7 with one coefficient times c is not the graded
        # image of its c = 1 polynomial, and it has a complex pair (mpmath's
        # zeros at 256 bits): the probe refutes it on its own zeros, and it
        # has no zeros here
        p = Params(2, "3/7")
        rec = gen_type1_records(p, 20)[20]
        nums = [n * (3 if i == 1 else 7) for i, n in enumerate(rec.h.nums)]
        h = Poly.scaled(nums, rec.h.den * 7)
        with mpmath.workprec(256):
            zeros = mpmath.polyroots([mpmath.mpf(n) for n in reversed(h.nums)], extraprec=256)
            assert sum(abs(z.imag) > 2**-128 * abs(z) for z in zeros) == 2
        bad = rec._replace(h=h, t=compose_star(h, p.m, rec.k, rec.ell))
        report = isolate(p, [bad])[0]
        assert (report.classification, report.offending_r, report.reason) == (
            "COUNTEREXAMPLE", 20, "complex-root"
        )
        with pytest.raises(ConvergenceFailure, match="the probe proved no zeros of h_20"):
            roots_of_t(bad, p, 53)

    @pytest.mark.parametrize("precision", [53, 128])
    def test_a_counterexample_is_unproved(self, precision):
        # h_24 at m = 2 with a complex pair in place of two of its zeros
        p = Params(2, "1")
        rec = gen_type1_records(p, 24)[24]
        h = Poly((1, 1, 1)) * Poly((10, -7, 1))
        bad = rec._replace(h=h, t=compose_star(h, p.m, rec.k, rec.ell))
        assert isolate(p, [bad])[0].classification == "COUNTEREXAMPLE"
        with pytest.raises(ConvergenceFailure) as caught:
            roots_of_t(bad, p, precision)
        assert caught.value.poly == h


def distance_to_attractor(z, p: Params) -> float:
    """Distance from z to the rays of the attractor star of p."""
    return segment_family_distance(z, star_geometry(p).attractor_rotations, math.inf)


class TestStarDistance:
    # the attractor rays, which the asymptotic scan refuses to start on
    def test_point_on_ray_is_zero(self):
        assert distance_to_attractor(cmath.exp(1j * math.pi / 3), Params(2, "1")) < 1e-15

    def test_unit_point_against_even_rays(self):
        assert abs(distance_to_attractor(1.0, Params(2, "1")) - math.sin(math.pi / 3)) < 1e-12

    def test_origin(self):
        assert distance_to_attractor(0, Params(4, "2")) == 0

    def test_m1_star_is_real_axis(self):
        assert distance_to_attractor(-3.7, Params(1, "1")) < 1e-15
        assert abs(distance_to_attractor(2 + 1j, Params(1, "1")) - 1) < 1e-12


class TestAttraction:
    # off_attractor counts the zeros of t_r off the attractor rays exactly,
    # from the sides of 0 of the proved zeros of h_r
    def test_m2_roots_sit_on_star(self):
        p = Params(2, "1")
        records = gen_type1_records(p, 90)
        for r in (30, 60, 90):
            report = roots_of_t(records[r], p, 128)
            assert report.off_attractor == 0
            assert all(x.real < 0 for x, _ in report.h_roots)
            assert report.total_root_count == records[r].t.degree

    def test_vacuous_entry(self):
        p = Params(2, "1")
        report = roots_of_t(gen_type1_records(p, 0)[0], p, 80)
        assert (report.total_root_count, report.off_attractor) == (0, 0)

    def test_m1_roots_near_real_axis(self):
        # the odd rays of m = 1 are the two halves of the real axis, and a
        # zero x > 0 of h_r lifts to +-sqrt(x) with no imaginary part at all
        p = Params(1, "1")
        records = gen_type1_records(p, 40)
        for r in (20, 40):
            report = roots_of_t(records[r], p, 128)
            assert report.off_attractor == 0
            assert all(z.imag == 0.0 for z, _ in report.t_roots)


class TestConjectureProbe:
    def test_m1_classical_case_passes(self):
        report = conjecture_probe(Params(1, "1"), 40)
        assert report.classification == "PASS"
        assert report.max_imag_normalized <= 1e-9

    def test_vacuous_range_passes(self):
        report = conjecture_probe(Params(3, "1"), 3)
        assert report.classification == "PASS"
        assert report.checked == 0

    def test_m2_emits_classification(self):
        report = conjecture_probe(Params(2, "1"), 60)
        assert report.classification in {"PASS", "COUNTEREXAMPLE"}
        assert report.checked > 0

    def test_requires_r_max_at_least_m(self):
        with pytest.raises(ValueError):
            conjecture_probe(Params(3, "1"), 2)

    def test_all_real_roots_imply_star_rays(self):
        # with real h-roots every nonzero root argument is a multiple of
        # pi/(m+1); positive roots map to even multiples, negative to odd
        p = Params(2, "1")
        probe = conjecture_probe(p, 45)
        if probe.classification != "PASS":
            pytest.skip("probe did not certify real roots on this range")
        for rec in gen_type1_records(p, 45):
            if rec.t.is_zero or rec.t.degree == 0:
                continue
            for z, _ in roots_of_t(rec, p, 128).t_roots:
                if z == 0:
                    continue
                angle = math.atan2(z.imag, z.real) % (2 * math.pi)
                steps = angle / (math.pi / 3)
                assert abs(steps - round(steps)) < 1e-8
