import cmath
import math
from fractions import Fraction

import mpmath
import pytest

from chebsys import roots as roots_module
from chebsys.algebraic import star_geometry
from chebsys.exactpoly import Poly, compose_star
from chebsys.recurrence import Params, gen_type1_records
from chebsys.rootfind import coefficient_moduli, complex_roots, max_term
from chebsys.roots import (
    attraction_study,
    conjecture_probe,
    distance_to_star,
    isolate,
    refined,
    roots_of_h,
    roots_of_t,
)


def P(*coeffs):
    return Poly(coeffs)


class TestRootsOfH:
    def test_linear(self):
        pairs = roots_of_h(P(1, 1), 80)
        assert len(pairs) == 1
        root, mult = pairs[0]
        assert abs(complex(root) + 1) < 1e-12 and mult == 1

    def test_constant_has_no_roots(self):
        assert roots_of_h(P(5), 80) == []

    def test_quadratic(self):
        pairs = roots_of_h(P(-1, 0, 1), 80)
        values = sorted(complex(root).real for root, _ in pairs)
        assert abs(values[0] + 1) < 1e-12 and abs(values[1] - 1) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            roots_of_h(Poly(), 80)

    def test_zeros_keep_the_working_precision(self):
        # the clusters are averaged at the working precision, not at the
        # caller's 53 bits
        pairs = roots_of_h(P(-2, 0, 1), 200)
        with mpmath.workprec(200):
            assert max(abs(abs(root) - mpmath.sqrt(2)) for root, _ in pairs) < mpmath.mpf(2) ** -190

    def test_repeated_root_multiplicity(self):
        # (y - 1)^2 clusters into one double root
        pairs = roots_of_h(P(1, -2, 1), 80)
        assert sum(mult for _, mult in pairs) == 2
        assert len(pairs) == 1 and pairs[0][1] == 2


@pytest.fixture
def aberth(monkeypatch):
    """roots_of_t without intervals proves its index first; here the probe
    proves nothing, so that h_r is solved by Aberth iteration."""
    monkeypatch.setattr(roots_module, "isolate", lambda p, records: (None, {}))


@pytest.mark.usefixtures("aberth")
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
            moduli = coefficient_moduli(rec.t, mpmath.mp.prec)
            for z, _ in report.t_roots:
                value = rec.t.eval_complex(z, 128)
                scale = max(float(max_term(moduli, z)), float(max_term(moduli, 1)))
                assert abs(value) <= 1e-8 * scale

    def test_zeros_far_below_one_are_simple_on_the_aberth_path(self):
        # at c = 10**-12 the four zeros of h_9 are of the order of 1e-12, far
        # below the 1e-7 that once merged them into one of multiplicity 4;
        # each is simple and lies in the probe's enclosure of its zero
        p = Params(1, Fraction(1, 10**12))
        records = gen_type1_records(p, 9)
        report = roots_of_t(records[9], p, 53)
        # the probe's own intervals: this name is not the one patched
        iso = isolate(p, records)[1][9]
        enclosures = refined(iso, 40)
        assert len(enclosures) == records[9].h.degree == 4
        assert [mult for _, mult in report.h_roots] == [1] * 4
        zeros = sorted((complex(x) for x, _ in report.h_roots), key=lambda x: x.real)
        for x, (lo, hi, k) in zip(zeros, enclosures):
            # x = c*y
            low, high = (float(p.c * Fraction(v, 2**k)) for v in (lo, hi))
            assert abs(x.imag) <= 1e-12 * abs(x)
            assert low - 1e-12 * abs(x) <= x.real <= high + 1e-12 * abs(x)


class TestRootsOfTProvesItsIndex:
    @pytest.mark.parametrize("m, c", [(1, "3/2"), (2, "59/62"), (3, Fraction(1, 10**40))])
    def test_without_intervals_the_index_is_proved_first(self, monkeypatch, m, c):
        # roots_of_t given no intervals runs the probe on its own index, and
        # writes the zeros that the intervals of the whole table give
        p = Params(m, c)
        records = gen_type1_records(p, 40)
        isolated = isolate(p, records)[1]
        monkeypatch.setattr(roots_module, "roots_of_h", _no_solve)
        for r in (20, 33, 40):
            rec = records[r]
            if rec.tau < 1:
                continue
            for precision in (53, 128):
                assert roots_of_t(rec, p, precision) == roots_of_t(
                    rec, p, precision, isolated[r]
                ), (r, precision)

    def test_an_index_off_the_grading_is_solved_by_aberth(self, monkeypatch):
        # h_20 at c = 3/7 with one coefficient times c is not the graded
        # image of its c = 1 polynomial: nothing proves it, Aberth solves it
        p = Params(2, "3/7")
        rec = gen_type1_records(p, 20)[20]
        nums = [n * (3 if i == 1 else 7) for i, n in enumerate(rec.h.nums)]
        h = Poly.scaled(nums, rec.h.den * 7)
        bad = rec._replace(h=h, t=compose_star(h, p.m, rec.k, rec.ell))
        assert isolate(p, [bad])[0].classification == "NOT-GRADED"
        solved = []
        solve = roots_module.roots_of_h
        monkeypatch.setattr(
            roots_module, "roots_of_h",
            lambda h, precision=53: solved.append(h) or solve(h, precision),
        )
        report = roots_of_t(bad, p, 53)
        assert solved == [bad.h]
        assert len(report.h_roots) == bad.h.degree


def _no_solve(h, precision=53):
    raise AssertionError("h_r was solved by Aberth")


@pytest.mark.parametrize("precision", [53, 128])
def test_aberth_rounds_the_integers_as_it_rounded_the_fractions(precision):
    # roots_of_h hands complex_roots mpmath values rounded from nums/den,
    # the values complex_roots rounded from the Fractions of coeffs
    for m, c, r in ((2, "59/62", 20), (1, "3/7", 17), (3, Fraction(1, 10**40), 30)):
        h = gen_type1_records(Params(m, c), r)[r].h
        got = roots_of_h(h, precision)
        with mpmath.workprec(precision + 32):
            raw = complex_roots(h.coeffs, precision=precision)
            want = roots_module._cluster(raw)
        assert got == want, (m, c, r)


class TestStarDistance:
    def test_point_on_ray_is_zero(self):
        geom = star_geometry(Params(2, "1"))
        assert distance_to_star(cmath.exp(1j * math.pi / 3), geom) < 1e-15

    def test_unit_point_against_even_rays(self):
        geom = star_geometry(Params(2, "1"))
        assert abs(distance_to_star(1.0, geom) - math.sin(math.pi / 3)) < 1e-12

    def test_origin(self):
        geom = star_geometry(Params(4, "2"))
        assert distance_to_star(0, geom) == 0

    def test_m1_star_is_real_axis(self):
        geom = star_geometry(Params(1, "1"))
        assert distance_to_star(-3.7, geom) < 1e-15
        assert abs(distance_to_star(2 + 1j, geom) - 1) < 1e-12


class TestAttraction:
    def test_m2_roots_sit_on_star(self):
        study = attraction_study(Params(2, "1"), [30, 60, 90], 128)
        assert study.verdict_max == "non-increasing"
        for row in study.rows:
            assert row.max_distance < 1e-8

    def test_vacuous_entry(self):
        study = attraction_study(Params(2, "1"), [0], 80)
        assert study.rows[0].root_count == 0
        assert study.verdict_max == "vacuous"

    def test_m1_roots_near_real_axis(self):
        study = attraction_study(Params(1, "1"), [20, 40], 128)
        for row in study.rows:
            assert row.max_distance < 1e-9

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            attraction_study(Params(1, "1"), [10, 5])


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

    @pytest.mark.usefixtures("aberth")
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
