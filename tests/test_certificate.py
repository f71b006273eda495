"""The exact sign certificate of real, simple roots, and the probe built on it.

``certify_real_roots`` proves that a polynomial of degree d has d distinct
real roots from nonzero alternating signs at d+1 dyadic points.  It must
reject every polynomial without that property whatever the hints, and the
probe must certify the whole acceptance range with no numeric solve.  With
the certificate switched off, the probe must give the report of the numeric
path it replaced, figure for figure.
"""

import math
import random
from fractions import Fraction

import pytest

from chebsys import parallel, probe
from chebsys import roots as roots_module
from chebsys.exactpoly import Poly, certify_real_roots, dyadic_sign, isolating_points
from chebsys.recurrence import Params, gen_type1_records
from chebsys.roots import conjecture_probe


def from_roots(*values):
    poly = Poly((1,))
    for v in values:
        poly = poly * Poly((-Fraction(v), 1))
    return poly


def closed_form_hints(p: Params, rec) -> list:
    # c**(r/2) * t_r(x) = U_r(x / (2 sqrt(c))) for m = 1
    n = rec.r + 1
    return [4 * float(p.c) * math.cos(k * math.pi / n) ** 2 for k in range(1, rec.h.degree + 1)]


def test_dyadic_sign_is_the_sign_of_the_exact_value():
    rng = random.Random(5)
    for _ in range(300):
        nums = [rng.randint(-50, 50) for _ in range(rng.randint(1, 7))]
        poly = Poly.scaled(nums, rng.randint(1, 9))
        a, k = rng.randint(-200, 200), rng.randint(0, 6)
        value = poly.eval_exact(Fraction(a, 2**k))
        assert dyadic_sign(poly, a, k) == (value > 0) - (value < 0)


@pytest.mark.parametrize(
    "poly, hints",
    [
        (Poly((1, 0, 1)), [0.0, 0.0]),  # x^2 + 1: the real parts of +-i
        (Poly((1, 0, 1)), [-1.0, 1.0]),
        (from_roots(1, 1), [1.0, 1.0]),
        (from_roots(1, 1), [0.9, 1.1]),  # the middle point lands on the root
        (from_roots(1, 1), [0.5, 1.5]),
        (Poly((0, 0, 0, 1)), [-1.0, 0.0, 1.0]),  # x^3
        (Poly((0, 0, 0, 1)), [-1.0, 1.0, 2.0]),
        (from_roots(0, 0, 4), [-1.0, 1.0, 4.0]),  # signs -, 0, -, +
        (from_roots(1, 2, 3), [1.6, 1.8, 3.0]),  # the root 1 lies below every hint
        (from_roots(1, 2, 3), [1.0, 2.5, 2.6]),  # 2 lies below its hint
        (from_roots(1, "5/2"), [1.0, 2.0]),  # signs +, -, 0: the last point is a root
        (from_roots(1, 2, 3), [1.0, 2.0]),  # too few hints
        (from_roots(5, 6, 7), [1.0, 1.0 + 2**-52, 1.0 + 2**-51]),  # points merge
        (from_roots(1, 2, 3), [1.0, 2.0, math.nan]),
        (Poly((5,)), []),
    ],
)
def test_rejects_without_distinct_real_roots_or_with_misplaced_hints(poly, hints):
    assert not certify_real_roots(poly, hints)


@pytest.mark.parametrize(
    "poly, hints",
    [
        (from_roots(1, 2, 3), [1.0, 2.0, 3.0]),
        (from_roots(1, 2, 3), [2.9, 0.8, 2.1]),  # rough and unsorted
        (from_roots(3), [2.5]),
        (from_roots("1/3", "1/3000", "-7/2", 10**9), [1 / 3, 1 / 3000, -3.5, 1e9]),
        (from_roots(0, 2), [0.0, 2.0]),
    ],
)
def test_accepts_distinct_real_roots(poly, hints):
    assert certify_real_roots(poly, hints)


def test_points_are_short_and_in_the_middle_half_of_each_gap():
    rng = random.Random(11)
    for _ in range(200):
        # hints of few bits, so that the gaps and their quarters are exact floats
        scale = 2.0 ** rng.randint(-20, 5)
        hints = sorted({rng.randint(-10**6, 10**6) * scale for _ in range(rng.randint(1, 8))})
        gaps = [b - a for a, b in zip(hints, hints[1:])]
        if gaps:
            edges = [hints[0] - gaps[0], *hints, hints[-1] + gaps[-1]]
        else:
            edges = [hints[0] - 1 - abs(hints[0]), hints[0], hints[0] + 1 + abs(hints[0])]
        points = isolating_points(hints)
        assert len(points) == len(hints) + 1
        for (a, k), lo, hi in zip(points, edges, edges[1:]):
            quarter = (Fraction(hi) - Fraction(lo)) / 4
            x = Fraction(a, 2**k)
            assert Fraction(lo) + quarter <= x <= Fraction(hi) - quarter
            # the least k: no multiple of 2**-(k-1) lies in the middle half
            if k:
                coarse = math.ceil((Fraction(lo) + quarter) * 2 ** (k - 1))
                assert Fraction(coarse, 2 ** (k - 1)) > Fraction(hi) - quarter


def test_rejects_hints_that_are_not_increasing_and_finite():
    assert isolating_points([]) is None
    assert isolating_points([1.0, 1.0]) is None
    assert isolating_points([2.0, 1.0]) is None
    assert isolating_points([0.0, math.inf]) is None


@pytest.mark.parametrize("c", ["1", "4", "3/7"])
def test_m1_closed_form_certifies_every_index_to_200(c):
    p = Params(1, c)
    for rec in gen_type1_records(p, 200):
        if rec.tau >= 1:
            assert certify_real_roots(rec.h, closed_form_hints(p, rec)), rec.r


def test_c1_has_exact_dyadic_roots_and_still_certifies():
    # 4 cos(pi/4)**2 = 2, 4 cos(pi/3)**2 = 1, 4 cos(pi/6)**2 = 3
    p = Params(1, "1")
    records = gen_type1_records(p, 11)
    for r, y in ((3, 2), (2, 1), (5, 3), (5, 1), (7, 2), (11, 2), (11, 3), (11, 1)):
        assert dyadic_sign(records[r].h, y, 0) == 0, (r, y)
        assert certify_real_roots(records[r].h, closed_form_hints(p, records[r]))


@pytest.mark.parametrize(
    "c", [10**400, Fraction(1, 10**400), 4 * 10**307], ids=["huge", "tiny", "4c-overflows"]
)
def test_a_c_beyond_double_range_certifies_in_the_scaled_variable(c):
    # the zeros 4c*cos(k pi/(r+1))**2 overflow or underflow a double, their
    # hints cos(k pi/(r+1))**2 in y = x/(4c) do not
    p = Params(1, c)
    report = conjecture_probe(p, 12)
    assert report.classification == "PASS"
    assert report.certified == report.checked == 11
    imag, sep, escalated = probe._certify_index(gen_type1_records(p, 4)[4], p)
    assert imag == 0.0 and not escalated
    # beyond 1 the normalized gaps no longer depend on c; below 1/4 they
    # shrink with it, here below the range of a double
    if c > 1:
        low, high = (math.cos(k * math.pi / 5) ** 2 for k in (2, 1))
        assert sep == pytest.approx(1 - low / high)
    else:
        assert sep is None
        assert report.min_separation_normalized is None


@pytest.fixture
def no_solve(monkeypatch):
    """Fails the test if the probe solves any h_r."""

    def solve(h, precision=53):
        raise AssertionError("a certified probe solved h_r")

    monkeypatch.setattr(roots_module, "roots_of_h", solve)


@pytest.mark.parametrize("m, c, r_max", [(1, "1", 60), (2, "1", 60), (3, "1", 60), (1, "1", 200)])
def test_probe_certifies_the_acceptance_range_without_a_solve(no_solve, m, c, r_max):
    report = conjecture_probe(Params(m, c), r_max, 80)
    assert report.checked > 0
    assert report.certified == report.checked
    assert report.first_uncertified_r is None
    assert report.classification == "PASS"
    assert report.max_imag_normalized == 0.0 and report.escalations == 0


@pytest.fixture(params=[1, 3], ids=["1-worker", "3-workers"])
def workers(request, monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: request.param)
    if request.param > 1:
        monkeypatch.setattr(parallel, "MIN_COST", 0)
    return request.param


# the numeric probe's reports before the certificate: classification, worst
# normalized imaginary part, least normalized separation, checked, escalations
NUMERIC_REPORTS = {
    (1, "1", 40): ("PASS", 8.055355186024805e-17, 0.017544824818565445, 39, 0),
    (2, "59/62", 40): ("PASS", 7.97365053259729e-43, 0.07995384363927235, 34, 0),
    (1, "3/2", 12): ("PASS", 1.775728647249422e-40, 0.16833661172876996, 11, 0),
}


@pytest.mark.parametrize("key", list(NUMERIC_REPORTS))
def test_without_the_certificate_the_probe_is_the_numeric_path(monkeypatch, workers, key):
    monkeypatch.setattr(probe, "certify_real_roots", lambda h, hints: False)
    m, c, r_max = key
    report = conjecture_probe(Params(m, c), r_max, 53)
    classification, worst, sep, checked, escalations = NUMERIC_REPORTS[key]
    first = next(rec.r for rec in gen_type1_records(Params(m, c), r_max) if rec.tau >= 1)
    assert report == roots_module.ProbeReport(
        classification=classification,
        max_imag_normalized=worst,
        min_separation_normalized=sep,
        offending_r=None,
        reason=None,
        checked=checked,
        escalations=escalations,
        certified=0,
        first_uncertified_r=first,
    )


def test_only_uncertified_indices_are_solved(monkeypatch):
    p = Params(2, "59/62")
    records = gen_type1_records(p, 40)
    refused = {records[r].h for r in (17, 23, 40)}
    certify = probe.certify_real_roots
    monkeypatch.setattr(
        probe, "certify_real_roots", lambda h, hints: h not in refused and certify(h, hints)
    )
    solved = []
    solve = roots_module.roots_of_h

    def roots_of_h(h, precision=53):
        solved.append(h)
        return solve(h, precision)

    monkeypatch.setattr(roots_module, "roots_of_h", roots_of_h)
    monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
    report = conjecture_probe(p, 40, 53)
    assert set(solved) == refused and len(solved) == 3
    assert report.checked == 34 and report.certified == 31
    assert report.first_uncertified_r == 17
    assert report.classification == "PASS" and report.escalations == 0
    assert 0 < report.max_imag_normalized <= 1e-9
    assert report.min_separation_normalized == pytest.approx(0.07995384363927235, rel=1e-12)
