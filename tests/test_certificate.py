"""The exact sign certificate of real, simple roots, and the probe built on it.

``certify_real_roots`` proves that a polynomial of degree d has d distinct
real roots from nonzero alternating signs at d+1 dyadic points.  It must
reject every polynomial without that property whatever the hints, and the
probe must certify the whole acceptance range with no numeric solve.  For
m >= 2 the probe's step proves each h_r from the isolating intervals of the
index before it.  With the signs switched off, or with a step whose count
comes out short, the Sturm count must prove the same indices exactly,
without a root solve or mpmath.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chebsys
from chebsys import probe
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
    rec = gen_type1_records(p, 4)[4]
    assert probe._certify_index(rec, p, probe._log2_floor(p.c))
    sep = probe._separation_at_4c(probe.closed_form_hints(rec), p.c)
    # beyond 1 the normalized gaps no longer depend on c; below 1/4 they
    # shrink with it, here below the range of a double
    if c > 1:
        low, high = (math.cos(k * math.pi / 5) ** 2 for k in (2, 1))
        assert sep == pytest.approx(1 - low / high)
    else:
        assert sep < sys.float_info.min
        assert report.min_separation_normalized is None


@pytest.fixture
def no_solve(monkeypatch):
    """Fails the test if the probe solves any h_r."""

    def solve(h, precision=53):
        raise AssertionError("a certified probe solved h_r")

    monkeypatch.setattr(roots_module, "roots_of_h", solve)


@pytest.mark.parametrize("m, c, r_max", [(1, "1", 60), (2, "1", 60), (3, "1", 60), (1, "1", 200)])
def test_probe_certifies_the_acceptance_range_without_a_solve(no_solve, m, c, r_max):
    report = conjecture_probe(Params(m, c), r_max)
    assert report.checked > 0
    assert report.certified == report.checked
    assert report.first_uncertified_r is None
    assert report.classification == "PASS"
    assert report.max_imag_normalized == 0.0


def switch_off_the_signs(monkeypatch):
    """The closed-form certificate (m = 1) and the step (m >= 2) prove nothing."""
    monkeypatch.setattr(probe, "certify_real_roots", lambda h, hints: False)
    monkeypatch.setattr(probe, "_step", lambda h, E, last: None)


# the probe's indices checked at (m, c, r_max)
CHECKED = {(1, "1", 40): 39, (2, "59/62", 40): 34, (1, "3/2", 12): 11}


@pytest.mark.parametrize("key", list(CHECKED))
def test_without_the_certificate_the_probe_is_the_numeric_path(monkeypatch, no_solve, key):
    # every index the signs miss is proven by the Sturm count, which isolates
    # no zero to measure a separation by
    switch_off_the_signs(monkeypatch)
    m, c, r_max = key
    report = conjecture_probe(Params(m, c), r_max)
    first = next(rec.r for rec in gen_type1_records(Params(m, c), r_max) if rec.tau >= 1)
    assert report == roots_module.ProbeReport(
        classification="PASS",
        max_imag_normalized=0.0,
        min_separation_normalized=None,
        offending_r=None,
        reason=None,
        checked=CHECKED[key],
        certified=0,
        first_uncertified_r=first,
    )


def test_only_uncertified_indices_are_solved(monkeypatch, no_solve):
    p = Params(2, "59/62")
    records = gen_type1_records(p, 40)
    refused = {records[r].h for r in (17, 23, 40)}
    step = probe._step
    monkeypatch.setattr(
        probe, "_step", lambda h, E, last: None if h in refused else step(h, E, last)
    )
    counted = []
    count = probe._sturm_count

    def sturm_count(h):
        counted.append(h)
        return count(h)

    monkeypatch.setattr(probe, "_sturm_count", sturm_count)
    report = conjecture_probe(p, 40)
    assert set(counted) == refused and len(counted) == 3
    assert report.checked == 34 and report.certified == 31
    assert report.first_uncertified_r == 17
    assert report.classification == "PASS"
    assert report.max_imag_normalized == 0.0
    assert report.min_separation_normalized is None


# the probe with the step switched off, in a fresh interpreter
UNCERTIFIED = """
import json, sys
from chebsys import probe
from chebsys.recurrence import Params
probe._step = lambda h, E, last: None
report = probe.conjecture_probe(Params(2, "59/62"), 40)
print(json.dumps([report.classification, report.certified, "mpmath" in sys.modules]))
"""


def test_the_count_loads_no_mpmath():
    env = dict(os.environ)
    src = str(Path(chebsys.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", UNCERTIFIED], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["PASS", 0, False]


@pytest.mark.parametrize(
    "h, reason",
    [
        (from_roots(2, 5) * Poly((1, 1, 1)), "complex-root"),  # x^2 + x + 1
        (from_roots(2, 5, 5, 7), "repeated-root"),
    ],
    ids=["complex-pair", "double-root"],
)
def test_an_index_without_real_simple_zeros_is_a_counterexample(monkeypatch, no_solve, h, reason):
    p = Params(2, "1")
    records = gen_type1_records(p, 30)
    bad = next(rec.r for rec in records if rec.tau == h.degree)
    fed = [rec._replace(h=h) if rec.r in (bad, 30) else rec for rec in records]
    monkeypatch.setattr(probe, "gen_type1_records", lambda p, r_max: fed)
    switch_off_the_signs(monkeypatch)
    report = conjecture_probe(p, 30)
    assert report.classification == "COUNTEREXAMPLE"
    assert report.reason == reason
    assert report.offending_r == bad
    assert report.max_imag_normalized is None
    assert report.min_separation_normalized is None
    assert report.certified == 0


@pytest.mark.parametrize(
    "c", ["1", "3/7", "5/2", 10**400, Fraction(1, 10**400)], ids=["1", "3/7", "5/2", "huge", "tiny"]
)
@pytest.mark.parametrize("m", [2, 3, 4])
def test_the_step_proves_every_index_without_a_count(monkeypatch, m, c):
    def count(h):
        raise AssertionError("the step missed an index")

    monkeypatch.setattr(probe, "_sturm_count", count)
    report = conjecture_probe(Params(m, c), 120)
    assert report.classification == "PASS"
    assert report.certified == report.checked > 90
    assert report.first_uncertified_r is None
    # the zeros are proven distinct; at c = 1/10**400 their gaps underflow
    sep = report.min_separation_normalized
    assert sep is None if c == Fraction(1, 10**400) else 0 < sep < 1


def test_a_count_that_comes_out_short_falls_back_to_the_sturm_count(monkeypatch):
    # no point lies inside the outer bound, so only h of degree 1 changes
    # sign as often as its degree; every other index goes to the count
    p = Params(3, "23/41")
    records = [rec for rec in gen_type1_records(p, 60) if rec.tau >= 1]
    proved = conjecture_probe(p, 60)
    monkeypatch.setattr(probe, "_inside", lambda point, e: False)
    counted = []
    count = probe._sturm_count

    def sturm_count(h):
        counted.append(h)
        return count(h)

    monkeypatch.setattr(probe, "_sturm_count", sturm_count)
    report = conjecture_probe(p, 60)
    short = [rec for rec in records if rec.h.degree > 1]
    assert counted == [rec.h for rec in short]
    assert report == proved._replace(
        min_separation_normalized=None,
        certified=len(records) - len(short),
        first_uncertified_r=short[0].r,
    )


@pytest.mark.parametrize(
    "h, reason",
    [
        (from_roots(2, 5) * Poly((1, 1, 1)), "complex-root"),
        (from_roots(2, 5, 5, 7), "repeated-root"),
    ],
    ids=["complex-pair", "double-root"],
)
def test_the_step_leaves_a_counterexample_to_the_count(monkeypatch, no_solve, h, reason):
    # the step cannot count more sign changes than h has real zeros, so the
    # index goes to the count, and the next is proved from the index before
    p = Params(2, "1")
    records = gen_type1_records(p, 30)
    bad = next(rec.r for rec in records if rec.tau == h.degree)
    fed = [rec._replace(h=h) if rec.r == bad else rec for rec in records]
    monkeypatch.setattr(probe, "gen_type1_records", lambda p, r_max: fed)
    report = conjecture_probe(p, 30)
    assert report.classification == "COUNTEREXAMPLE"
    assert report.reason == reason
    assert report.offending_r == bad == report.first_uncertified_r
    assert report.certified == report.checked - 1
    assert report.max_imag_normalized is None
    assert report.min_separation_normalized is None


def test_split_points_are_short_and_in_the_middle_half():
    rng = random.Random(3)
    for _ in range(2000):
        (a, k), (b, j) = sorted(
            ((rng.randint(-300, 300), rng.randint(0, 8)) for _ in range(2)),
            key=lambda point: Fraction(point[0], 2 ** point[1]),
        )
        lo, hi = Fraction(a, 2**k), Fraction(b, 2**j)
        if lo == hi:
            continue
        x, n = probe._split((a, k), (b, j))
        quarter = (hi - lo) / 4
        assert lo + quarter <= Fraction(x, 2**n) <= hi - quarter
        # no multiple of 2**-(n-1) lies in the middle half
        if n:
            coarse = math.ceil((lo + quarter) * 2 ** (n - 1))
            assert Fraction(coarse, 2 ** (n - 1)) > hi - quarter
