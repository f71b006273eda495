"""The exact sign certificate of real, simple roots, and the probe built on it.

The probe proves that h_r has d distinct real zeros from nonzero signs that
change d times along dyadic points; its step takes the points from the
isolating intervals of the index before, at every m.  It must leave every
index without that property to Sturm's theorem, and it must certify the
whole acceptance range with no numeric solve.  With the signs switched off,
or with a step whose count comes out short, the Sturm bisection must prove
and isolate the same indices exactly, without a root solve or mpmath, and
the report must differ only in what the step certified.  At m = 1 the
closed form of the zeros, ``4c cos(k pi/(r+1))**2``, is the oracle of the
least gap the probe measures.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import chebsys
from chebsys import probe
from chebsys import roots as roots_module
from chebsys.exactpoly import Poly, compose_star, dyadic_sign
from chebsys.recurrence import Params, gen_type1_records, gen_type2
from chebsys.roots import conjecture_probe


def from_roots(*values):
    poly = Poly((1,))
    for v in values:
        poly = poly * Poly((-Fraction(v), 1))
    return poly


def value_at(poly: Poly, x: Fraction) -> Fraction:
    """``poly(x)`` at a rational x, exactly, term by term."""
    return sum(Fraction(n, poly.den) * x**i for i, n in enumerate(poly.nums))


def graded(h: Poly, p: Params) -> Poly:
    """h(x/c), c = P/Q, up to a positive factor: the x**j coefficient times
    Q**j * P**(d-j)."""
    (P, Q), d = p.ratio, h.degree
    return Poly.scaled([n * Q**j * P ** (d - j) for j, n in enumerate(h.nums)], h.den)


def test_dyadic_sign_is_the_sign_of_the_exact_value():
    rng = random.Random(5)
    for _ in range(300):
        nums = [rng.randint(-50, 50) for _ in range(rng.randint(1, 7))]
        poly = Poly.scaled(nums, rng.randint(1, 9))
        a, k = rng.randint(-200, 200), rng.randint(0, 6)
        value = value_at(poly, Fraction(a, 2**k))
        assert dyadic_sign(poly, a, k) == (value > 0) - (value < 0)


def test_c1_has_exact_dyadic_roots_and_still_certifies():
    # 4 cos(pi/4)**2 = 2, 4 cos(pi/3)**2 = 1, 4 cos(pi/6)**2 = 3; at c = 1
    # the probe's y = x/c is x itself and its polynomial is h_r, so each
    # zero lies in one of its intervals, perhaps as its end or as the one
    # point of an interval (y, y)
    p = Params(1, "1")
    records = gen_type1_records(p, 11)
    report, proved = probe.isolate(p, records)
    assert report.classification == "PASS"
    assert report.certified == report.checked == 10
    for r, y in ((3, 2), (2, 1), (5, 3), (5, 1), (7, 2), (11, 2), (11, 3), (11, 1)):
        assert dyadic_sign(records[r].h, y, 0) == 0, (r, y)
        iso = proved[r]
        assert iso.g == records[r].h and len(iso.intervals) == records[r].h.degree
        holding = [
            (lo, hi) for lo, hi, _ in iso.intervals
            if Fraction(lo[0], 2 ** lo[1]) <= y <= Fraction(hi[0], 2 ** hi[1])
        ]
        assert len(holding) == 1, (r, y)


@pytest.mark.parametrize(
    "c", [10**400, Fraction(1, 10**400), 4 * 10**307], ids=["huge", "tiny", "4c-overflows"]
)
def test_a_c_beyond_double_range_certifies_in_the_scaled_variable(c):
    # the zeros 4c*cos(k pi/(r+1))**2 overflow or underflow a double; in
    # y = x/c they are those of c = 1, of the order of one
    p = Params(1, c)
    records = gen_type1_records(p, 12)
    report, proved = probe.isolate(p, records)
    assert report == conjecture_probe(p, 12)
    assert report.classification == "PASS"
    assert report.certified == report.checked == 11
    for rec in records[2:]:
        assert len(proved[rec.r].intervals) == rec.h.degree
    # beyond 1 the normalized gaps no longer depend on c; below 1/4 they
    # shrink with it, here below the range of a double
    if c > 1:
        gaps = [
            1 - math.cos((k + 1) * math.pi / (r + 1)) ** 2 / math.cos(k * math.pi / (r + 1)) ** 2
            for r in range(2, 13)
            for k in range(1, r // 2)
        ]
        assert report.min_separation_normalized == pytest.approx(min(gaps))
    else:
        assert report.min_separation_normalized is None


def closed_form_least_gap(p: Params, r_max: int):
    """The least normalized gap between consecutive zeros of h_r, r <= r_max,
    m = 1, from the closed form ``4c cos(k pi/(r+1))**2``, k = 1..deg h_r,
    in mpmath at 50 digits."""
    with mpmath.workdps(50):
        c4 = 4 * mpmath.mpf(p.c.numerator) / p.c.denominator
        least = mpmath.inf
        for rec in gen_type1_records(p, r_max):
            xs = sorted(
                c4 * mpmath.cos(k * mpmath.pi / (rec.r + 1)) ** 2
                for k in range(1, rec.h.degree + 1)
            )
            # the zeros are >= 0, so y is the larger in modulus
            for x, y in zip(xs, xs[1:]):
                least = min(least, (y - x) / max(1, y))
        return least


@pytest.mark.parametrize("c, r_max", [("1", 40), ("3/2", 60), ("59/62", 120)])
def test_m1_separation_is_the_closed_form_to_the_last_bits(c, r_max):
    # the gap is measured between enclosures 2**-64 of their zeros wide, so
    # it carries the closed form's value to a few units of 2**-53
    p = Params(1, c)
    sep = conjecture_probe(p, r_max).min_separation_normalized
    exact = closed_form_least_gap(p, r_max)
    assert abs(sep - exact) <= 4 * 2.0**-53 * exact


@pytest.mark.parametrize("m, c, r_max", [(1, "1", 60), (2, "1", 60), (3, "1", 60), (1, "1", 200)])
def test_probe_certifies_the_acceptance_range_without_a_solve(m, c, r_max):
    report = conjecture_probe(Params(m, c), r_max)
    assert report.checked > 0
    assert report.certified == report.checked
    assert report.first_uncertified_r is None
    assert report.classification == "PASS"
    assert report.max_imag_normalized == 0.0


def switch_off_the_signs(monkeypatch):
    """The step proves nothing."""
    monkeypatch.setattr(probe, "_step", lambda g, last: None)


# the probe's indices checked at (m, c, r_max)
CHECKED = {(1, "1", 40): 39, (2, "59/62", 40): 34, (1, "3/2", 12): 11}


@pytest.mark.parametrize("key", list(CHECKED))
def test_without_the_certificate_the_probe_is_the_numeric_path(monkeypatch, key):
    # every index the signs miss is isolated by Sturm's theorem, and the
    # least gap is measured from those intervals as from the step's
    m, c, r_max = key
    proved = conjecture_probe(Params(m, c), r_max)
    switch_off_the_signs(monkeypatch)
    report = conjecture_probe(Params(m, c), r_max)
    first = next(rec.r for rec in gen_type1_records(Params(m, c), r_max) if rec.tau >= 1)
    assert report == probe.ProbeReport(
        classification="PASS",
        max_imag_normalized=0.0,
        min_separation_normalized=proved.min_separation_normalized,
        offending_r=None,
        reason=None,
        checked=CHECKED[key],
        certified=0,
        first_uncertified_r=first,
    )
    assert 0 < report.min_separation_normalized < 1


def spy_sturm(monkeypatch) -> list:
    """The polynomials, in y, that the probe isolates by Sturm's theorem."""
    counted = []
    isolated = probe._sturm_isolated

    def sturm_isolated(g):
        counted.append(g)
        return isolated(g)

    monkeypatch.setattr(probe, "_sturm_isolated", sturm_isolated)
    return counted


def test_only_uncertified_indices_are_solved(monkeypatch):
    p = Params(2, "59/62")
    records = gen_type1_records(p, 40)
    proved = probe.isolate(p, records)[1]
    # the step is given the c = 1 polynomials
    refused = {proved[r].g for r in (17, 23, 40)}
    step = probe._step
    monkeypatch.setattr(
        probe, "_step", lambda g, last: None if g in refused else step(g, last)
    )
    counted = spy_sturm(monkeypatch)
    report, isolated = probe.isolate(p, records)
    assert counted == [proved[r].g for r in (17, 23, 40)]
    assert report.checked == 34 and report.certified == 31
    assert report.first_uncertified_r == 17
    assert report.classification == "PASS"
    assert report.max_imag_normalized == 0.0
    assert 0 < report.min_separation_normalized < 1
    # every index has intervals, the step going on from the Sturm ones
    assert set(isolated) == set(proved)
    assert all(len(isolated[r].intervals) == records[r].h.degree for r in isolated)


# the probe with the step switched off, in a fresh interpreter
UNCERTIFIED = """
import json, sys
from chebsys import probe
from chebsys.recurrence import Params
probe._step = lambda g, last: None
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
def test_an_index_without_real_simple_zeros_is_a_counterexample(monkeypatch, h, reason):
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
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_step_proves_every_index_without_a_count(monkeypatch, m, c):
    def count(g):
        raise AssertionError("the step missed an index")

    monkeypatch.setattr(probe, "_sturm_isolated", count)
    tiny = c == Fraction(1, 10**400)
    report = conjecture_probe(Params(m, c), 120)
    assert report.classification == "PASS"
    assert report.certified == report.checked > 90
    assert report.first_uncertified_r is None
    # the zeros are proven distinct; at c = 1/10**400 their gaps underflow
    sep = report.min_separation_normalized
    assert sep is None if tiny else 0 < sep < 1


def test_a_count_that_comes_out_short_falls_back_to_the_sturm_count(monkeypatch):
    # no point lies inside the outer bound, so only h of degree 1 changes
    # sign as often as its degree; every other index goes to Sturm's theorem
    p = Params(3, "23/41")
    records = [rec for rec in gen_type1_records(p, 60) if rec.tau >= 1]
    proved, isolated = probe.isolate(p, records)
    monkeypatch.setattr(probe, "_inside", lambda point, e: False)
    counted = spy_sturm(monkeypatch)
    report = conjecture_probe(p, 60)
    short = [rec for rec in records if rec.h.degree > 1]
    assert counted == [isolated[rec.r].g for rec in short]
    assert report == proved._replace(
        certified=len(records) - len(short),
        first_uncertified_r=short[0].r,
    )


COUNTEREXAMPLES = {
    "complex-pair": (from_roots(2, 5) * Poly((1, 1, 1)), "complex-root"),
    "double-root": (from_roots(2, 5, 5, 7), "repeated-root"),
    "triple-root-at-0": (from_roots(0, 0, 0, 3), "repeated-root"),
    "no-real-root": (Poly((1, 0, 1)) * Poly((4, 0, 1)), "complex-root"),
}


@pytest.mark.parametrize(
    "m, c, h, reason",
    [(2, "1", *COUNTEREXAMPLES[key]) for key in ("complex-pair", "double-root")]
    + [(1, c, *case) for c in ("1", "3/7") for case in COUNTEREXAMPLES.values()],
    ids=["complex-pair", "double-root"]
    + [f"m1-{c}-{key}" for c in ("1", "3/7") for key in COUNTEREXAMPLES],
)
def test_the_step_leaves_a_counterexample_to_the_count(monkeypatch, m, c, h, reason):
    # the step cannot count more sign changes than h has real zeros, so the
    # index goes to the count, and the next is proved from the index before;
    # at c the fed h_r is h(x/c), whose zeros are those of h times c
    p = Params(m, c)
    records = gen_type1_records(p, 30)
    bad = next(rec.r for rec in records if rec.tau == h.degree)
    fed = [rec._replace(h=graded(h, p)) if rec.r == bad else rec for rec in records]
    monkeypatch.setattr(probe, "gen_type1_records", lambda q, r_max: fed)
    report = conjecture_probe(p, 30)
    assert report.classification == "COUNTEREXAMPLE"
    assert report.reason == reason
    assert report.offending_r == bad == report.first_uncertified_r
    assert report.certified == report.checked - 1
    assert report.max_imag_normalized is None
    assert report.min_separation_normalized is None


def fed_counterexample(p: Params, records: list) -> list:
    """The records with the complex-pair h in place of the first h_r of its
    degree (r = 24 at m = 2), and t_r composed from it."""
    h, _ = COUNTEREXAMPLES["complex-pair"]
    bad = next(rec for rec in records if rec.tau == h.degree)
    return [
        rec._replace(h=h, t=compose_star(h, p.m, rec.k, rec.ell)) if rec is bad else rec
        for rec in records
    ]


def test_a_counterexample_is_unproved():
    # the one index the probe isolates nothing of has no zeros, and its
    # failure names it; its neighbours keep their intervals and their zeros
    p = Params(2, "1")
    fed = fed_counterexample(p, gen_type1_records(p, 30))
    report, isolated = probe.isolate(p, fed)
    assert report.offending_r == 24 and 24 not in isolated
    assert {23, 25} <= set(isolated)
    results = roots_module.solve_indices(p, fed, [23, 24, 25], 53, isolated)
    failure = results[1][1]
    assert isinstance(failure, roots_module.ConvergenceFailure)
    assert str(failure) == "the probe proved no zeros of h_24"
    assert failure.poly == fed[24].h
    for r, got in (results[0], results[2]):
        assert got.total_root_count == fed[r].t.degree, r


def test_an_index_the_probe_left_is_not_probed_again(monkeypatch):
    # the counterexample is isolated by Sturm's theorem once, in isolate;
    # solve_indices reports it unproved without a second probe
    p = Params(2, "1")
    fed = fed_counterexample(p, gen_type1_records(p, 30))
    sturm = spy_sturm(monkeypatch)
    report, isolated = probe.isolate(p, fed)
    assert report.offending_r == 24
    results = roots_module.solve_indices(p, fed, [24], 53, isolated)
    assert isinstance(results[0][1], roots_module.ConvergenceFailure)
    assert len(sturm) == 1


@pytest.mark.parametrize("key", ["complex-pair", "double-root"])
def test_sturm_isolates_the_indices_after_a_counterexample(monkeypatch, key):
    # with the step switched off every index goes to Sturm's theorem, those
    # after the first counterexample too: each has its intervals, and the
    # report names the first counterexample alone
    p = Params(2, "1")
    records = gen_type1_records(p, 40)
    proved = probe.isolate(p, records)[1]
    h, reason = COUNTEREXAMPLES[key]
    bad = [rec.r for rec in records if rec.tau == h.degree][:2]
    fed = [rec._replace(h=h) if rec.r in bad else rec for rec in records]
    switch_off_the_signs(monkeypatch)
    report, isolated = probe.isolate(p, fed)
    assert (report.classification, report.offending_r, report.reason) == (
        "COUNTEREXAMPLE", bad[0], reason
    )
    assert report.certified == 0 and report.first_uncertified_r == min(proved)
    later = [rec.r for rec in records if rec.r > bad[0] and rec.tau >= 1 and rec.r not in bad]
    assert later and set(isolated) == set(proved) - set(bad)
    for r in later:
        assert isolated[r].intervals == probe._sturm_isolated(records[r].h)[0], r


def test_a_forged_index_is_judged_on_its_own_zeros(monkeypatch):
    # the x**1 coefficient of one h_r times P: no c = 1 table is generated,
    # and the probe's verdict on that index is Sturm's count on the forged h
    p = Params(2, "3/7")
    P, _ = p.ratio
    records = gen_type1_records(p, 30)
    r = next(rec.r for rec in records if rec.tau >= 2 and rec.r > 2 * p.m)
    fed = tampered(p, r, 1, (P, 1))
    rec = fed[r]
    fed[r] = rec._replace(t=compose_star(rec.h, p.m, rec.k, rec.ell))
    generated = []
    monkeypatch.setattr(
        probe, "gen_type1_records", lambda q, r_max: generated.append(q) or gen_type1_records(q, r_max)
    )
    report, isolated = probe.isolate(p, fed)
    assert generated == []
    real = distinct_real_zeros(rec.h) == rec.h.degree
    assert report.classification == ("PASS" if real else "COUNTEREXAMPLE")
    # every index of degree >= 1 is proved, the forged one where its zeros
    # are real and simple, and the forged t_r has its zeros there
    indices = [rec.r for rec in fed if rec.tau >= 1]
    assert sorted(isolated) == [n for n in indices if real or n != r]
    if real:
        assert_isolates(rec.h, p.c, isolated[r])
    results = dict(roots_module.solve_indices(p, fed, indices, 53, isolated))
    for n in indices:
        if n == r and not real:
            assert isinstance(results[n], roots_module.ConvergenceFailure)
        else:
            assert results[n].total_root_count == fed[n].t.degree, n


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


# ---------------------------------------------------------------- the core
#
# prove takes any sequence of integer polynomials whose consecutive members
# should interlace, without records or grading: here the companion family,
# T_n(x) = x**s * Q_n(x**(m+1)), s = n mod (m+1), whose zeros lie on the
# star and interlace (Ben Romdhane, J. Math. Anal. Appl. 344, 2008)


def companion(m: int, n_max: int) -> list:
    """``(n, Q_n)`` for every Q_n of degree >= 1 with n <= n_max, at c = 1."""
    pairs = []
    for n, t in enumerate(gen_type2(Params(m, 1), n_max)):
        s = n % (m + 1)
        assert not any(x for j, x in enumerate(t.nums) if j % (m + 1) != s), n
        q = Poly.scaled(t.nums[s :: m + 1], t.den)
        if q.degree >= 1:
            pairs.append((n, q))
    return pairs


def test_the_core_proves_the_companion_family(monkeypatch):
    counted = spy_sturm(monkeypatch)
    pairs = companion(2, 120)
    proved, missed, offending, reason = probe.prove(pairs)
    assert len(pairs) == 118
    assert counted == [] and missed == []
    assert (offending, reason) == (None, None)
    assert proved.keys() == dict(pairs).keys()
    for n, q in pairs:
        assert proved[n].g == q and len(proved[n].intervals) == q.degree, n
    # the core measures nothing; its intervals measure as the record layer's do
    assert 0 < probe._least_gap(list(proved.values()), (1, 1)) < 1


def test_the_core_names_a_forged_companion_term():
    # Q_60 times x**2 + x + 1, which has a complex pair
    pairs = [(n, q * Poly((1, 1, 1)) if n == 60 else q) for n, q in companion(2, 120)]
    proved, missed, offending, reason = probe.prove(pairs)
    assert (offending, reason) == (60, "complex-root")
    assert missed[0] == 60 and 60 not in proved
    assert len(proved) == len(pairs) - 1


# ---------------------------------------------------------------- the c-grading
#
# h_r(x; c) = kappa_r * h_r(x/c; 1) with kappa_r > 0, so the polynomial the
# probe proves for h_r, g_r(y) = c**(d-tau) * h_r(c*y), is the c = 1
# polynomial h_r(y; 1) on every generated table.  No check at run time
# compares the tables: these tests hold the lemma, exactly.


def distinct_real_zeros(h: Poly) -> int:
    """The number of distinct real zeros of h: Sturm's theorem between -inf
    and inf, on the remainder sequence of (h, h') in Fractions, from the
    signs of its leading coefficients."""
    a = list(h.coeffs)
    chain = [a, [j * x for j, x in enumerate(a)][1:]]
    while len(chain[-1]) > 1:
        rest, b = chain[-2][:], chain[-1]
        while len(rest) >= len(b):
            q = rest[-1] / b[-1]
            for i, x in enumerate(b):
                rest[len(rest) - len(b) + i] -= q * x
            rest.pop()
        while rest and not rest[-1]:
            rest.pop()
        if not rest:
            break
        chain.append([-x for x in rest])

    def changes(signs):
        return sum(s != t for s, t in zip(signs, signs[1:]))

    at_inf = [f[-1] > 0 for f in chain]
    at_minus_inf = [(f[-1] > 0) == (len(f) % 2 == 1) for f in chain]
    return changes(at_minus_inf) - changes(at_inf)


def sign(x) -> int:
    return (x > 0) - (x < 0)


def assert_isolates(h: Poly, c: Fraction, iso) -> None:
    """Each interval of ``iso``, in y = x/c, holds one zero of h in x: h has
    the interval's signs at its ends, and h has as many intervals as its
    degree."""
    assert len(iso.intervals) == h.degree
    for (a, k), (b, j), s in iso.intervals:
        lo, hi = c * Fraction(a, 2**k), c * Fraction(b, 2**j)
        if lo == hi:
            assert value_at(h, lo) == 0
        else:
            assert (sign(value_at(h, lo)), sign(value_at(h, hi))) == (s, -s)


@pytest.mark.parametrize(
    "c",
    ["3/7", "59/62", 10**40, Fraction(1, 10**40), 10**400, Fraction(1, 10**400)],
    ids=["3/7", "59/62", "1e40", "1e-40", "1e400", "1e-400"],
)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_every_c_isolates_the_zeros_of_c_1(m, c):
    one = probe.isolate(Params(m, 1), gen_type1_records(Params(m, 1), 60))[1]
    report, proved = probe.isolate(Params(m, c), gen_type1_records(Params(m, c), 60))
    assert report.classification == "PASS"
    assert report.certified == report.checked == len(one)
    assert proved.keys() == one.keys()
    for r, iso in proved.items():
        assert iso.g == one[r].g, r
        assert iso.intervals == one[r].intervals, r


@pytest.mark.parametrize(
    "m, c",
    [(m, c) for m in range(1, 6) for c in ("3/7", "7/3", "59/62", 10**40, Fraction(1, 10**40))]
    + [(m, c) for m in (1, 2) for c in (10**400, Fraction(1, 10**400))],
    ids=[f"{m}-{c}" for m in range(1, 6) for c in ("3/7", "7/3", "59/62", "1e40", "1e-40")]
    + [f"{m}-{c}" for m in (1, 2) for c in ("1e400", "1e-400")],
)
def test_the_probe_proves_the_c1_polynomial_of_every_index(m, c):
    ones = gen_type1_records(Params(m, 1), 120)
    p = Params(m, c)
    proved = probe.isolate(p, gen_type1_records(p, 120))[1]
    assert sorted(proved) == [rec.r for rec in ones if rec.tau >= 1]
    for r, iso in proved.items():
        assert iso.g == ones[r].h, r


@pytest.mark.parametrize("c", ["3/7", 10**40], ids=["3/7", "1e40"])
def test_the_probe_generates_no_table(monkeypatch, c):
    p = Params(2, c)
    records = gen_type1_records(p, 60)

    def generate(q, r_max):
        raise AssertionError("the probe generated a table")

    monkeypatch.setattr(probe, "gen_type1_records", generate)
    report, proved = probe.isolate(p, records)
    assert report.classification == "PASS"
    assert len(proved) == report.certified == report.checked


@pytest.mark.parametrize(
    "c",
    ["1", "3/7", "59/62", "640/17", Fraction(1, 10**40), 10**40],
    ids=["1", "3/7", "59/62", "640/17", "1e-40", "1e40"],
)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_every_generated_index_has_intervals(m, c):
    # roots reports the zeros of proved indices only, so every index of a
    # generated table must be proved
    p = Params(m, c)
    report, isolated = probe.isolate(p, gen_type1_records(p, 100))
    assert report.classification == "PASS"
    assert len(isolated) == report.checked > 0


def tampered(p: Params, r: int, j: int, factor: tuple) -> list:
    """The records at p up to 30, with the x**j coefficient of h_r times the
    rational ``factor``."""
    num, den = factor
    records = gen_type1_records(p, 30)
    h = records[r].h
    nums = [n * (num if i == j else den) for i, n in enumerate(h.nums)]
    h = Poly.scaled(nums, h.den * den)
    return [rec._replace(h=h) if rec.r == r else rec for rec in records]


@pytest.mark.parametrize("c", ["3/7", "7/3", 10**40], ids=["3/7", "7/3", "1e40"])
@pytest.mark.parametrize("by", ["P", "c"])
@pytest.mark.parametrize("m", [1, 2])
def test_a_table_off_the_grading_is_not_graded(monkeypatch, m, c, by):
    # h_r with its x**1 coefficient times P or c is off the grading: its g_r
    # is not the c = 1 polynomial, and the probe proves or refutes it on its
    # own zeros, as Sturm's count on the forged h has it
    p = Params(m, c)
    P, Q = p.ratio
    records = gen_type1_records(p, 30)
    r = next(rec.r for rec in records if rec.tau >= 2 and rec.r > 2 * m)
    fed = tampered(p, r, 1, (P, 1) if by == "P" else (P, Q))
    h = fed[r].h
    report, proved = probe.isolate(p, fed)
    indices = [rec.r for rec in records if rec.tau >= 1]
    ones = gen_type1_records(Params(m, 1), 30)
    if distinct_real_zeros(h) == h.degree:
        assert report.classification == "PASS" and report.certified == report.checked
        assert sorted(proved) == indices
        assert proved[r].g != ones[r].h
        assert_isolates(h, p.c, proved[r])
    else:
        assert (report.classification, report.offending_r, report.reason) == (
            "COUNTEREXAMPLE", r, "complex-root"
        )
        assert sorted(proved) == [n for n in indices if n != r]
    assert report.checked == len(indices)
    for n in indices:
        if n != r:
            assert proved[n].g == ones[n].h, n
    # the same through conjecture_probe
    monkeypatch.setattr(probe, "gen_type1_records", lambda q, r_max: fed)
    assert conjecture_probe(p, 30) == report


def spy_least_gap(monkeypatch) -> list:
    """The calls of the record layer's least-gap search."""
    calls = []
    least_gap = probe._least_gap

    def spied(proved, ratio):
        calls.append(ratio)
        return least_gap(proved, ratio)

    monkeypatch.setattr(probe, "_least_gap", spied)
    return calls


def test_a_table_off_the_grading_late_measures_nothing(monkeypatch):
    # m = 1, c = 3/7, R = 200, a complex pair forged into h_190: it is the
    # counterexample, every other index is proved, and no gap is measured
    p = Params(1, "3/7")
    records = gen_type1_records(p, 200)
    forged = records[190].h * Poly((1, 1, 1))  # x**2 + x + 1 has no real zero
    fed = [rec._replace(h=forged) if rec.r == 190 else rec for rec in records]
    calls = spy_least_gap(monkeypatch)
    report, proved = probe.isolate(p, fed)
    indices = [rec.r for rec in records if rec.tau >= 1]
    assert report == probe.ProbeReport(
        classification="COUNTEREXAMPLE",
        max_imag_normalized=None,
        min_separation_normalized=None,
        offending_r=190,
        reason="complex-root",
        checked=len(indices),
        certified=len(indices) - 1,
        first_uncertified_r=190,
    )
    assert sorted(proved) == [r for r in indices if r != 190]
    assert calls == []
    # the table as generated passes and is measured once
    report = probe.isolate(p, records)[0]
    assert report.classification == "PASS" and 0 < report.min_separation_normalized < 1
    assert calls == [(3, 7)]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_table_at_another_c_is_not_graded(m):
    # the records of c = 3/7 given as those of c = 7/3: each g_r is a
    # positive multiple of h_r(49/9 * y; 1), not the c = 1 polynomial from
    # the first index with two nonzero coefficients on, and each is proved
    records = gen_type1_records(Params(m, "3/7"), 30)
    ones = gen_type1_records(Params(m, 1), 30)
    report, proved = probe.isolate(Params(m, "7/3"), records)
    assert report.classification == "PASS" and report.certified == report.checked
    first = next(rec.r for rec in records if sum(map(bool, rec.h.nums)) >= 2)
    assert proved[first].g != ones[first].h
    for r, iso in proved.items():
        assert primitive(iso.g) == primitive(graded(ones[r].h, Params(m, "9/49"))), r
        assert_isolates(records[r].h, Fraction(7, 3), iso)


def primitive(poly: Poly) -> tuple:
    """The integer coefficients of poly over their positive gcd: equal for
    two polynomials exactly when one is a positive multiple of the other."""
    g = math.gcd(*poly.nums)
    return tuple(n // g for n in poly.nums)


def in_y(h: Poly, c: Fraction, s: int) -> Poly:
    """c**s * h(c*y), term by term in Fractions."""
    return Poly([x * c ** (s + j) for j, x in enumerate(h.coeffs)])


def test_the_substitution_is_exact_in_each_coefficient():
    # B(y) = 6 - 5y + y**2 has the zeros 2 and 3.  At c = 3/7 the h whose g
    # is B is c**-s * B(x/c), s = d - tau, and kappa * h gives kappa * B for
    # every rational kappa, through exact divisions, with the powers of c
    # carried from one record to the next, up or down; an h off the grading
    # gives c**s * h(c*y) in full
    c, B = Fraction(3, 7), Poly((6, -5, 1))
    rec = gen_type1_records(Params(1, 1), 4)[4]  # d = 4, tau = 2
    h = in_y(B, 1 / c, 2)
    off = Poly.scaled([n * (3 if j == 1 else 1) for j, n in enumerate(h.nums)], h.den)
    cases = [
        (4, h, B),
        (4, h * Poly((5,)), B * Poly((5,))),
        (4, -h, -B),
        (4, off, in_y(off, c, 2)),
        (7, in_y(B, 1 / c, 5), B),
        (4, h, B),
        (4, B, in_y(B, c, 2)),
    ]
    fed = [rec._replace(r=n, d=d, h=poly) for n, (d, poly, _) in enumerate(cases)]
    got = dict(probe._in_y(fed, 3, 7))
    assert [got[n] for n in range(len(cases))] == [want for _, _, want in cases]
    assert value_at(got[6], 2 / c) == value_at(got[6], 3 / c) == 0
