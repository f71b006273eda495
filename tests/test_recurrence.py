import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebsys.exactpoly import Poly, compose_star
from chebsys.rationals import as_rational
from chebsys.recurrence import (
    Params,
    decompose_index,
    gen_type1_records,
    gen_type1_scalar,
    gen_type1_vectors,
    gen_type2,
    verify_h_recurrence,
    verify_shift,
)


def P(*coeffs):
    return Poly(coeffs)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(0, "1")
    with pytest.raises(ValueError):
        Params(2, "-1/2")
    with pytest.raises(ValueError):
        Params(2, "0")
    p = Params(3, "3/2")
    assert p.c == as_rational("3/2")


class TestScalarGenerator:
    def test_m2_values(self):
        ts = gen_type1_scalar(Params(2, "1"), 6)
        assert ts[0] == P(1)
        assert ts[1] == Poly()
        assert ts[2] == P(0, 1)
        assert ts[5] == P(0, -2)
        assert ts[6] == P(1, 0, 0, 1)

    def test_scaling_with_c(self):
        ts = gen_type1_scalar(Params(2, "3/2"), 5)
        assert ts[2] == P(0, "2/3")
        assert ts[5] == P(0, "-8/9")  # -2 z / c^2

    def test_zero_pattern_matches_tau(self):
        # the vanishing indices are exactly those with tau = -1; for m >= 3
        # they extend beyond 1..m-1 (e.g. r = 5 when m = 3)
        for m in (2, 3, 5):
            ts = gen_type1_scalar(Params(m, "1"), 40)
            for r, t in enumerate(ts):
                tau = decompose_index(r, m)[2]
                assert t.is_zero == (tau == -1), (m, r)

    def test_m3_has_zero_beyond_initial_block(self):
        ts = gen_type1_scalar(Params(3, "1"), 6)
        assert ts[5].is_zero
        assert decompose_index(5, 3) == (1, 2, -1, 3)


class TestVectorGenerator:
    def test_initial_unit_vectors(self):
        recs = gen_type1_vectors(Params(2, "1"), 3)
        assert recs[0].components == (P(1), Poly())
        assert recs[1].components == (Poly(), P(1))

    def test_one_step(self):
        recs = gen_type1_vectors(Params(2, "1"), 3)
        assert recs[2].components == (P(0, 1), Poly())
        assert recs[3].components == (P(-1), P(0, 1))

    def test_first_component_agrees_with_scalar(self):
        for m, c in ((1, "1"), (2, "3/2"), (3, "1/2")):
            p = Params(m, c)
            scalars = gen_type1_scalar(p, 25)
            vectors = gen_type1_vectors(p, 25)
            assert [rec.components[0] for rec in vectors] == scalars


class TestType2Generator:
    def test_monomial_head(self):
        ts = gen_type2(Params(2, "1"), 3)
        assert ts[2] == P(0, 0, 1)
        assert ts[3] == P(-1, 0, 0, 1)

    def test_m1_matches_monic_second_kind(self):
        ts = gen_type2(Params(1, "1"), 2)
        assert ts[2] == P(-1, 0, 1)

    def test_recurrence_holds(self):
        p = Params(3, "1/2")
        ts = gen_type2(p, 20)
        x = Poly((0, 1))
        for n in range(0, 19):
            prev = ts[n - p.m] if n - p.m >= 0 else Poly()
            assert ts[n + 1] == x * ts[n] - p.c * prev


class TestDecomposeIndex:
    @pytest.mark.parametrize(
        "r,m,expected",
        [
            (0, 2, (0, 0, 0, 0)),
            (5, 2, (2, 1, 0, 1)),
            (1, 2, (0, 1, -1, 2)),
        ],
    )
    def test_examples(self, r, m, expected):
        assert decompose_index(r, m) == expected

    @given(st.integers(0, 10**6), st.integers(1, 50))
    @settings(max_examples=120)
    def test_round_trip(self, r, m):
        d, k, tau, ell = decompose_index(r, m)
        assert r == d * m + k
        assert 0 <= k <= m - 1
        assert d - k == (m + 1) * tau + ell
        assert 0 <= ell <= m
        assert tau >= -1


class TestExtractH:
    """h_r as the records carry it: the closed form's, which is the
    polynomial read off t_r at the powers ell + (m+1)*j."""

    def test_cubic_plus_one(self):
        # t_6 = 1 + z^3 at m = 2
        assert gen_type1_records(Params(2, "1"), 6)[6].h == P(1, 1)

    def test_negated_constant(self):
        # t_3 = -1 at m = 2, with k = 1
        assert gen_type1_records(Params(2, "1"), 3)[3].h == P(1)

    def test_initial_one(self):
        assert gen_type1_records(Params(2, "1"), 0)[0].h == P(1)

    def test_zero_term(self):
        assert gen_type1_records(Params(2, "1"), 1)[1].h == Poly()

    def test_round_trip_everywhere(self):
        for m, c in ((1, "1"), (2, "1/2"), (4, "3")):
            p = Params(m, c)
            for rec in gen_type1_records(p, 50):
                assert compose_star(rec.h, m, rec.k, rec.ell) == rec.t
                if rec.tau >= 0:
                    assert rec.h.degree == rec.tau
                    assert rec.t.degree == rec.d - rec.k


def _picked_h(rec, m):
    """h_r read off the recurrence's t_r: its coefficients at the powers
    ell + (m+1)*j, times (-1)^k, over t_r's denominator."""
    sign = -1 if rec.k % 2 else 1
    return Poly.scaled([sign * v for v in rec.t.nums[rec.ell :: m + 1]], rec.t.den)


def _stepped_type2(p, N):
    """T_0 .. T_N stepped from T_{n+1} = x*T_n - c*T_{n-m} on the integer
    numerators U_n = Q**(n//(m+1)) * T_n."""
    m, (P_, Q) = p.m, p.ratio
    us = [[1]]
    for n in range(1, N + 1):
        a = Q if n % (m + 1) == 0 else 1
        u = [0] + [a * v for v in us[n - 1]]
        if n > m:
            for i, v in enumerate(us[n - m - 1]):
                u[i] -= P_ * v
        us.append(u)
    return [Poly.scaled(u, Q ** (n // (m + 1))) for n, u in enumerate(us)]


_C = {
    "1": 1, "3/7": "3/7", "7/3": "7/3", "59/62": "59/62",
    "1e40": 10**40, "1e-40": Fraction(1, 10**40),
    "1e400": 10**400, "1e-400": Fraction(1, 10**400),
}
_CLOSED_FORM_CASES = [
    pytest.param(m, _C[c], R, id=f"m{m}-c{c}-R{R}")
    for ms, cs, R in (
        (range(1, 7), ("1", "3/7", "7/3", "59/62", "1e40", "1e-40"), 200),
        ((1, 2), ("1e400", "1e-400"), 120),
    )
    for m in ms
    for c in cs
]


class TestClosedForm:
    """h_r and T_n come from their closed forms; the recurrence, stepped on
    its own, must give the same tables."""

    @pytest.mark.parametrize("m,c,R", _CLOSED_FORM_CASES)
    def test_h_is_the_one_read_off_t(self, m, c, R):
        for rec in gen_type1_records(Params(m, c), R):
            assert rec.h == _picked_h(rec, m), (m, c, rec.r)

    @pytest.mark.parametrize("m,c,R", _CLOSED_FORM_CASES)
    def test_type2_is_the_stepped_recurrence(self, m, c, R):
        p = Params(m, c)
        assert gen_type2(p, R) == _stepped_type2(p, R)

    def test_small_tables(self):
        # the first indices, where the recurrence has not yet started
        for m in range(1, 5):
            for R in range(0, m + 3):
                p = Params(m, "2/5")
                for rec in gen_type1_records(p, R):
                    assert rec.h == _picked_h(rec, m), (m, R, rec.r)
                assert gen_type2(p, R) == _stepped_type2(p, R)


class TestShiftIdentity:
    def test_m2(self):
        report = verify_shift(gen_type1_vectors(Params(2, "1"), 10))
        assert report.all_pass and report.checked == 10

    def test_m1_vacuous(self):
        report = verify_shift(gen_type1_vectors(Params(1, "1"), 10))
        assert report.all_pass and report.checked == 0

    def test_m3(self):
        report = verify_shift(gen_type1_vectors(Params(3, "2/3"), 30))
        assert report.all_pass and report.checked == 60


class TestHRecurrenceSigns:
    def test_m2_r6_plus_variant(self):
        p = Params(2, "1")
        hs = [rec.h for rec in gen_type1_records(p, 8)]
        report = verify_h_recurrence(hs, p)
        row6 = next(row for row in report.rows if row.r == 6)
        assert 1 in row6.signs
        row8 = next(row for row in report.rows if row.r == 8)
        assert row8.signs  # some variant holds exactly

    def test_m1_r2_variant(self):
        p = Params(1, "1")
        hs = [rec.h for rec in gen_type1_records(p, 4)]
        report = verify_h_recurrence(hs, p)
        row2 = next(row for row in report.rows if row.r == 2)
        assert row2.signs == (-1,)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_k_parity_rule_matches_data(self, m):
        # non-degenerate rows pin the sign to (-1)^m for k=0 and +1 otherwise,
        # while the ell-based variant fails whenever the two rules disagree
        p = Params(m, "1")
        hs = [rec.h for rec in gen_type1_records(p, 60)]
        report = verify_h_recurrence(hs, p)
        assert report.k_parity_rule_holds
        expected_k0 = ((-1) ** m,)
        for label, signs in report.empirical_table.items():
            if label.startswith("k0"):
                assert signs == expected_k0
            else:
                assert signs == (1,)
        if m % 2 == 0:
            assert not report.ell_parity_rule_holds


class TestStructuralProperties:
    def test_leading_coefficient_scaled_by_c_power_is_integer(self):
        for m, c in ((2, "3/2"), (3, "3/2"), (1, "5/7")):
            p = Params(m, c)
            for rec in gen_type1_records(p, 60):
                if rec.tau < 0:
                    continue
                scaled = Fraction(abs(rec.t.nums[-1]), rec.t.den) * p.c**rec.d
                assert scaled.denominator == 1 and scaled > 0, (m, c, rec.r)

    def test_m1_reduction_to_second_kind(self):
        # q_n = c^(n/2) t_n(2 sqrt(c) u) satisfies the second-kind recurrence
        rng = random.Random(20240917)
        for c_str, c_val in (("1", 1.0), ("4", 4.0)):
            p = Params(1, c_str)
            ts = gen_type1_scalar(p, 25)
            for _ in range(20):
                u = rng.uniform(-0.999, 0.999)
                second_kind = [1.0, 2 * u]
                for _ in range(2, 26):
                    second_kind.append(2 * u * second_kind[-1] - second_kind[-2])
                for n in (3, 11, 25):
                    val = complex(
                        ts[n].eval_complex(2 * math.sqrt(c_val) * u, 128)
                    ) * c_val ** (n / 2)
                    assert abs(val.real - second_kind[n]) <= 1e-9 * max(
                        1, abs(second_kind[n])
                    )
                    assert abs(val.imag) <= 1e-12
