import fractions
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebsys import probe
from chebsys.exactpoly import Poly, _remainder_chain, compose_star, dyadic_sign
from chebsys.rationals import as_rational


def P(*coeffs):
    return Poly(coeffs)


def value_at(poly, x):
    """``poly(x)`` at a rational x, exactly, term by term."""
    return sum(fractions.Fraction(n, poly.den) * x**i for i, n in enumerate(poly.nums))


def chain_gcd(p, q):
    """The last element of the remainder chain of ``p`` and ``q``, monic."""
    *_, last = _remainder_chain(list(p.nums), list(q.nums))
    return Poly.scaled(last, last[-1]) if last else Poly()


def test_add_cancellation():
    assert P(1, 1) + P(1, -1) == P(2)


def test_add_identity():
    p = P(3, 0, "1/2")
    assert Poly() + p == p


def test_add_mixed_degrees():
    assert P(0, 0, 1) + P(0, 1) == P(0, 1, 1)


def test_mul_difference_of_squares():
    assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)


def test_mul_absorbing_zero():
    assert P(5, 7) * Poly() == Poly()
    assert (P(5, 7) * Poly()).degree == -1


def test_mul_rational_coefficients():
    assert P(0, "1/2") * P(0, 2) == P(0, 0, 1)


def test_eval_complex_square_at_i():
    assert abs(P(0, 0, 1).eval_complex(1j) - (-1)) < 1e-15


def test_eval_complex_affine_at_zero():
    assert abs(P(1, 1).eval_complex(0) - 1) < 1e-15


def test_eval_complex_scalar_term():
    # t_5 for (m=2, c=1) is -2x
    assert abs(P(0, -2).eval_complex(1) - (-2)) < 1e-15


def test_eval_complex_rejects_low_precision():
    with pytest.raises(ValueError):
        P(1).eval_complex(0, precision=32)


def test_compose_star_constant_sign():
    assert compose_star(P(1), m=2, k=1, ell=0) == P(-1)


def test_compose_star_affine():
    assert compose_star(P(1, 1), m=2, k=0, ell=1) == P(0, 1, 0, 0, 1)


def test_compose_star_matches_cubic_plus_one():
    # (m=2, c=1) has t_6 = z^3 + 1 coming from h(y) = y + 1
    assert compose_star(P(1, 1), m=2, k=0, ell=0) == P(1, 0, 0, 1)


def test_compose_star_validates_ranges():
    with pytest.raises(ValueError):
        compose_star(P(1), m=2, k=2, ell=0)
    with pytest.raises(ValueError):
        compose_star(P(1), m=2, k=0, ell=3)


small_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=12
)
small_polys = st.lists(small_rationals, max_size=6).map(Poly)


@given(small_polys, small_polys)
@settings(max_examples=60)
def test_mul_degree_additive(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree == p.degree + q.degree


@given(small_polys, small_polys, small_rationals)
@settings(max_examples=60)
def test_eval_is_ring_homomorphism(p, q, x):
    x = as_rational(x)
    assert value_at(p * q, x) == value_at(p, x) * value_at(q, x)
    assert value_at(p + q, x) == value_at(p, x) + value_at(q, x)


@given(small_polys, st.integers(1, 4), st.data())
@settings(max_examples=60)
def test_compose_star_support_and_degree(h, m, data):
    k = data.draw(st.integers(0, m - 1))
    ell = data.draw(st.integers(0, m))
    out = compose_star(h, m, k, ell)
    if h.is_zero:
        assert out.is_zero
        return
    assert out.degree == ell + (m + 1) * h.degree
    for i, coeff in enumerate(out.coeffs):
        if coeff:
            assert i % (m + 1) == ell


def test_gcd_shared_factor():
    shared = P(-1, 1)
    g = chain_gcd(shared * P(2, 1), shared * P(3, 0, 1))
    assert g == shared  # monic normalization


def test_gcd_coprime_is_one():
    assert chain_gcd(P(1, 1), P(2, 1)) == P(1)


def test_gcd_with_negative_leads():
    # the chain's signs change with |lead|, its monic last element does not
    shared = P(-3, 0, 2)  # 2x^2 - 3
    assert chain_gcd(-shared * P(1, -5), shared * P(-7, 0, 0, -4)) == P("-3/2", 0, 1)
    assert chain_gcd(P(-1, -1), P(-2, -1)) == P(1)
    assert chain_gcd(P(0, 0, -2), Poly()) == P(0, 0, 1)
    assert chain_gcd(Poly(), P(5, -3)) == P("-5/3", 1)


def from_roots(*values, lead=1):
    poly = P(lead)
    for v in values:
        poly = poly * P(-fractions.Fraction(v), 1)
    return poly


def euclid_gcd(p, q):
    """Monic gcd by Euclid's algorithm over the rationals, the slow way."""
    a, b = list(p.coeffs), list(q.coeffs)
    while any(b):
        while not b[-1]:
            b.pop()
        rem = list(a)
        while len(rem) >= len(b):
            factor = rem[-1] / b[-1]
            for j, y in enumerate(b):
                rem[len(rem) - len(b) + j] -= factor * y
            rem.pop()
        a, b = b, rem
    return Poly(a) * (1 / Poly(a).coeffs[-1]) if Poly(a) else Poly()


@given(small_polys, small_polys, small_polys)
@settings(max_examples=80)
def test_gcd_matches_euclid_over_the_rationals(p, q, shared):
    assert chain_gcd(shared * p, shared * q) == euclid_gcd(shared * p, shared * q)


def point(end):
    a, k = end
    return fractions.Fraction(a, 2**k)


def sturm_count(p, roots=None):
    """The number of distinct real roots of ``p`` and the degree of
    gcd(p, p'), from the Sturm bisection of the probe: ascending intervals
    whose ends are no roots, each holding one of ``roots`` if given."""
    intervals, gcd_degree = probe._sturm_isolated(p)
    ends = [point(end) for lo, hi, _ in intervals for end in (lo, hi)]
    assert ends == sorted(ends)
    for lo, hi, s in intervals:
        assert s and dyadic_sign(p, *lo) == s and dyadic_sign(p, *hi)
    if roots is not None:
        inside = sorted(set(fractions.Fraction(v) for v in roots))
        assert len(inside) == len(intervals)
        assert all(point(lo) < v < point(hi) for (lo, hi, _), v in zip(intervals, inside))
    return len(intervals), gcd_degree


@pytest.mark.parametrize("lead", [1, -3, fractions.Fraction(-2, 7)])
def test_sturm_count_of_distinct_real_roots(lead):
    rng = random.Random(2)
    for d in range(1, 9):
        values = rng.sample([fractions.Fraction(n, rng.randint(1, 9)) for n in range(-40, 40)], d)
        if len(set(values)) < d:
            continue
        assert sturm_count(from_roots(*values, lead=lead), values) == (d, 0), values
    # roots symmetric about 0 give odd or even polynomials, whose pseudo-
    # remainders take an odd power of the divisor's leading coefficient;
    # dyadic roots fall on the split points, which must move off them
    for values in ((-2, 0, 2), (-3, -1, 1, 3), (-5, "-1/2", 0, "1/2", 5)):
        poly = from_roots(*values, lead=lead)
        assert sturm_count(poly, values) == (len(values), 0), values


@pytest.mark.parametrize("lead", [1, -5])
def test_sturm_count_sees_a_repeated_root(lead):
    assert sturm_count(from_roots(1, 1, 2, lead=lead), (1, 2)) == (2, 1)
    poly = from_roots("1/3", "1/3", "1/3", -4, -4, lead=lead)
    assert sturm_count(poly, ("1/3", -4)) == (2, 3)


@pytest.mark.parametrize("lead", [1, -1, fractions.Fraction(-9, 4)])
def test_sturm_count_misses_a_complex_pair(lead):
    pair = P(1, 1, 1)  # x^2 + x + 1
    assert sturm_count(pair * lead, ()) == (0, 0)
    assert sturm_count(from_roots(-2, "3/5", 6, lead=lead) * pair, (-2, "3/5", 6)) == (3, 0)
    assert sturm_count(from_roots(2, 2, lead=lead) * pair, (2,)) == (1, 1)
    assert sturm_count(from_roots(0, lead=lead) * pair * pair, (0,)) == (1, 2)


def test_derivative():
    assert P(1, 0, 3).derivative() == P(0, 6)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Poly((0.5, 1))


def test_fraction_coefficients_accepted():
    assert Poly((fractions.Fraction(1, 2),)).coeffs[0] == as_rational("1/2")


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("zeros", [0, 2])
def test_normal_form_when_the_constant_term_shares_most_of_den(sign, zeros):
    # the constant term shares all but a factor 7 with the denominator, as
    # h_r's does at c = 10**400; the gcd found from the least numerator must
    # still be the gcd of them all, and each coefficient reduced as Fraction does
    den = sign * 21 * 10**400
    nums = [10**400 * 3, *[0] * zeros, 6 * 10**200, -9 * 10**5, 21]
    poly = Poly.scaled(nums, den)
    assert poly.den == 7 * 10**400
    assert poly.den == math.lcm(*(fractions.Fraction(n, den).denominator for n in nums))
    assert poly.coeffs == tuple(fractions.Fraction(n, den) for n in nums)
    assert poly == Poly(fractions.Fraction(n, den) for n in nums)
