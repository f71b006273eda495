"""The integer kernel, and the numeric loops, against libmp, bit for bit.

Each kernel reference below is the libmp call that the 53-bit branch values
made before they moved onto the kernel in ``chebsys.rationals``; the kernel
must return the same raw tuples, or the same doubles, not merely close
values.  The rounding of a rational into mpmath (``rat_to_mpf``) is held to
the raw libmp division of its rounded numerator and denominator.  The loop
reference is the raw libmp calls that ``Poly.eval_complex`` makes through
mpmath's operators, in the same order, so its bits are pinned too.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    from_man_exp,
    fzero,
    mpc_abs,
    mpc_add_mpf,
    mpc_mul,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_float,
)

from chebsys.exactpoly import Poly
from chebsys import rationals
from chebsys.rationals import (
    add_man_exp,
    div_man_exp,
    hypot_man_exp,
    rat_to_mpf,
    raw_mpf,
    round_man_exp,
    sqrt_man_exp,
)
from chebsys.recurrence import Params, gen_type1_records

RND = round_nearest
PRECISIONS = (53, 64, 113, 200, 333, 640, 1200)


# ---------------------------------------------------------------- references


def rounded(poly, bits):
    with mpmath.workprec(bits):
        return [rat_to_mpf(n, poly.den)._mpf_ for n in poly.nums]


def libmp_eval(poly, z, bits):
    with mpmath.workprec(bits):
        zz = mpmath.mpc(z)._mpc_
    acc = (fzero, fzero)
    for n, c in zip(reversed(poly.nums), reversed(rounded(poly, bits))):
        acc = mpc_mul(acc, zz, bits, RND)
        if n:
            acc = mpc_add_mpf(acc, c, bits, RND)
    return acc


def raw(man, exp):
    return from_man_exp(man, exp)


def complex_at(z, prec):
    with mpmath.workprec(prec):
        return mpmath.mpc(z)._mpc_


def spread_poly(rng, degree, spread):
    """Random rationals whose sizes span about 2**spread, with some zeros."""
    coeffs = []
    for _ in range(degree + 1):
        if rng.random() < 0.25:
            coeffs.append(0)
            continue
        scale = Fraction(2) ** rng.randint(-spread, spread)
        coeffs.append(Fraction(rng.randint(-10**12, 10**12) or 1, rng.randint(1, 10**9)) * scale)
    if not coeffs[-1]:
        coeffs[-1] = 1
    return Poly(coeffs)


def random_point(rng):
    size = 10.0 ** rng.uniform(-3, 3)
    return complex(rng.uniform(-size, size), rng.uniform(-size, size))


# ---------------------------------------------------------------- the kernel itself


def test_raw_mpf_strips_trailing_zeros_as_libmp_does():
    assert raw_mpf(12, 5) == (0, 3, 7, 2)
    assert raw_mpf(-(1 << 80), -3) == (1, 1, 77, 1)
    assert raw_mpf(0, 99) == fzero


@pytest.mark.parametrize("prec", PRECISIONS)
def test_exact_half_way_cases_round_to_even(prec):
    half = 1 << prec - 1
    for kept in (half, half + 1, half + 2, half + 3, 2 * half - 1):
        # prec kept bits and one dropped bit, a half: the tie goes to an even
        # mantissa, carrying into prec + 1 bits from all ones
        man = kept << 1 | 1
        for sign in (1, -1):
            got = round_man_exp(sign * man, -9, prec)
            want = mpf_mul((int(sign < 0), man, -9, man.bit_length()), fone, prec, RND)
            assert raw(*got) == want
            assert got[0] % 2 == 0 and abs(got[0]) - kept in (0, 1)
    # the tie goes to the even neighbour, down and up
    assert round_man_exp(0b1010_1, 0, 4) == (0b1010, 1)
    assert round_man_exp(0b1011_1, 0, 4) == (0b1100, 1)
    assert round_man_exp(-0b1010_1, 0, 4) == (-0b1010, 1)
    assert round_man_exp(-0b1011_1, 0, 4) == (-0b1100, 1)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_add_man_exp_matches_mpf_add_and_mpf_sub(prec):
    rng = random.Random(prec)
    for _ in range(400):
        operands = []
        for _ in range(2):
            if rng.random() < 0.1:
                operands.append((0, 0))
                continue
            bits = rng.choice((1, 3, prec // 2, prec, 2 * prec + 3))
            man = rng.getrandbits(bits) | 1
            operands.append((rng.choice((1, -1)) * man, rng.randint(-3 * prec, 3 * prec)))
        (a, ea), (b, eb) = operands
        s, t = raw(a, ea), raw(b, eb)
        assert raw(*add_man_exp(a, ea, b, eb, prec)) == mpf_add(s, t, prec, RND)
        assert raw(*add_man_exp(a, ea, -b, eb, prec)) == mpf_sub(s, t, prec, RND)


@pytest.mark.parametrize("prec", (53, 200, 1200))
def test_far_apart_addends_take_libmp_shortcut_not_the_rounded_sum(prec):
    # s ends just above a half-way point at prec bits; t lies more than prec + 4
    # bits below s, with its lowest set bit 101 below that of s.  libmp rounds
    # s nudged toward t, which stays above the half and rounds up, while the
    # exact sum s + t falls below the half and would round down.
    s = ((1 << prec - 1) + 1 << 61) + (1 << 60) + 1
    t = -((1 << 103) + 1)
    for sign in (1, -1):
        a, b = sign * s, sign * t
        got = add_man_exp(a, 0, b, -101, prec)
        assert raw(*got) == mpf_add(raw(a, 0), raw(b, -101), prec, RND)
        assert raw(*add_man_exp(b, -101, a, 0, prec)) == raw(*got)
        exact = round_man_exp((a << 101) + b, -101, prec)
        assert raw(*exact) != raw(*got)
    # 100 bits apart is not far enough: the exact sum is rounded
    near = add_man_exp(s, 0, (1 << 102) + 1, -100, prec)
    assert raw(*near) == mpf_add(raw(s, 0), raw((1 << 102) + 1, -100), prec, RND)
    assert near == round_man_exp((s << 100) + (1 << 102) + 1, -100, prec)


def random_man_exp(rng, prec, signed=True):
    bits = rng.choice((1, 3, prec // 2, prec, prec + 1, 2 * prec + 3))
    man = rng.getrandbits(bits) | 1
    return (rng.choice((1, -1)) if signed else 1) * man, rng.randint(-3 * prec, 3 * prec)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_div_man_exp_matches_mpf_div(prec):
    rng = random.Random(prec + 4)
    cases = []
    for _ in range(300):
        cases.append((*random_man_exp(rng, prec), *random_man_exp(rng, prec)))
    for _ in range(60):
        # exact quotients, of at most prec bits and of more
        (q, eq), (b, eb) = random_man_exp(rng, prec), random_man_exp(rng, prec)
        cases.append((q * b, eq + eb, b, eb))
    for _ in range(60):
        # quotients half way between two prec-bit numbers: (2k+1)/2 with k of
        # prec bits, over divisors that are not powers of two
        k = rng.getrandbits(prec - 1) | 1 << prec - 1
        b = rng.choice((3, 6, 10, rng.getrandbits(40) | 1))
        sign = rng.choice((1, -1))
        cases.append((sign * (2 * k + 1) * b, rng.randint(-50, 50), 2 * b, rng.randint(-50, 50)))
    ties = 0
    for a, ea, b, eb in cases:
        want = mpf_div(raw(a, ea), raw(b, eb), prec, RND)
        assert raw(*div_man_exp(a, ea, b, eb, prec)) == want
        assert raw(*div_man_exp(-a, ea, b, eb, prec)) == mpf_div(raw(-a, ea), raw(b, eb), prec, RND)
        assert raw(*div_man_exp(a, ea, -b, eb, prec)) == mpf_div(raw(a, ea), raw(-b, eb), prec, RND)
        ties += Fraction(a, b) * 2 % 2 == 1 and abs(a // b).bit_length() == prec
    assert ties >= 60
    assert div_man_exp(0, 5, 3, 1, prec) == (0, 0)


def test_div_man_exp_rounds_ties_to_even():
    # 4 bits: 19/2 = 1001.1 rounds up to 1010, 17/2 = 1000.1 down to 1000
    assert div_man_exp(19 * 3, 0, 6, 0, 4) == (0b1010, 0)
    assert div_man_exp(17 * 3, 0, 6, 0, 4) == (0b1000, 0)
    assert div_man_exp(-19 * 3, 0, 6, 0, 4) == (-0b1010, 0)
    assert div_man_exp(-17 * 3, 0, 6, 0, 4) == (-0b1000, 0)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_round_ratio_is_mpf_over_mpf(prec):
    rng = random.Random(prec + 5)
    pairs = [(0, 7), (5, 1), (-5, 1), (6, 4), (-(1 << prec + 9) - 1, 3)]
    for _ in range(300):
        num = rng.choice((1, -1)) * rng.getrandbits(rng.choice((2, prec // 2, prec, 3 * prec)))
        den = rng.getrandbits(rng.choice((2, prec // 2, prec, 3 * prec))) or 1
        pairs.append((num, den))
    for num, den in pairs:
        q = Fraction(num, den)
        want = mpf_div(
            from_int(q.numerator, prec, RND), from_int(q.denominator, prec, RND), prec, RND
        )
        with mpmath.workprec(prec):
            assert rat_to_mpf(num, den)._mpf_ == want


@pytest.mark.parametrize("prec", PRECISIONS)
def test_sqrt_and_hypot_match_libmp(prec):
    rng = random.Random(prec + 6)
    for _ in range(300):
        (a, ea), (b, eb) = random_man_exp(rng, prec), random_man_exp(rng, prec)
        assert raw(*sqrt_man_exp(abs(a), ea, prec)) == mpf_sqrt(raw(abs(a), ea), prec, RND)
        want = mpc_abs((raw(a, ea), raw(b, eb)), prec, RND)
        assert raw(*hypot_man_exp(a, ea, b, eb, prec)) == want
        # far apart parts take mpf_add's shortcut inside the hypot
        far = eb - 2 * prec - 150
        assert raw(*hypot_man_exp(a, ea, b, far, prec)) == mpc_abs(
            (raw(a, ea), raw(b, far)), prec, RND
        )
        for zero in ((a, ea, 0, 0), (0, 0, b, eb)):
            assert raw(*hypot_man_exp(*zero, prec)) == mpc_abs(
                (raw(*zero[:2]), raw(*zero[2:])), prec, RND
            )
    assert raw(*sqrt_man_exp(4, -2, prec)) == fone
    assert sqrt_man_exp(0, 0, prec)[0] == 0


def test_floats_round_trip_and_round_as_to_float():
    rng = random.Random(8)
    for _ in range(2000):
        x = rng.uniform(-1, 1) * 2.0 ** rng.randint(-1074, 1023)
        assert raw(*rationals.from_float(x)) == from_float(x)
        assert rationals.to_float(*rationals.from_float(x)) == x
    # rounding to 53 bits, and twice below the normal range, overflow included
    for exp in (-1130, -1100, -1075, -1074, -1060, -1040, -200, 0, 900, 950, 960, 971, 1000):
        for _ in range(100):
            man = rng.choice((1, -1)) * rng.getrandbits(rng.choice((54, 60, 120)))
            got = rationals.to_float(man, exp)
            assert got == to_float(raw(man, exp), rnd=RND)
            assert math.copysign(1, got) == math.copysign(1, to_float(raw(man, exp), rnd=RND))
    assert rationals.to_float(1, 1024) == math.inf
    assert rationals.to_float(-1, 1024) == -math.inf
    assert rationals.to_float(0, 7) == 0.0


# ---------------------------------------------------------------- the three loops, on mpmath's operators


@pytest.mark.parametrize("bits", PRECISIONS)
def test_eval_complex_is_the_libmp_loop(bits):
    rng = random.Random(bits + 1)
    for _ in range(25):
        poly = spread_poly(rng, rng.randint(0, 30), rng.choice((4, 40, 400)))
        z = random_point(rng)
        for point in (z, z.real, complex(0, z.imag), 0, complex(rng.randint(-3, 3), 0)):
            assert poly.eval_complex(point, bits)._mpc_ == libmp_eval(poly, point, bits)


@pytest.mark.parametrize("bits", (53, 200, 451))
def test_eval_complex_of_scalar_terms_is_the_libmp_loop(bits):
    # t_r: one nonzero coefficient in m+1, evaluated as the asymptote scan does
    rng = random.Random(bits)
    for m, c in ((1, "1"), (2, "59/62"), (3, "23/41")):
        records = gen_type1_records(Params(m, c), 120)
        for _ in range(6):
            t = records[rng.randint(m, 120)].t
            z = mpmath.mp.make_mpc(complex_at(complex(rng.uniform(-6, 6), rng.uniform(-6, 6)), bits))
            assert t.eval_complex(z, bits)._mpc_ == libmp_eval(t, z, bits)


def test_eval_complex_over_a_point_of_more_bits_than_the_precision():
    # roots_of_t evaluates at roots carrying 32 more bits than it rounds to
    rng = random.Random(7)
    poly = spread_poly(rng, 40, 40)
    for bits in (128, 160):
        with mpmath.workprec(bits + 32):
            z = mpmath.mpc(1) / 3 + mpmath.mpc(0, 2) / 7
        assert poly.eval_complex(z, bits)._mpc_ == libmp_eval(poly, z, bits)


