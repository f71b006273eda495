"""The integer exact core against a plain ``Fraction`` reference.

The reference below steps the three recurrences and applies the banded
operator with ``fractions.Fraction`` arithmetic, exactly as the definitions
read, sharing no code with the package.  The package's scaled-integer
generators, operator images and Gram matrix must agree with it exactly.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebsys import cli
from chebsys.exactpoly import Poly
from chebsys.operators import gram_matrix, type1_image, type2_image
from chebsys.rationals import rat_to_mpf
from chebsys.recurrence import (
    Params,
    gen_type1_records,
    gen_type1_scalar,
    gen_type1_vectors,
    gen_type2,
    verify_denominators,
)


def _trim(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def ref_type1(m, c, first, R):
    """c*t_r = x*t_{r-m} - t_{r-m-1} from the first m terms."""
    seq = [[Fraction(v) for v in f] for f in first][: R + 1]
    for r in range(len(seq), R + 1):
        a = seq[r - m]
        b = seq[r - m - 1] if r - m - 1 >= 0 else []
        out = [Fraction(0)] * max(len(a) + 1 if a else 0, len(b))
        for i, v in enumerate(a):
            out[i + 1] += v
        for i, v in enumerate(b):
            out[i] -= v
        seq.append(_trim([v / c for v in out]))
    return seq


def ref_type2(m, c, N):
    """T_0 = 1 and T_{n+1} = x*T_n - c*T_{n-m}."""
    seq = [[Fraction(1)]]
    for n in range(1, N + 1):
        a = seq[n - 1]
        b = seq[n - 1 - m] if n - 1 - m >= 0 else []
        out = [Fraction(0)] * (len(a) + 1)
        for i, v in enumerate(a):
            out[i + 1] += v
        for i, v in enumerate(b):
            out[i] -= c * v
        seq.append(_trim(out))
    return seq


def ref_apply(m, c, v, transpose):
    n = len(v)
    if transpose:  # (T^t v)_i = v_{i-1} + c*v_{i+m}
        return [
            (v[i - 1] if i >= 1 else 0) + (c * v[i + m] if i + m < n else 0)
            for i in range(n)
        ]
    # (T v)_i = v_{i+1} + c*v_{i-m}
    return [
        (v[i + 1] if i + 1 < n else 0) + (c * v[i - m] if i >= m else 0)
        for i in range(n)
    ]


def ref_poly_apply(m, c, coeffs, transpose, v):
    if not coeffs:
        return [Fraction(0)] * len(v)
    acc = [coeffs[-1] * x for x in v]
    for coeff in reversed(coeffs[:-1]):
        acc = ref_apply(m, c, acc, transpose)
        acc = [a + coeff * x for a, x in zip(acc, v)]
    return acc


def unit(size, j):
    return [Fraction(int(i == j)) for i in range(size)]


def ref_images(m, c, R, size):
    comps = [
        ref_type1(m, c, [[1] if r == j else [] for r in range(m)], R) for j in range(m)
    ]
    type1 = []
    for r in range(R + 1):
        acc = [Fraction(0)] * size
        for j in range(m):
            part = ref_poly_apply(m, c, comps[j][r], False, unit(size, j))
            acc = [a + b for a, b in zip(acc, part)]
        type1.append(acc)
    type2 = [ref_poly_apply(m, c, T, True, unit(size, 0)) for T in ref_type2(m, c, R)]
    return type1, type2


def as_fractions(image):
    return [Fraction(x, image.scale) for x in image.nums]


@given(
    st.integers(1, 5),
    st.integers(1, 999),
    st.integers(1, 999),
    st.integers(0, 60),
)
@settings(max_examples=30, deadline=None)
def test_generators_match_fraction_reference(m, P, Q, R):
    c = Fraction(P, Q)
    p = Params(m, c)
    assert [list(t.coeffs) for t in gen_type1_scalar(p, R)] == ref_type1(
        m, c, [[1]] + [[]] * (m - 1), R
    )
    vectors = gen_type1_vectors(p, R)
    for j in range(m):
        ref = ref_type1(m, c, [[1] if r == j else [] for r in range(m)], R)
        assert [list(rec.components[j].coeffs) for rec in vectors] == ref
    assert [list(T.coeffs) for T in gen_type2(p, R)] == ref_type2(m, c, R)


def _operator_cases():
    rng = random.Random(20240603)
    cases = []
    for m in range(1, 6):
        for _ in range(2):
            digits = rng.randint(1, 3)
            P = rng.randint(1, 10**digits - 1)
            Q = rng.randint(1, 10**digits - 1)
            cases.append((m, Fraction(P, Q), rng.randint(6, 18)))
    return cases


@pytest.mark.parametrize("m,c,R", _operator_cases())
def test_images_and_gram_match_fraction_reference(m, c, R):
    p = Params(m, c)
    size = R + m + 2
    ref1, ref2 = ref_images(m, c, R, size)
    for r in range(R + 1):
        image, overflow = type1_image(p, r, size)
        assert not overflow
        assert as_fractions(image) == ref1[r]
        image, overflow = type2_image(p, r, size)
        assert not overflow
        assert as_fractions(image) == ref2[r]
    ref_gram = [[sum(a * b for a, b in zip(u, w)) for w in ref2] for u in ref1]
    assert gram_matrix(p, R, R) == ref_gram


def test_poly_normal_form_is_unique():
    a = Poly.scaled((2, -4, 6), 4)
    b = Poly((Fraction(1, 2), -1, Fraction(3, 2)))
    assert a == b and hash(a) == hash(b)
    assert (a.nums, a.den) == ((1, -2, 3), 2)
    assert Poly.scaled((3, 6), -9) == Poly((Fraction(-1, 3), Fraction(-2, 3)))
    assert Poly.scaled((0, 0), 7).den == 1


def test_eval_complex_rounds_each_reduced_coefficient():
    # p*g/(q*g) rounded unreduced gives another double than p/q does
    p, q, g = 515937734814659186399, 609278262369173207521, 838470781181
    poly = Poly.scaled((p * g, 1), q * g)
    for bits in (53, 80, 53):
        with mpmath.workprec(bits):
            expected = rat_to_mpf(Fraction(p, q))
        assert poly.eval_complex(0, bits) == expected
    with mpmath.workprec(53):
        assert mpmath.mpf(p * g) / mpmath.mpf(q * g) != rat_to_mpf(Fraction(p, q))


class TestDenominatorStructure:
    def test_generated_terms_pass(self):
        p = Params(3, "311/457")
        report = verify_denominators(
            p,
            gen_type1_scalar(p, 40),
            gen_type1_vectors(p, 40),
            gen_type2(p, 40),
        )
        assert report.all_pass
        assert report.checked == 41 + 3 * 41 + 41

    def test_wrong_denominator_fails_with_witness(self):
        p = Params(2, "3/2")
        records = gen_type1_records(p, 10)
        vectors = gen_type1_vectors(p, 10)
        type2 = gen_type2(p, 10)
        # t_5 may carry P**2 = 9 in its denominator, never 11
        bad = [rec.t for rec in records]
        bad[5] = bad[5] * Fraction(1, 11)
        report = verify_denominators(p, bad, vectors, type2)
        assert not report.all_pass
        assert "t_5" in report.witness and "3^2 = 9" in report.witness

        status, details = cli._check_denominators(p, records, vectors, type2)
        assert status == "PASS"
        assert details["r_max"] == 10 and details["n_max"] == 10
        type2[7] = type2[7] * Fraction(1, 11)
        status, details = cli._check_denominators(p, records, vectors, type2)
        assert status == "FAIL"
        assert "T_7" in details["witness"]

    def test_vector_component_is_checked(self):
        p = Params(2, "5/7")
        vectors = gen_type1_vectors(p, 8)
        comps = list(vectors[6].components)
        comps[1] = comps[1] * Fraction(1, 11)
        vectors[6] = type(vectors[6])(6, tuple(comps))
        report = verify_denominators(p, gen_type1_scalar(p, 8), vectors, gen_type2(p, 8))
        assert report.witness.startswith("denominator")
        assert "t_1,6" in report.witness
