"""The integer exact core against a plain ``Fraction`` reference.

The reference below steps the three recurrences and applies the banded
operator with ``fractions.Fraction`` arithmetic, exactly as the definitions
read, sharing no code with the package.  The package's scaled-integer
generators, operator images and Gram matrix must agree with it exactly.
"""

import json
import random
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebsys import cli
from chebsys.exactpoly import Poly
from chebsys.operators import gram_matrix, images
from chebsys.rationals import as_rational, rat_strs, rat_to_mpf, ratio
from chebsys.recurrence import (
    Params,
    gen_type1_records,
    gen_type1_scalar,
    gen_type1_vectors,
    gen_type2,
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


def as_fractions(image, size):
    """The exact image padded with zeros to ``size`` entries, which holds it."""
    assert len(image.nums) <= size
    return [Fraction(x, image.scale) for x in image.nums] + [Fraction(0)] * (size - len(image.nums))


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
    # the reference truncates to a size that holds every image
    size = R + m + 2
    ref1, ref2 = ref_images(m, c, R, size)
    us, ws = images(p, gen_type1_vectors(p, R), gen_type2(p, R))
    for r in range(R + 1):
        assert as_fractions(us[r], size) == ref1[r]
        assert as_fractions(ws[r], size) == ref2[r]
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


def _eval_every_coefficient(poly, z, bits):
    """Horner's rule over every rounded coefficient, zeros included."""
    with mpmath.workprec(bits):
        zz = mpmath.mpc(z)
        acc = mpmath.mpc(0)
        for c in reversed(poly.coeffs):
            acc = acc * zz + rat_to_mpf(c)
        return acc._mpc_


@pytest.mark.parametrize("bits", [53, 200, 400])
def test_eval_complex_skips_zero_coefficients_bit_for_bit(bits):
    # t_r has one nonzero coefficient in m+1; skipping the zeros must not
    # change a bit of the value
    rng = random.Random(bits)
    for m, c in ((1, "3/2"), (2, "59/62"), (3, "23/41"), (4, "640/17")):
        records = gen_type1_records(Params(m, c), 90)
        for _ in range(12):
            t = records[rng.randint(m, 90)].t
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert t.eval_complex(z, bits)._mpc_ == _eval_every_coefficient(t, z, bits)


def value_at(poly, x):
    """``poly(x)`` at a rational x, exactly, term by term."""
    return sum(Fraction(n, poly.den) * x**i for i, n in enumerate(poly.nums))


def _exact_at(poly, re, im):
    """``poly(re + i*im)`` at rational ``re`` and ``im``, exactly, as two Fractions."""
    pr = pi = Fraction(0)
    for c in reversed(poly.coeffs):
        pr, pi = pr * re - pi * im + c, pr * im + pi * re
    return pr, pi


@pytest.mark.parametrize("bits", [53, 113, 400])
def test_eval_complex_at_dyadic_points_is_within_horners_bound(bits):
    # each Horner step rounds one complex product and one sum, and each
    # coefficient is rounded once: together less than 8*(d+1) units of
    # 2**-bits of sum |c_i| |z|**i
    rng = random.Random(bits)
    for _ in range(20):
        degree = rng.randint(1, 25)
        coeffs = [
            Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6)) if rng.random() > 0.2 else 0
            for _ in range(degree)
        ]
        poly = Poly(coeffs + [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))])
        for imaginary in (False, True, True):
            re = Fraction(rng.randint(-2**12, 2**12), 2**10)
            im = Fraction(rng.randint(-2**12, 2**12), 2**10) if imaginary else Fraction(0)
            got = poly.eval_complex(complex(re, im), bits)
            want = _exact_at(poly, re, im)
            if not imaginary:
                assert want == (value_at(poly, re), 0)
            with mpmath.workprec(4 * bits):
                err = abs(got - mpmath.mpc(rat_to_mpf(want[0]), rat_to_mpf(want[1])))
                size = abs(mpmath.mpc(rat_to_mpf(re), rat_to_mpf(im)))
                scale = sum(abs(rat_to_mpf(c)) * size**i for i, c in enumerate(poly.coeffs))
                assert err <= 8 * (degree + 1) * mpmath.mpf(2) ** -bits * scale


def test_rat_strs_write_zero_as_0_over_1():
    assert rat_strs([0, 6, -4, 0], 8) == ["0/1", "3/4", "-1/2", "0/1"]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(),
        st.fractions(),
        st.from_regex(r"[+-]?[0-9]{1,30}(/[0-9]{0,30})?", fullmatch=True),
        st.text(alphabet="0123456789+-/._eE \u0663", max_size=10),
    )
)
def test_ratio_reads_what_as_rational_reads(value):
    try:
        q = as_rational(value)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            ratio(value)
    else:
        assert ratio(value) == (q.numerator, q.denominator)


def test_ratio_refuses_floats_and_keeps_bools_as_ints():
    with pytest.raises(TypeError, match="float 0.5 rejected"):
        ratio(0.5)
    assert ratio(True) == (1, 1) and type(ratio(True)[0]) is int
    assert ratio("-6/4") == (-3, 2) and ratio("+0/9") == (0, 1)


def test_params_keep_c_as_reduced_integers():
    p = Params(2, "6/4")
    assert p.ratio == (3, 2) and p.c == Fraction(3, 2)
    assert Params(2, Fraction(6, 4)).ratio == Params(2, "3/2").ratio == (3, 2)
    assert Params(1, 7).ratio == (7, 1)


class TestDenominatorStructure:
    """The denominators P**(r//m) of t_r and t_{j,r} and Q**(n//(m+1)) of T_n
    follow from the closed form, and verify reads no check of its own for
    them: a forged denominator fails the checks that compare the tables."""

    def test_generated_terms_pass(self):
        p = Params(3, "311/457")
        m, (P, Q) = p.m, p.ratio
        for r, t in enumerate(gen_type1_scalar(p, 40)):
            assert P ** (r // m) % t.den == 0
        for rec in gen_type1_vectors(p, 40):
            assert all(P ** (rec.r // m) % comp.den == 0 for comp in rec.components)
        for n, T in enumerate(gen_type2(p, 40)):
            assert Q ** (n // (m + 1)) % T.den == 0

    @staticmethod
    def failed(tmp_path, monkeypatch, name, forge, *argv):
        """The hard checks verify FAILs, with ``cli.name`` forged by ``forge``."""
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda p, R: forge(real(p, R)))
        out = tmp_path / "verify.json"
        assert cli.main(["verify", *argv, "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        return [ch["name"] for ch in checks if ch["status"] == "FAIL"]

    def test_wrong_denominator_fails_with_witness(self, tmp_path, monkeypatch):
        # t_5 may carry P**2 = 9 in its denominator, never 11
        def forge_t5(records):
            records[5] = records[5]._replace(t=records[5].t * Fraction(1, 11))
            return records

        argv = ("--m", "2", "--c", "3/2", "--R", "10")
        assert self.failed(tmp_path, monkeypatch, "gen_type1_records", forge_t5, *argv) == [
            "factorization", "vector_scalar_agreement", "leading_coefficient_structure",
        ]
        monkeypatch.undo()

        def forge_T7(terms):
            terms[7] = terms[7] * Fraction(1, 11)
            return terms

        assert self.failed(tmp_path, monkeypatch, "gen_type2", forge_T7, *argv) == [
            "jump_type2", "biorthogonality_gram",
        ]

    def test_vector_component_is_checked(self, tmp_path, monkeypatch):
        def forge(vectors):
            comps = list(vectors[6].components)
            comps[1] = comps[1] * Fraction(1, 11)
            vectors[6] = vectors[6]._replace(components=tuple(comps))
            return vectors

        argv = ("--m", "2", "--c", "5/7", "--R", "8")
        assert self.failed(tmp_path, monkeypatch, "gen_type1_vectors", forge, *argv) == [
            "shift_identity", "jump_type1", "biorthogonality_gram",
        ]
