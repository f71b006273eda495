import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebsys.exactpoly import Poly
from chebsys.operators import (
    _image,
    _int_dot,
    _step,
    gram_matrix,
    images,
    is_unit,
    jump_check_typeI,
    jump_check_typeII,
)
from chebsys.recurrence import Params, gen_type1_vectors, gen_type2


def vec(size, entries):
    """The integer vector with ``entries[i]`` at i and 0 elsewhere."""
    return [entries.get(i, 0) for i in range(size)]


def at(polys, j):
    """``polys`` placed as the component of e_j: zero components below j."""
    return [Poly()] * j + list(polys)


def is_exactly(image, expected):
    return image.nums == [image.scale * x for x in expected]


class TestApply:
    # the integer operator Q*T (and Q*T^t) for c = P/Q, on the whole vector:
    # Q*T adds m entries, Q*T^t one
    def test_forward_on_e1(self):
        out = _step(Params(2, "1/2"), vec(10, {1: 1}), False)
        assert out == vec(12, {0: 2, 3: 1})

    def test_forward_on_e0_drops_negative_index(self):
        out = _step(Params(3, "2"), vec(10, {0: 1}), False)
        assert out == vec(13, {3: 2})

    def test_forward_zero_vector(self):
        assert _step(Params(2, "1"), [0] * 6, False) == [0] * 8

    def test_transpose_low_branch(self):
        out = _step(Params(2, "1"), vec(8, {0: 1}), True)
        assert out == vec(9, {1: 1})

    def test_transpose_high_branch(self):
        out = _step(Params(2, "3/2"), vec(8, {2: 1}), True)
        assert out == vec(9, {3: 2, 0: 3})

    def test_transpose_steps_past_the_last_entry(self):
        out = _step(Params(2, "5"), vec(8, {7: 1}), True)
        assert out == vec(9, {5: 5, 8: 1})

    def test_forward_steps_past_the_top_band(self):
        out = _step(Params(3, "1"), vec(8, {6: 1}), False)
        assert out == vec(11, {5: 1, 9: 1})


class TestPolyOfOperator:
    def test_identity_polynomial(self):
        image = _image(Params(2, "1"), at([Poly((1,))], 4), True)
        assert is_exactly(image, vec(5, {4: 1}))

    def test_x_transposed_shifts_e0(self):
        image = _image(Params(2, "1"), [Poly((0, 1))], True)
        assert is_exactly(image, vec(2, {1: 1}))

    def test_type2_cubic_lands_on_e3(self):
        p = Params(2, "1")
        poly = gen_type2(p, 3)[3]  # x^3 - 1
        assert is_exactly(_image(p, [poly], True), vec(4, {3: 1}))

    def test_zero_polynomial(self):
        image = _image(Params(1, "1"), at([Poly()], 2), False)
        assert image.nums == [0] * 3


class TestJumpChecks:
    def test_type2_n0_any_params(self):
        assert jump_check_typeII(Params(1, "7/5"), 0)
        assert jump_check_typeII(Params(4, "2"), 0)

    def test_type2_examples(self):
        assert jump_check_typeII(Params(2, "1"), 7)
        assert jump_check_typeII(Params(3, "1/2"), 10)

    def test_type1_initial_block(self):
        p = Params(3, "5/2")
        for r in range(3):
            assert jump_check_typeI(p, r)

    def test_type1_examples(self):
        assert jump_check_typeI(Params(2, "1"), 9)
        assert jump_check_typeI(Params(2, "3/2"), 12)


class TestBiorthogonality:
    # one Gram entry <u_r, w_n> is gram_matrix(p, r, n)[r][n]
    def test_diagonal(self):
        assert gram_matrix(Params(2, "1"), 5, 5)[5][5] == 1

    def test_off_diagonal(self):
        assert gram_matrix(Params(2, "1"), 7, 4)[7][4] == 0

    def test_corner(self):
        assert gram_matrix(Params(3, "9/4"), 0, 0)[0][0] == 1

    def test_small_gram_identity(self):
        gram = gram_matrix(Params(2, "3/2"), 12, 12)
        for r, row in enumerate(gram):
            for n, value in enumerate(row):
                assert value == (1 if n == r else 0)


def test_transpose_is_adjoint_on_truncation():
    # entries n/d with d in 1..4, times 12: <Q*T v, w> = <v, Q*T^t w> on
    # vectors of 14 entries, all the later ones zero
    rng = random.Random(99)
    p = Params(3, "4/3")

    def rand_vec():
        return [rng.randint(-9, 9) * 12 // rng.randint(1, 4) for _ in range(14)]

    for _ in range(25):
        v, w = rand_vec(), rand_vec()
        assert _int_dot(_step(p, v, False), w) == _int_dot(v, _step(p, w, True))


# ---------------------------------------------------------------- _image against Fractions


def band(m, c, v, transpose):
    """The untruncated ``T v``, ``(T v)_i = v_{i+1} + c*v_{i-m}``, or
    ``T^t v``, ``(T^t v)_i = v_{i-1} + c*v_{i+m}``, of ``{index: value}``."""
    out = {}
    for k, x in v.items():
        for i, y in ((k + 1, x), (k - m, c * x)) if transpose else ((k - 1, x), (k + m, c * x)):
            if i >= 0:
                out[i] = out.get(i, 0) + y
    return out


def reference(m, c, polys, transpose):
    """``sum_j polys[j](T) e_j`` untruncated, from the powers of the band."""
    out = {}
    for j, poly in enumerate(polys):
        power = {j: Fraction(1)}
        for coeff in poly.coeffs:
            for i, x in power.items():
                out[i] = out.get(i, 0) + coeff * x
            power = band(m, c, power, transpose)
    return out


def assert_matches(m, c, polys, transpose):
    image = _image(Params(m, c), polys, transpose)
    want = reference(m, c, polys, transpose)
    d = max(poly.degree for poly in polys)
    size = len(polys) + max(d, 0) * (1 if transpose else m)
    # the whole image, every entry past it zero
    assert len(image.nums) == size
    assert all(i < size for i, x in want.items() if x)
    assert [Fraction(x, image.scale) for x in image.nums] == [want.get(i, 0) for i in range(size)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("c", ["1", "3/7", "640/17"])
def test_image_is_the_band_product(m, c):
    p, R = Params(m, c), 30
    vectors, type2 = gen_type1_vectors(p, R), gen_type2(p, R)
    for r in range(R + 1):
        # components of unequal degree, and zero ones for r < m
        polys = vectors[r].components
        for transpose in (False, True):
            assert_matches(m, Fraction(c), polys, transpose)
            assert_matches(m, Fraction(c), [type2[r]], transpose)


def test_image_of_mixed_components():
    polys = [Poly(("1/2", 3)), Poly(), Poly((0, 0, "-7/5", 1)), Poly(("2/9",))]
    for m in (1, 3):
        for transpose in (False, True):
            assert_matches(m, Fraction(5, 3), polys, transpose)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("c", ["1", "3/7"])
def test_image_support(m, c):
    # the type II image of T_n has n+1 entries and the type I image of
    # vector r at most r+m, the first m*(1 + max_j deg t_{j,r}) of them
    p, R = Params(m, c), 40
    vectors = gen_type1_vectors(p, R)
    us, ws = images(p, vectors, gen_type2(p, R))
    for n, w in enumerate(ws):
        assert len(w.nums) == n + 1 and is_exactly(w, vec(n + 1, {n: 1}))
    for r, (u, rec) in enumerate(zip(us, vectors)):
        d = max(poly.degree for poly in rec.components)
        assert len(u.nums) == m * (1 + max(d, 0)) <= r + m
        assert is_exactly(u, vec(len(u.nums), {r: 1}))


def test_is_unit_past_the_end_is_false():
    p = Params(2, "3/7")
    w = _image(p, [gen_type2(p, 3)[3]], True)
    assert is_unit(w, 3)
    assert not is_unit(w, 4) and not is_unit(w, 40)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 5),
    P=st.integers(1, 50),
    Q=st.integers(1, 50),
    v=st.lists(st.integers(-10**6, 10**6), max_size=12),
    w=st.lists(st.integers(-10**6, 10**6), max_size=12),
)
def test_adjoint_pairs_vectors_of_unequal_length(m, P, Q, v, w):
    # <Q*T v, w> = <v, Q*T^t w> exactly, whatever the two lengths: each side
    # reads the entries past the shorter vector as zero
    p = Params(m, Fraction(P, Q))
    P, Q = p.ratio
    lhs = _int_dot(_step(p, v, False), w)
    assert lhs == _int_dot(v, _step(p, w, True))
    # against the dense product on a common length, padded with zeros
    n = max(len(v), len(w)) + m + 1
    vv, ww = v + [0] * (n - len(v)), w + [0] * (n - len(w))
    tv = [Q * (vv[i + 1] if i + 1 < n else 0) + P * (vv[i - m] if i >= m else 0) for i in range(n)]
    assert lhs == _int_dot(tv, ww)
