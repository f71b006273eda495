import random
from fractions import Fraction

import pytest

from chebsys.exactpoly import Poly
from chebsys.operators import (
    BandedOperator,
    _image,
    _int_dot,
    _step,
    biorthogonality,
    gram_matrix,
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
    # the integer operator Q*T (and Q*T^t) for c = P/Q
    def test_forward_on_e1(self):
        op = BandedOperator(10, 2, "1/2")
        out, overflow = _step(op, vec(10, {1: 1}), False)
        assert out == vec(10, {0: 2, 3: 1})
        assert not overflow

    def test_forward_on_e0_drops_negative_index(self):
        op = BandedOperator(10, 3, "2")
        out, overflow = _step(op, vec(10, {0: 1}), False)
        assert out == vec(10, {3: 2})
        assert not overflow

    def test_forward_zero_vector(self):
        op = BandedOperator(6, 2, "1")
        out, overflow = _step(op, [0] * 6, False)
        assert out == [0] * 6 and not overflow

    def test_transpose_low_branch(self):
        op = BandedOperator(8, 2, "1")
        out, overflow = _step(op, vec(8, {0: 1}), True)
        assert out == vec(8, {1: 1}) and not overflow

    def test_transpose_high_branch(self):
        op = BandedOperator(8, 2, "3/2")
        out, overflow = _step(op, vec(8, {2: 1}), True)
        assert out == vec(8, {3: 2, 0: 3})
        assert not overflow

    def test_transpose_truncation_edge_flags_overflow(self):
        op = BandedOperator(8, 2, "5")
        out, overflow = _step(op, vec(8, {7: 1}), True)
        assert out == vec(8, {5: 5})
        assert overflow

    def test_forward_overflow_from_top_band(self):
        op = BandedOperator(8, 3, "1")
        _, overflow = _step(op, vec(8, {6: 1}), False)
        assert overflow


class TestPolyOfOperator:
    def test_identity_polynomial(self):
        op = BandedOperator(9, 2, "1")
        image, overflow = _image(op, at([Poly((1,))], 4), True)
        assert is_exactly(image, vec(9, {4: 1})) and not overflow

    def test_x_transposed_shifts_e0(self):
        op = BandedOperator(9, 2, "1")
        image, _ = _image(op, [Poly((0, 1))], True)
        assert is_exactly(image, vec(9, {1: 1}))

    def test_type2_cubic_lands_on_e3(self):
        p = Params(2, "1")
        op = BandedOperator(9, 2, "1")
        poly = gen_type2(p, 3)[3]  # x^3 - 1
        image, overflow = _image(op, [poly], True)
        assert is_exactly(image, vec(9, {3: 1})) and not overflow

    def test_zero_polynomial(self):
        op = BandedOperator(5, 1, "1")
        image, overflow = _image(op, at([Poly()], 2), False)
        assert image.nums == [0] * 5 and not overflow


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
    def test_diagonal(self):
        assert biorthogonality(Params(2, "1"), 5, 5) == 1

    def test_off_diagonal(self):
        assert biorthogonality(Params(2, "1"), 4, 7) == 0

    def test_corner(self):
        assert biorthogonality(Params(3, "9/4"), 0, 0) == 1

    def test_small_gram_identity(self):
        gram = gram_matrix(Params(2, "3/2"), 12, 12)
        for r, row in enumerate(gram):
            for n, value in enumerate(row):
                assert value == (1 if n == r else 0)


def test_transpose_is_adjoint_on_truncation():
    # entries n/d with d in 1..4, times 12: <Q*T v, w> = <v, Q*T^t w>
    rng = random.Random(99)
    op = BandedOperator(14, 3, "4/3")

    def rand_vec():
        return [rng.randint(-9, 9) * 12 // rng.randint(1, 4) for _ in range(14)]

    for _ in range(25):
        v, w = rand_vec(), rand_vec()
        tv, _ = _step(op, v, False)
        tw, _ = _step(op, w, True)
        assert _int_dot(tv, w) == _int_dot(v, tw)


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


def assert_matches(m, c, polys, transpose, size):
    image, overflow = _image(BandedOperator(size, m, c), polys, transpose)
    want = reference(m, c, polys, transpose)
    assert not overflow
    assert all(i < size for i, x in want.items() if x)
    assert [Fraction(x, image.scale) for x in image.nums] == [want.get(i, 0) for i in range(size)]


def reach(m, polys):
    """A size no Horner intermediate of ``polys`` reaches the top band of,
    in either orientation: T moves support up by at most m, T^t by 1."""
    return max(j + m * poly.degree for j, poly in enumerate(polys)) + 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("c", ["1", "3/7", "640/17"])
def test_image_is_the_band_product(m, c):
    p, R = Params(m, c), 30
    vectors, type2 = gen_type1_vectors(p, R), gen_type2(p, R)
    for r in range(R + 1):
        # components of unequal degree, and zero ones for r < m
        polys = vectors[r].components
        assert_matches(m, Fraction(c), polys, False, r + m + 2)
        assert_matches(m, Fraction(c), polys, True, reach(m, polys))
        assert_matches(m, Fraction(c), [type2[r]], True, r + m + 2)
        assert_matches(m, Fraction(c), [type2[r]], False, reach(m, [type2[r]]))


def test_image_of_mixed_components():
    polys = [Poly(("1/2", 3)), Poly(), Poly((0, 0, "-7/5", 1)), Poly(("2/9",))]
    for m in (1, 3):
        for transpose in (False, True):
            assert_matches(m, Fraction(5, 3), polys, transpose, reach(m, polys))


def test_an_undersized_truncation_sets_the_flag():
    p, r = Params(2, "3/7"), 20
    polys = gen_type1_vectors(p, r)[r].components
    _, overflow = _image(BandedOperator.for_params(p, r), polys, False)
    assert overflow
    image, overflow = _image(BandedOperator.for_params(p, r + p.m + 2), polys, False)
    assert not overflow and is_exactly(image, vec(r + p.m + 2, {r: 1}))
    T = gen_type2(p, r)[r]
    _, overflow = _image(BandedOperator.for_params(p, r), [T], True)
    assert overflow
