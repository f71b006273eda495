"""The Aberth sweeps of ``rootfind``: their bits, their stopping rule, the
seeds that need their special steps, and the seeds of the Newton polygon.

numpy's companion-matrix eigenvalues, the package's Aberth seeds before the
polygon's, are the seeds of the pinned sweeps."""

import cmath
import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from chebsys import rootfind
from chebsys.recurrence import Params, gen_type1_records
from chebsys.roots import isolate, roots_of_t

# x**2 - 2 and x**3 - 3x + 1, with their roots
SQRT2 = ([-2, 0, 1], [-math.sqrt(2), math.sqrt(2)])
TRIPLE = ([1, -3, 0, 1], [2 * math.cos(2 * math.pi * k / 9) for k in (1, 5, 7)])


def sweeps(coeffs, seeds, precision, maxiter):
    """The iterates of ``maxiter`` Aberth sweeps from ``seeds`` and whether
    they settled, at the working precision ``complex_roots`` gives
    ``precision``."""
    workbits = precision + 32
    with mpmath.workprec(workbits):
        cs = [rootfind.to_mpc(c) for c in coeffs]
        xs = [mpmath.mpc(s) for s in seeds]
        return rootfind._aberth(cs, [abs(c) for c in cs], xs, workbits, maxiter)


def digest(xs, settled) -> str:
    """SHA-256 of the iterates' raw mpmath values, and the settled flag."""
    raw = [tuple(int(v) for v in part) for x in xs for part in x._mpc_]
    return hashlib.sha256(repr(raw).encode()).hexdigest() + str(settled)


def companion_seeds(cs) -> list:
    """numpy's companion-matrix eigenvalues of the coefficients ``cs``,
    lowest first, normalized by the largest modulus, in double precision."""
    scale = max(abs(c) for c in cs)
    return [complex(s) for s in np.roots([complex(c / scale) for c in reversed(cs)])]


def rounded_companion_seeds(coeffs, precision):
    """Companion seeds rounded to 2**-20, so that their bits do not depend on
    the last digits of numpy's eigenvalues."""
    with mpmath.workprec(precision + 32):
        seeds = companion_seeds([rootfind.to_mpc(c) for c in coeffs])
    return [complex(round(s.real * 2**20), round(s.imag * 2**20)) / 2**20 for s in seeds]


# the iterates of the sweeps below, after two sweeps and after the default
# number, as the raw-libmp Aberth loop that preceded the operator form gave
# them, bit for bit
PINNED_SWEEPS = {53: "8e2dbb9b36f6b878", 128: "e2ecee6b5f79102a", 300: "6e9b829345c9fa89"}
PINNED_STEPS = "748dc5cb9c77041e"


@pytest.mark.parametrize("precision", [53, 128, 300])
def test_iterates_are_bit_identical_on_h_polynomials(precision):
    parts = []
    for m, c in ((1, "3/2"), (2, "59/62"), (3, "23/41")):
        for rec in gen_type1_records(Params(m, c), 48)[8::8]:
            if rec.h.degree < 2:
                continue
            seeds = rounded_companion_seeds(rec.h.coeffs, precision)
            for maxiter in (2, max(100, 2 * precision)):
                parts.append(digest(*sweeps(rec.h.coeffs, seeds, precision, maxiter)))
    assert hashlib.sha256("".join(parts).encode()).hexdigest()[:16] == PINNED_SWEEPS[precision]


def test_colliding_seeds_and_a_zero_derivative_take_the_same_steps():
    # x**2 - 2 seeded at 0, where the derivative vanishes, and twice at 0.5,
    # where the Aberth coupling divides by a zero difference; the same for
    # x**3 - 3x + 1.  Every sweep is pinned, not only the settled roots.
    steps = []
    for seeds in ([0, 1], [0.5, 0.5], [0.25, 0.25, 2], [0, 2, -2]):
        coeffs = SQRT2[0] if len(seeds) == 2 else TRIPLE[0]
        for maxiter in range(1, 9):
            steps.append(digest(*sweeps(coeffs, seeds, 80, maxiter)))
    assert hashlib.sha256("".join(steps).encode()).hexdigest()[:16] == PINNED_STEPS


@pytest.mark.parametrize(
    "poly, seeds",
    [(SQRT2, [0, 1]), (SQRT2, [0.5, 0.5]), (TRIPLE, [0.25, 0.25, 2]), (TRIPLE, [0, 2, -2])],
)
def test_zero_derivative_and_colliding_seeds_reach_the_roots(poly, seeds):
    coeffs, want = poly
    xs, settled = sweeps(coeffs, seeds, 80, 160)
    assert settled
    # and so through complex_roots, which separates equal seeds first
    for roots in (xs, rootfind.complex_roots(coeffs, 80, seeds=seeds)):
        assert all(x.imag == 0 for x in roots)
        assert sorted(float(x.real) for x in roots) == pytest.approx(sorted(want), rel=1e-15)


def test_an_unsettled_run_stops_after_maxiter_sweeps(monkeypatch):
    rec = gen_type1_records(Params(2, "59/62"), 60)[60]
    n = rec.h.degree
    seeds = [complex(k + 1, 1) for k in range(n)]
    calls = []
    horner = rootfind._horner
    monkeypatch.setattr(rootfind, "_horner", lambda *args: calls.append(1) or horner(*args))
    xs, settled = sweeps(rec.h.coeffs, seeds, 128, 2)
    # one Horner evaluation per root and sweep, and the second sweep ran
    assert not settled and n < len(calls) <= 2 * n
    assert len(xs) == n
    with pytest.raises(rootfind.RootRefinementError):
        rootfind.complex_roots(rec.h.coeffs, 128, maxiter=2, seeds=seeds)



def test_unsettled_iterates_far_beyond_the_roots_are_refused():
    # seeded at modulus 1e300 the sweeps run out far from the zeros of
    # h_150 at m = 2, c = 10**40; the residual of each iterate, against its
    # own sum |c_i||x|**i, shows that it is no root
    h = gen_type1_records(Params(2, 10**40), 150)[150].h
    seeds = [1e300 * cmath.exp(2j * math.pi * (k + 0.35) / 25) for k in range(25)]
    with pytest.raises(rootfind.RootRefinementError):
        rootfind.complex_roots(h.coeffs, 53, seeds=seeds)


@pytest.mark.parametrize("c", [10**40, Fraction(1, 10**40)], ids=["huge", "tiny"])
@pytest.mark.parametrize("precision", [53, 128])
def test_polygon_seeds_reach_zeros_beyond_a_double_range_of_coefficients(precision, c):
    # the coefficients of h_150 at m = 2, c = 10**40 span far beyond a
    # double, so companion seeds overflow; the polygon's converge, to the
    # 25 zeros the probe proves, and at c = 10**-40 the relative step
    # tolerance keeps the sweeps going down to zeros near 10**-40
    p = Params(2, c)
    records = gen_type1_records(p, 150)
    proved = roots_of_t(records[150], p, precision, isolate(p, records)[1][150])
    zeros = rootfind.complex_roots(records[150].h.coeffs, precision)
    assert len(zeros) == 25
    assert all(abs(z.imag) <= 1e-12 * abs(z) for z in zeros)
    want = sorted(z.real for z, _ in proved.h_roots)
    assert sorted(float(z.real) for z in zeros) == pytest.approx(want, rel=1e-12)


def test_the_newton_polygon_places_the_seeds():
    # 1 + 10**40 x**2 - x**3: the hull's two edges put two seeds at modulus
    # 10**-20 and one at 10**40, all off the real axis
    with mpmath.workprec(80):
        cs = [rootfind.to_mpc(q) for q in (1, 0, 10**40, -1)]
        moduli = sorted(abs(x) for x in rootfind._initial_guesses(cs))
        ten = mpmath.mpf(10)
        assert moduli == pytest.approx([ten**-20, ten**-20, ten**40], rel=2**-70)
        # and on a circle beyond the range of a double
        cs = [rootfind.to_mpc(q) for q in (Fraction(1, 10**400), 0, 1)]
        seeds = rootfind._initial_guesses(cs)
        assert [abs(x) for x in seeds] == pytest.approx([ten**-200] * 2, rel=2**-70)
        assert all(x.imag for x in seeds)
