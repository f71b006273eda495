"""The zeros of a proved h_r, refined from the probe's isolating intervals.

``roots`` takes the zeros of every index the probe proved from the intervals
that proved it (``probe.enclosure``), and solves nothing.
``mpmath.polyroots`` from numpy's companion-matrix seeds is the reference
here, at 256 bits, on the probe's c = 1 polynomial in y = x/c, where the
zeros are of the order of one whatever c is.  Exact signs of h_r at the two
doubles next to each written zero confirm that a zero lies between them.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from chebsys import probe, roots
from chebsys.exactpoly import Poly, dyadic_sign
from chebsys.recurrence import Params, gen_type1_records

C_VALUES = ["1", "3/7", "59/62", Fraction(1, 10**40), 10**40]
C_IDS = ["1", "3/7", "59/62", "tiny", "huge"]
# a few indices up to 120 per m; for m = 1, deg h_r = r/2, so fewer
INDICES = {1: (9, 24, 40), 2: (20, 70, 120), 3: (40, 90, 120), 4: (60, 100, 120)}


def companion_seeds(g) -> list:
    """numpy's companion-matrix eigenvalues of g, normalized by its largest
    coefficient, in double precision."""
    scale = max(map(abs, g.nums))
    return [complex(s) for s in np.roots([n / scale for n in reversed(g.nums)])]


def polyroots(g, bits=256) -> list:
    """The zeros of g to ``2**-bits`` by ``mpmath.polyroots`` on 64 more bits
    (32 more leave the floor of its steps above ``2**-bits`` at m = 1,
    r = 40), on its integer coefficients, highest first, seeded with
    ``companion_seeds``."""
    with mpmath.workprec(bits):
        return mpmath.polyroots(
            g.nums[::-1], maxsteps=100, extraprec=64, roots_init=companion_seeds(g)
        )


def sign_at(h, x: float) -> int:
    num, den = x.as_integer_ratio()
    return dyadic_sign(h, num, den.bit_length() - 1)


@pytest.mark.parametrize("c", C_VALUES, ids=C_IDS)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_proved_zeros_agree_with_the_aberth_solve_at_256_bits(m, c):
    p = Params(m, c)
    records = gen_type1_records(p, 120)
    report, isolated = roots.isolate(p, records)
    assert report.certified == report.checked
    n = m + 1
    for r in INDICES[m]:
        rec = records[r]
        if rec.tau < 1:
            r -= 1
            rec = records[r]
        iso = isolated[r]
        [(_, got)] = roots.solve_indices(p, records, [r], 256, isolated)
        assert got.total_root_count == rec.t.degree
        assert got.origin_multiplicity == rec.ell
        ref = sorted(polyroots(iso.g), key=lambda y: y.real)
        assert len(ref) == rec.h.degree
        assert [mult for _, mult in got.h_roots] == [1] * rec.h.degree
        nonzero = [z for z, _ in got.t_roots if z != 0]
        assert len(nonzero) == n * rec.h.degree
        with mpmath.workprec(256):
            for i, ((x, _), y) in enumerate(zip(got.h_roots, ref)):
                # x = c*y
                want = y.real * p.ratio[0] / p.ratio[1]
                assert x.imag == 0 and x.real == pytest.approx(float(want), rel=2**-52), r
                below, above = math.nextafter(x.real, -math.inf), math.nextafter(x.real, math.inf)
                assert sign_at(rec.h, below) * sign_at(rec.h, above) == -1, (r, x)
                # the (m+1)-th roots, in mpmath's order for real x
                for j in range(n):
                    z = complex(mpmath.root(want, n, j))
                    assert abs(nonzero[n * i + j] - z) <= 2**-51 * abs(z), (r, i, j)
        xs = [x.real for x, _ in got.h_roots]
        assert xs == sorted(xs)


@pytest.mark.parametrize("m", [2, 3])
def test_the_least_gap_of_small_zeros_scales_with_c(m):
    # the zeros of h_r scale exactly as c, so once they all lie below 1 the
    # normalized gaps, plain differences there, scale with c too
    small = probe.conjecture_probe(Params(m, Fraction(1, 10**40)), 40).min_separation_normalized
    ref = probe.conjecture_probe(Params(m, Fraction(1, 10**3)), 40).min_separation_normalized
    assert small == pytest.approx(ref * 1e-37, rel=1e-15)


def test_an_enclosure_is_relative_to_its_zero():
    # the zero 1/(3*2**70) of 3*2**70*y - 1, isolated by (-1, 1): the span is
    # cut at 0 and refined to 2**-60 of the zero, not of 1
    g = Poly.scaled([-1, 3 << 70])
    lo, hi, k = probe.enclosure(g, probe._span(-1, 1, 0, -1), 60, probe._scaled_floats(g))[:3]
    assert Fraction(lo, 2**k) < Fraction(1, 3 << 70) < Fraction(hi, 2**k)
    assert 0 < (hi - lo) * 2**60 <= lo


@pytest.mark.parametrize("m, c", [(1, "3/7"), (2, "59/62"), (3, "1"), (4, "3/7")])
def test_newton_closes_every_enclosure_without_bisection(monkeypatch, m, c):
    # the exact Newton steps and the two closing signs refine each interval;
    # bisection is only the last resort
    p = Params(m, c)
    isolated = roots.isolate(p, gen_type1_records(p, 60))[1]

    def bisect(g, span):
        raise AssertionError("an enclosure fell back to bisection")

    monkeypatch.setattr(probe, "_refined", bisect)
    for bits in (85, 160, 288):
        for iso in isolated.values():
            assert len(probe.refined(iso, bits)) == iso.g.degree
