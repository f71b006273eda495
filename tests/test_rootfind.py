"""The raw-libmp Aberth kernel against the mpmath operator form it replaces."""

import mpmath
import pytest

from chebsys import rootfind
from chebsys.recurrence import Params, gen_type1_records


def aberth_operator_form(cs, xs, workbits, maxiter):
    """The Aberth sweeps written with mpc/mpf operators, as the kernel was."""
    n = len(xs)
    with mpmath.workprec(workbits):
        step_tol = mpmath.mpf(2) ** -(workbits - 6)
        floor_eps = mpmath.mpf(2) ** -(workbits - 4)
        abs_cs = [abs(c) for c in cs]
        done = [False] * n
        for _ in range(maxiter):
            for i in range(n):
                if done[i]:
                    continue
                x = xs[i]
                p = cs[-1]
                dp = mpmath.mpc(0)
                scale = abs_cs[-1]
                ax = abs(x)
                for c, ac in zip(reversed(cs[:-1]), reversed(abs_cs[:-1])):
                    dp = dp * x + p
                    p = p * x + c
                    scale = scale * ax + ac
                if abs(p) <= floor_eps * scale:
                    done[i] = True
                    continue
                if dp == 0:
                    xs[i] = x + mpmath.mpf(2) ** -16 * (1 + ax)
                    continue
                newton = p / dp
                coupling = mpmath.mpc(0)
                for j in range(n):
                    if j == i:
                        continue
                    diff = x - xs[j]
                    if diff == 0:
                        diff = mpmath.mpf(2) ** -(workbits // 2) * (1 + ax)
                    coupling += 1 / diff
                denom = 1 - newton * coupling
                w = newton if denom == 0 else newton / denom
                xs[i] = x - w
                if abs(w) <= step_tol * (1 + abs(xs[i])):
                    done[i] = True
            if all(done):
                return xs, True
    return xs, False


def both(coeffs, seeds, precision, maxiter=None):
    workbits = precision + 32
    maxiter = maxiter or max(100, 2 * precision)
    with mpmath.workprec(workbits):
        cs = [rootfind.to_mpc(c) for c in coeffs]
        xs = [mpmath.mpc(s) for s in seeds]
    ref, ref_settled = aberth_operator_form(cs, list(xs), workbits, maxiter)
    raw = [c._mpc_ for c in cs]
    abs_cs = [mpmath.libmp.mpc_abs(c, workbits, mpmath.libmp.round_nearest) for c in raw]
    got, settled = rootfind._aberth(raw, abs_cs, [x._mpc_ for x in xs], workbits, maxiter)
    return [x._mpc_ for x in ref], ref_settled, got, settled


@pytest.mark.parametrize("precision", [53, 128, 300])
def test_iterates_are_bit_identical_on_h_polynomials(precision):
    for m, c in ((1, "3/2"), (2, "59/62"), (3, "23/41")):
        for rec in gen_type1_records(Params(m, c), 48)[8::8]:
            if rec.h.degree < 2:
                continue
            with mpmath.workprec(precision + 32):
                seeds = rootfind._initial_guesses([rootfind.to_mpc(q) for q in rec.h.coeffs])
            # after two sweeps, and settled
            for maxiter in (2, None):
                ref, ref_settled, got, settled = both(rec.h.coeffs, seeds, precision, maxiter)
                assert (got, settled) == (ref, ref_settled), (m, c, rec.r, maxiter)


def test_colliding_seeds_and_a_zero_derivative_take_the_same_steps():
    # x**2 - 2 seeded at 0, where the derivative vanishes, and twice at 0.5,
    # where the Aberth coupling divides by a zero difference; the same for
    # x**3 - 3x + 1.  Every sweep is compared, not only the settled roots.
    for seeds in ([0, 1], [0.5, 0.5], [0.25, 0.25, 2], [0, 2, -2]):
        coeffs = [-2, 0, 1] if len(seeds) == 2 else [1, -3, 0, 1]
        for maxiter in range(1, 9):
            ref, ref_settled, got, settled = both(coeffs, seeds, 80, maxiter)
            assert (got, settled) == (ref, ref_settled), (seeds, maxiter)


def test_an_unsettled_run_stops_after_maxiter_sweeps():
    rec = gen_type1_records(Params(2, "59/62"), 60)[60]
    with mpmath.workprec(160):
        seeds = [mpmath.mpc(k + 1, 1) for k in range(rec.h.degree)]
    ref, ref_settled, got, settled = both(rec.h.coeffs, seeds, 128, maxiter=2)
    assert (got, settled) == (ref, False)
