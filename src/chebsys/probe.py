"""The probe of the conjecture that the zeros of every ``h_r`` are real and
simple, and the isolating intervals that prove it, in two layers.

The core, ``prove``, proves the zeros of integer polynomials g of degree
>= 1, given in an order where consecutive members should interlace, real
and simple, exactly, with integer signs at dyadic points: d sign changes
along them prove d real, simple zeros, one in each gap where the sign
changes.  Each g is proved from the isolating intervals of the last g
proved before it (``_step``): their ends are the points, and an interval
whose ends show g no sign change is split by the sign of the previous
polynomial until the count comes out right.  The zeros of consecutive h_r
interlace, which is why the points are found (Haneczok and Van Assche,
J. Math. Anal. Appl. 2012), but only the sign count proves anything.  A g
the signs miss is isolated by bisection with the sign changes of the
remainder chain of (g, g') (``_sturm_isolated``), which proves its zeros
real and simple or finds a counterexample; the step goes on from its
intervals.  The core proves and does nothing else: it knows no records and
no c.  The probe imports nothing beyond the exact half: no numeric library.

The record layer, ``isolate``, alone reads a table's records, changes their
variable and, on a PASS, measures.  The core proves each h_r of the table
it is given in y = x/c, as g_r(y) = c**(d-tau) * h_r(c*y) (``_in_y``), at
any c; by the c-grading (in the README) g_r is the c = 1 polynomial
h_r(y; 1) on a generated table, so the core's integers do not grow with c.
When every index is proved it measures the least gap between zeros in x
(``_least_gap``), with ``enclosure``, which refines an isolating interval
to any width relative to its zero.  ``roots`` reports the zeros of every
proved h_r from their intervals (``refined``).
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import namedtuple

from .exactpoly import Poly, _remainder_chain, dyadic_sign
from .rationals import div_man_exp, to_float
from .recurrence import Params, gen_type1_records

ROUNDS = 48  # rounds of splits the step tries at one index before the Sturm count
BISECTIONS = 2  # bisections of a gap in the search for the least one before it is measured
NEWTON = 64  # Newton steps toward a zero, in floats and then exactly
SEPARATION_BITS = 64  # relative width of the enclosures a gap is measured between


ProbeReport = namedtuple(
    "ProbeReport",
    "classification max_imag_normalized min_separation_normalized offending_r reason"
    " checked certified first_uncertified_r",
)
ProbeReport.__doc__ = """Realness and simplicity of the zeros of every h_r, proven index by index
(``isolate``).

Classification is PASS, a proof for every index; or COUNTEREXAMPLE, with
the first index whose zeros are not real and simple as ``offending_r`` and
the ``reason`` of ``prove``.
``max_imag_normalized`` is 0.0 on a PASS and None otherwise, where no zero
is computed.  ``min_separation_normalized`` is the least of
``|x - y| / max(1, |x|, |y|)`` over consecutive zeros of every index, from
isolating intervals refined to 2**-64 of their zeros.  It is None unless
the classification is PASS, and where the least gap underflows a double:
the zeros are proven distinct, so a gap that reads 0.0 there has lost its
digits and does not mean a repeated zero.  ``certified`` counts the indices
the signs proved, and ``first_uncertified_r`` names the first they missed.
"""


# ---------------------------------------------------------------- the step
#
# A dyadic point is a pair (a, k) meaning a / 2**k, with k >= 0 and a odd
# unless k = 0.  An isolating interval is (lo, hi, s): one zero lies in the
# open interval between the points lo < hi (or at lo = hi), and the
# polynomial has the sign s at lo and -s at hi.


Isolated = namedtuple("Isolated", "g intervals")
Isolated.__doc__ = """The zeros of one polynomial ``g``, proven real and simple, and its
isolating intervals in increasing order; for h_r, g is
c**(d-tau) * h_r(c*y), whose zeros are those of h_r(x; c) in y = x/c: the
c = 1 polynomial h_r(y; 1) on a generated table."""


def _reduced(a: int, k: int) -> tuple:
    if not a:
        return 0, 0
    t = min((a & -a).bit_length() - 1, k)
    return a >> t, k - t


def _outer_exponent(g: Poly) -> int:
    """e with every zero of g below 2**(e-1) in modulus, if they are real.

    Real zeros lie within ``sqrt(d-1)`` standard deviations of their mean
    (Laguerre and Samuelson), both read off the top three coefficients, in
    floats; the spare factor of two covers their rounding.  A bound that
    fails only shortens the sign count, which then proves nothing.
    """
    nums, d = g.nums, g.degree
    mean = -nums[-2] / nums[-1] / d
    squares = (nums[-2] / nums[-1]) ** 2 - (2 * nums[-3] / nums[-1] if d > 1 else 0)
    spread = math.sqrt(max(squares / d - mean * mean, 0.0) * (d - 1))
    return math.frexp(2 * (abs(mean) + spread))[1]


def _inside(point: tuple, e: int) -> bool:
    """True if the point lies strictly between -2**e and 2**e."""
    a, k = point
    return abs(a).bit_length() <= e + k if e + k >= 0 else not a


def _split(lo: tuple, hi: tuple) -> tuple:
    """The dyadic of fewest bits in the middle half of [lo, hi]."""
    (a, k), (b, j) = lo, hi
    n = max(k, j)
    a, b = a << (n - k), b << (n - j)
    low, high = 3 * a + b, a + 3 * b  # the quarter points, over 2**(n+2)
    if low <= 0 <= high:
        return 0, 0
    sign = 1
    if high < 0:
        low, high, sign = -high, -low, -1
    # the multiple of the highest power of two in [low, high]: high and
    # low - 1 agree above bit t, where high has a 1 and low - 1 a 0
    t = ((low - 1) ^ high).bit_length() - 1
    return _reduced(sign * (high >> t << t), n + 2)


def _step(g: Poly, last: Isolated) -> tuple | None:
    """Prove that the zeros of g are real and simple from the intervals of
    ``last``: g proved, and the intervals of ``last`` as the step narrowed
    them; or None.

    The points are ``-2**e`` and ``2**e``, beyond every zero of g, and the
    ends of the intervals of ``last``; d = deg g sign changes of g
    along them put one zero of g in each of d disjoint open gaps (Collins
    and Akritas, SYMSAC 1976), and those gaps are g's isolating intervals.
    While the count comes out short, each interval of ``last`` whose ends
    give g no sign change is split, by the sign of ``last.g``, at the
    shortest dyadic in its middle half, and the split point joins the
    points: the zeros of consecutive h_r interlace, so a zero of ``last.g``
    with a zero of g on either side gets a point between those two.  The
    step gives up after ``ROUNDS`` rounds of splits, or at once for a g of
    more than one degree above ``last``, which has too few points.
    """
    if g.degree > len(last.intervals) + 1:
        return None
    e = _outer_exponent(g)
    top = (1 << e, 0) if e >= 0 else (1, -e)
    signs = {}
    # the points in each interval of last, ascending: its zero lies between
    # those at cut - 1 and cut
    rows = [[lo, hi] for lo, hi, _ in last.intervals]
    cuts = [1] * len(rows)
    for _ in range(ROUNDS):
        inner = [point for row in rows for point in row]
        i, j = 0, len(inner)
        while i < j and not _inside(inner[i], e):
            i += 1
        while j > i and not _inside(inner[j - 1], e):
            j -= 1
        # neighbouring intervals may share an end: one point
        points = dict.fromkeys(((-top[0], top[1]), *inner[i:j], top))
        for point in points:
            if point not in signs:
                signs[point] = dyadic_sign(g, *point)
        signed = [(point, s) for point in points if (s := signs[point])]
        gaps = tuple((a, b, s) for (a, s), (b, t) in zip(signed, signed[1:]) if s != t)
        if len(gaps) == g.degree:
            narrowed = tuple(
                (row[cut - 1], row[cut], s) for row, cut, (_, _, s) in zip(rows, cuts, last.intervals)
            )
            return Isolated(g, gaps), last._replace(intervals=narrowed)
        split = False
        for k, (row, cut, (_, _, s_lo)) in enumerate(zip(rows, cuts, last.intervals)):
            lo, hi = row[cut - 1], row[cut]
            if lo != hi and signs.get(lo, 0) * signs.get(hi, 0) >= 0:
                point = _split(lo, hi)
                s = dyadic_sign(last.g, *point)
                # twice where it is the zero itself: the interval (point, point)
                row[cut:cut] = [point] * (2 - abs(s))
                if s != -s_lo:
                    cuts[k] += 1
                split = True
        if not split:
            return None
    return None


def _sturm_isolated(g: Poly) -> tuple:
    """The isolating intervals of the distinct real zeros of g, in increasing
    order, and the degree of gcd(g, g'), exactly.

    Sturm's theorem on the remainder chain of (g, g') (Brown and Traub,
    J. ACM 1971): V(a) - V(b), the sign changes of the chain at a less those
    at b, counts the distinct zeros of g in (a, b] where g(a) and g(b) are
    nonzero.  The count starts from -2**e and 2**e beyond every zero
    (Fujiwara's bound, read off the bit lengths of the coefficients), and an
    interval of more than one zero is split at ``_split``; a split point that
    is a zero of g is split toward the lower end again, so that g has a
    nonzero sign at every end.
    """
    chain = _remainder_chain(list(g.nums), list(g.derivative().nums))
    chain = [Poly.scaled(nums) for nums in chain]

    def changes(point):  # None at a zero of g
        signs = [dyadic_sign(p, *point) for p in chain]
        if signs[0]:
            signs = [s for s in signs if s]
            return sum(s != t for s, t in zip(signs, signs[1:]))
        return None

    d, bits = g.degree, g.nums[-1].bit_length()
    # |n_i/n_d|**(1/(d-i)) < 2**power, and every zero lies below twice the largest
    powers = [-((bits - abs(n).bit_length() - 1) // (d - i)) for i, n in enumerate(g.nums[:-1]) if n]
    e = 1 + max(powers, default=-1)
    top = (1 << e, 0) if e >= 0 else (1, -e)
    low = (-top[0], top[1])
    intervals, todo = [], [(low, changes(low), top, changes(top))]
    while todo:
        lo, v, hi, w = todo.pop()
        if v - w == 1:
            intervals.append((lo, hi, dyadic_sign(g, *lo)))
        elif v - w > 1:
            mid = _split(lo, hi)
            while (u := changes(mid)) is None:
                mid = _split(lo, mid)
            todo += [(mid, u, hi, w), (lo, v, mid, u)]
    return tuple(intervals), chain[-1].degree


# ---------------------------------------------------------------- separation


def _float(a: int, k: int) -> float:
    """a / 2**k as a float: plain ``ldexp``, a quarter of the cost of
    ``rationals.to_float``, which rounds as mpmath does, in the hot loop of
    the search for the least gap."""
    try:
        return math.ldexp(a, -k)
    except OverflowError:  # a beyond a double, a / 2**k perhaps not
        cut = a.bit_length() - 64
        return math.ldexp(a >> cut, cut - k)


# In the search for the least gap an isolating interval is a span
# (lo, hi, k, s, a, b): its ends lo / 2**k <= hi / 2**k, the sign s of its
# polynomial at lo, and its ends a <= b as floats.


def _span(lo: int, hi: int, k: int, s: int) -> tuple:
    return lo, hi, k, s, _float(lo, k), _float(hi, k)


def _as_span(interval: tuple) -> tuple:
    (a, k), (b, j), s = interval
    n = max(k, j)
    return _span(a << (n - k), b << (n - j), n, s)


def _refined(g: Poly, span: tuple) -> tuple:
    """The half of the span that holds the zero of g."""
    lo, hi, k, s, a, b = span
    mid, k = lo + hi, k + 1
    t, m = dyadic_sign(g, mid, k), _float(mid, k)
    if not t:
        return mid, mid, k, s, m, m
    return (mid, 2 * hi, k, s, m, b) if t == s else (2 * lo, mid, k, s, a, m)


def _fine(span: tuple, bits: int) -> bool:
    """True once the span is at most 2**-bits of the modulus of its zero wide."""
    lo, hi = span[:2]
    return (hi - lo) << bits <= min(abs(lo), abs(hi))


def _gap_bounds(left: tuple, right: tuple, inverse: float) -> tuple:
    """Lower and upper bounds of the normalized gap between the zeros in
    two spans, left below right, in floats: ``gap / max(1/c, top)`` in y,
    that is ``c*gap / max(1, c*top)`` in x = c*y, ``inverse`` being 1/c."""
    a1, b1 = left[4:]
    a2, b2 = right[4:]
    # the larger zero in modulus lies below max(-a1, b2), and above a2 if
    # that is positive, above -b1 if that is
    lower = max(a2 - b1, 0.0) / max(inverse, -a1, b2)
    top = max(inverse, a2, -b1, 0.0)
    return lower, (b2 - a1) / top if top else math.inf


def _measured(left: tuple, right: tuple, ratio: tuple) -> float:
    """The normalized gap between the midpoints of two spans in x = c*y,
    c = P/Q, on the kernel: the gap and the larger modulus, each rounded
    once to 53 bits, then their quotient where that modulus is 1 or more."""
    (lo1, hi1, k1), (lo2, hi2, k2) = left[:3], right[:3]
    n = max(k1, k2)
    m1, m2 = (lo1 + hi1) << (n - k1), (lo2 + hi2) << (n - k2)
    P, Q = ratio
    gap = div_man_exp(P * (m2 - m1), -n - 1, Q, 0, 53)
    man, exp = div_man_exp(P * max(abs(m1), abs(m2)), -n - 1, Q, 0, 53)
    if man.bit_length() + exp > 0:  # the modulus is 1 or more
        gap = div_man_exp(*gap, man, exp, 53)
    return to_float(*gap)


def enclosure(g: Poly, span: tuple, bits: int, floats: list) -> tuple:
    """The span refined until it is at most 2**-bits of its zero's modulus
    wide (one point, lo = hi, where that is exactly a zero).

    A span across 0 is first cut at 0.  Newton's method in floats, on
    ``floats`` (``_scaled_floats(g)``), runs from the middle of the span,
    kept inside it by the float signs while they lie above the rounding
    noise of Horner's rule.  Exact Newton steps follow (``_value_and_slope``):
    the sign of each exact value moves an end of the span, a step that
    would leave the span, or that lies in no lower binade than the step
    before the last, bisects it instead, and each step that stays doubles
    the bits that the last one left right.  The binade rule is the
    safeguard of ``rtsafe`` (Press et al., Numerical Recipes, section 9.4):
    from far beyond a cluster of zeros, as from the outer end ``2**e`` of
    an outermost span, Newton's steps shrink by a factor of only about
    1 - 1/d each.  Two exact signs at the ends of a span 2**-(bits+2) of
    the result wide close it, and where they fail bisection refines the
    span itself: Newton's method speeds the refinement and proves nothing
    (quadratic interval refinement: Abbott, ACM Commun. Comput. Algebra
    2014).
    """
    lo, hi, k, s, a, b = span
    if lo < 0 < hi:
        t = dyadic_sign(g, 0, 0)
        if not t:
            return _span(0, 0, 0, s)
        span = lo, hi, k, s, a, b = _span(0, hi, k, s) if t == s else _span(lo, 0, k, s)
    if _fine(span, bits):
        return span
    x = (a + b) / 2
    noise = 2 * len(floats) * 2.0**-53  # relative error of Horner's rule in floats
    for _ in range(NEWTON):
        value = slope = size = 0.0
        for c in floats:
            slope = slope * x + value
            value = value * x + c
            size = size * abs(x) + abs(c)
        if not math.isfinite(value) or abs(value) <= noise * size:
            break
        if (value > 0) == (s > 0):
            a = x
        else:
            b = x
        nx = x - value / slope if slope else a
        if not a < nx < b:
            nx = (a + b) / 2
        if nx == x or not a < nx < b:
            break
        x = nx
    num, den = x.as_integer_ratio()
    kx = den.bit_length() - 1
    target = bits + 8
    # the binades of the last two moves of x, for the creep test
    before = latest = (hi - lo).bit_length() - k
    for _ in range(NEWTON):
        value, slope = _value_and_slope(g, num, kx)
        if not value:
            return _span(num, num, kx, s)
        n = max(k, kx)
        lo, hi, k = lo << (n - k), hi << (n - k), n
        if (value > 0) == (s > 0):
            lo = num << (n - kx)
        else:
            hi = num << (n - kx)
        span = _span(lo, hi, k, s)
        if _fine(span, bits):
            return span
        # x - value / slope to 2**-K, some bits below the target's, the
        # quotient cut toward 0 so that x never steps past a zero it is at
        ex = num.bit_length() - kx  # 2**(ex-1) <= |x| < 2**ex
        K = max(target + 4 - ex, 0)
        step = (abs(value) << K) // (abs(slope) << kx) if slope else 0
        if (value < 0) != (slope < 0):
            step = -step
        shift = K - kx
        nx = (num << shift if shift >= 0 else num >> -shift) - step
        n = max(k, K)
        size = abs(step).bit_length() - K
        if (
            not slope
            or step and not lo << (n - k) < nx << (n - K) < hi << (n - k)
            or size >= before
        ):
            num, kx = lo + hi, k + 1
            before, latest = latest, (hi - lo).bit_length() - k - 1
            continue
        before, latest = latest, size
        num, kx = nx, K
        # the step was about the error of x before it, so twice its bits
        # are right now: check the span 2**-(bits+2) of x wide around x,
        # cut to the span that holds the zero, whose ends have their signs
        if 2 * (ex + K - abs(step).bit_length()) >= target:
            ex = num.bit_length() - kx
            n = max(k, kx, bits + 3 - ex)
            mid, half = num << (n - kx), 1 << (n + ex - bits - 3)
            first, last = lo << (n - k), hi << (n - k)
            low, high = max(mid - half, first), min(mid + half, last)
            if (low == first or dyadic_sign(g, low, n) == s) and (
                high == last or dyadic_sign(g, high, n) == -s
            ):
                return _span(low, high, n, s)
    while not _fine(span, bits):
        span = _refined(g, span)
    return span


def _value_and_slope(g: Poly, a: int, k: int) -> tuple:
    """``g(x) * den * 2**(k*d)`` and ``g'(x) * den * 2**(k*(d-1))`` at
    x = a / 2**k, d = deg g, as integers (Horner's rule for both)."""
    value = slope = shift = 0
    for n in reversed(g.nums):
        slope = slope * a + value
        value = value * a + (n << shift)
        shift += k
    return value, slope


def _scaled_floats(g: Poly) -> list:
    """g's coefficients as floats, highest first, scaled by one power of two."""
    cut = max(abs(n).bit_length() for n in g.nums) - 60
    return [_float(n, cut) for n in reversed(g.nums)]


def refined(iso: Isolated, bits: int) -> list:
    """``(lo, hi, k)`` for each zero y of ``iso.g``, in increasing order:
    ``lo / 2**k <= y <= hi / 2**k``, at most 2**-bits of |y| apart."""
    floats = _scaled_floats(iso.g)
    return [enclosure(iso.g, _as_span(iv), bits, floats)[:3] for iv in iso.intervals]


def _least_gap(proved: list, ratio: tuple) -> float | None:
    """The least normalized gap between consecutive zeros over the proved
    indices, in x = c*y, c = P/Q given as ``ratio``, inf if none has two
    zeros, or None where it underflows a double: the zeros are proven
    distinct, so such a gap has lost its digits.

    Every interval is first bisected once by the sign of its polynomial.
    Then the gap of least lower bound is refined first, and the search ends
    once every lower bound reaches the least upper bound found so far.  A
    gap is bisected ``BISECTIONS`` times at most; then, or once its bounds
    lie within a factor of two, it is measured: its intervals are refined
    to 2**-SEPARATION_BITS of their zeros (``enclosure``), and the gap taken
    between their midpoints.
    """
    if not proved:
        return math.inf
    P, Q = ratio
    try:
        inverse = Q / P  # 1/c, for the bounds
    except OverflowError:
        inverse = math.inf
    spans = [[_refined(index.g, _as_span(iv)) for iv in index.intervals] for index in proved]
    floats = {}

    def measured(n, i):
        row, g = spans[n], proved[n].g
        if n not in floats:
            floats[n] = _scaled_floats(g)
        for j in (i, i + 1):
            row[j] = enclosure(g, row[j], SEPARATION_BITS, floats[n])
        return _measured(row[i], row[i + 1], ratio)

    heap = [
        (*_gap_bounds(row[i], row[i + 1], inverse), 0, n, i)
        for n, row in enumerate(spans)
        for i in range(len(row) - 1)
    ]
    least = min((upper for _, upper, _, _, _ in heap), default=math.inf)
    heapq.heapify(heap)
    while heap and heap[0][0] < least:
        lower, upper, tries, n, i = heapq.heappop(heap)
        if tries == BISECTIONS or 2 * lower >= upper:
            least = min(least, measured(n, i))
            continue
        row, g = spans[n], proved[n].g
        for j in (i, i + 1):
            if not _fine(row[j], SEPARATION_BITS):
                row[j] = _refined(g, row[j])
        lower, upper = _gap_bounds(row[i], row[i + 1], inverse)
        least = min(least, upper)
        heapq.heappush(heap, (lower, upper, tries + 1, n, i))
    return least if least >= sys.float_info.min else None


def prove(pairs) -> tuple:
    """The core: ``(proved, missed, offending, reason)`` for ``pairs``, an
    ordered sequence of ``(label, g)``, g of degree >= 1.

    ``proved`` is ``{label: Isolated}`` for every g proved by the step from
    the last g proved or by Sturm's theorem, and ``missed`` the labels the
    step missed, in order.  ``offending`` labels the first g of neither,
    with its ``reason``: ``repeated-root`` when gcd(g, g') is not constant,
    ``complex-root`` otherwise.  Past it Sturm's theorem still isolates
    every g the step misses, but the step no longer starts from those
    intervals, so that the result is what it would be without them.
    """
    proved, missed, offending, reason = {}, [], None, None
    last_label, last = None, Isolated(None, ())
    for label, g in pairs:
        found = _step(g, last)
        if found is not None:
            if last.g is not None:
                proved[last_label] = found[1]
            found = found[0]
        else:
            missed.append(label)
            intervals, gcd_degree = _sturm_isolated(g)
            if len(intervals) < g.degree:
                if offending is None:
                    offending, reason = label, "repeated-root" if gcd_degree > 0 else "complex-root"
                continue
            found = Isolated(g, intervals)
            if offending is not None:
                # past a counterexample the step starts from where it did
                # without these intervals, and the result stays as it was
                proved[label] = found
                continue
        proved[label] = last = found
        last_label = label
    return proved, missed, offending, reason


def _in_y(records, P: int, Q: int):
    """``(r, g_r)`` for each record, g_r(y) = c**(d-tau) * h_r(c*y) exactly,
    c = P/Q: the y**j coefficient is h_j * c**(d-tau+j).

    By the c-grading g_r is the c = 1 polynomial, of small integers, so it is
    formed by exact divisions that pair each coefficient of h_r with small
    numbers: the leading one by the powers of P and Q carried from index to
    index, each other by its ratio to the one above.  Only a table off the
    grading leaves a remainder; its g_r is then formed in full, rational.
    """
    e, Pe, Qe = 0, 1, 1  # P**e and Q**e
    for rec in records:
        h, s = rec.h, rec.d - rec.tau
        top = s + h.degree  # the power of c in the leading coefficient
        if top < e:
            e, Pe, Qe = 0, 1, 1
        Pe, Qe, e = Pe * P ** (top - e), Qe * Q ** (top - e), top
        nums, k = h.nums, h.degree
        # on the grading h_k = a * (Q/P)**top, a an integer: Q**top divides
        # its numerator, and the denominator divides P**top
        lead, rest = divmod(nums[-1], Qe)
        scale, left = divmod(Pe, h.den)
        g, rest = [0] * k + [lead * scale], rest or left
        for j in range(k - 1, -1, -1):
            if nums[j] and not rest:
                g[j], rest = divmod(g[k] * Q ** (k - j) * nums[j], nums[k] * P ** (k - j))
                k = j
        if rest:
            g = [n * P ** (s + j) * Q ** (top - s - j) for j, n in enumerate(nums)]
        yield rec.r, Poly.scaled(g, h.den * Qe if rest else 1)


def isolate(p: Params, records) -> tuple:
    """The probe of the h_r of ``records``, and the zeros it isolated:
    ``(ProbeReport, {r: Isolated})``, with an entry for every index proved.

    The record layer: it takes the indices of degree >= 1, has ``prove``
    prove each h_r in y = x/c (``_in_y``), labelled by r, and on a PASS
    measures their least gap (``_least_gap``).  An index whose zeros are not
    real and simple is missing from the dict.
    """
    records = [rec for rec in records if rec.h.degree >= 1]
    proved, missed, offending, reason = prove(_in_y(records, *p.ratio))
    passed = offending is None
    report = ProbeReport(
        classification="PASS" if passed else "COUNTEREXAMPLE",
        max_imag_normalized=0.0 if passed else None,
        min_separation_normalized=_least_gap(list(proved.values()), p.ratio) if passed else None,
        offending_r=offending,
        reason=reason,
        checked=len(records),
        certified=len(records) - len(missed),
        first_uncertified_r=missed[0] if missed else None,
    )
    return report, proved


def conjecture_probe(p: Params, r_max: int) -> ProbeReport:
    """Realness and simplicity of the zeros of every h_r, r <= r_max (``isolate``)."""
    if r_max < p.m:
        raise ValueError("r_max must be at least m")
    return isolate(p, gen_type1_records(p, r_max))[0]
