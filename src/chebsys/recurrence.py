"""Generators for the dual pair of fixed-coefficient recurrences.

Two families are produced for a parameter pair ``(m, c)`` with ``m >= 1`` and
``c > 0`` rational:

* the vector family ``t_r = (t_{0,r}, ..., t_{m-1,r})`` with unit-vector
  initial data and ``c*t_n = x*t_{n-m} - t_{n-m-1}``;
* the scalar family ``t_r`` (the first components, equivalently the shifted
  diagonal of the vector family) with ``t_0 = 1``, ``t_1 = ... = t_{m-1} = 0``
  and the same three-term rule;
* the companion family ``T_n`` with ``T_0 = 1`` and
  ``T_{n+1} = x*T_n - c*T_{n-m}``.

Every scalar ``t_r`` factors as ``(-1)**k * z**ell * h_r(z**(m+1))`` where
``r = d*m + k`` and ``d - k = (m+1)*tau + ell``.  The generating function
``c/(c - z*v**m + v**(m+1))`` makes every coefficient of ``h_r`` and of
``T_n`` one signed binomial times powers of c (README "The closed form"), so
``gen_type1_records`` and ``gen_type2`` build them from those formulas, and
``closed_form_strs`` writes the coefficients of ``t_r`` and ``T_n`` from them
as reduced ``"p/q"`` strings, with no ``Poly``; the recurrence stays the
reference for ``t_r``.  ``verify_shift`` checks the shift identity and
``verify_h_recurrence`` finds the sign of the induced recurrence for the
``h_r``, assuming neither.

Generation runs in integers.  With ``c = P/Q`` the denominators have a
fixed structure: ``P**(r//m) * t_r`` and ``P**(r//m) * t_{j,r}`` have integer
coefficients, and so do ``P**d * h_r`` and ``Q**(n//(m+1)) * T_n``.  The
recurrence steps the numerators of ``t_r`` and ``t_{j,r}`` (Bareiss's
fraction-free idea), and each term is returned as a ``Poly`` over its known
denominator in lowest terms, so its denominator divides the known one.
Nothing is cached: every call generates afresh, and the returned records are
immutable and safe to share across threads.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, repeat, zip_longest
from math import comb, gcd, lcm
from operator import attrgetter, mul

from .exactpoly import Poly
from .rationals import ratio


class Params:
    """Recurrence parameters: band offset ``m >= 1`` and exact weight ``c > 0``.

    c is kept as the reduced integers ``ratio = (num, den)``, which every
    computation reads; ``c`` is it as a ``fractions.Fraction``, built on
    each use.  ``m`` and c are read-only, and equality and hashing see both.
    """

    __slots__ = ("_m", "_ratio")

    m = property(attrgetter("_m"))
    ratio = property(attrgetter("_ratio"))

    def __init__(self, m: int, c):
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"m must be an integer >= 1, got {m!r}")
        num, den = ratio(c)
        if num <= 0:
            raise ValueError(f"c must be a positive rational, got {num}/{den}")
        self._m = m
        self._ratio = num, den

    @property
    def c(self):
        from fractions import Fraction

        return Fraction(*self._ratio)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._m == other._m and self._ratio == other._ratio

    def __hash__(self) -> int:
        return hash((self._m, self._ratio))

    def __repr__(self) -> str:
        return "Params(m=%r, c=Fraction(%d, %d))" % (self._m, *self._ratio)


# components: the m polynomials t_{j,r}
TypeIVectorRecord = namedtuple("TypeIVectorRecord", "r components")

TypeIRecord = namedtuple("TypeIRecord", "r d k tau ell t h")
TypeIRecord.__doc__ = "An index's decomposition, its t_r (recurrence) and h_r (closed form)."


def decompose_index(r: int, m: int) -> tuple[int, int, int, int]:
    """Split ``r = d*m + k`` and ``d - k = (m+1)*tau + ell``.

    ``k`` lies in ``0..m-1`` and ``ell`` in ``0..m``; since ``d - k`` is at
    least ``-(m-1)``, floor division gives ``tau >= -1`` automatically.
    ``tau == -1`` marks exactly the indices whose scalar term vanishes.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if m < 1:
        raise ValueError("m must be >= 1")
    d, k = divmod(r, m)
    tau, ell = divmod(d - k, m + 1)
    return d, k, tau, ell


def _powers(base: int, top: int) -> list:
    """``base**0 .. base**top``."""
    return list(accumulate(repeat(base, top), mul, initial=1))


def _type1_polys(p: Params, j: int, R: int) -> list[Poly]:
    """Terms ``t_0 .. t_R`` of vector component j, whose first m terms are
    ``t_{j,r} = [r == j]``.

    ``t_r`` follows ``c*t_r = x*t_{r-m} - t_{r-m-1}``; with ``c = P/Q`` the
    integer numerators ``u_r = P**(r//m) * t_r`` satisfy
    ``u_r = Q*(x*u_{r-m} - P**[m | r] * u_{r-m-1})``.
    """
    m, (P, Q) = p.m, p.ratio
    us = [[1] if r == j else [] for r in range(min(m, R + 1))]
    for r in range(m, R + 1):
        u = [0] + [Q * v for v in us[r - m]] if us[r - m] else []
        if r > m:
            b = -Q * P if r % m == 0 else -Q
            prev = us[r - m - 1]
            u += [0] * (len(prev) - len(u))
            for i, v in enumerate(prev):
                u[i] += b * v
        while u and not u[-1]:
            u.pop()
        us.append(u)
    return [Poly.scaled(u, P ** (r // m)) for r, u in enumerate(us)]


def gen_type1_scalar(p: Params, R: int) -> list[Poly]:
    """Scalar terms ``t_0 .. t_R`` (terms with negative index are zero)."""
    if R < 0:
        raise ValueError("R must be >= 0")
    return _type1_polys(p, 0, R)


def gen_type1_vectors(p: Params, R: int) -> list[TypeIVectorRecord]:
    """Vector terms ``t_0 .. t_R``; the first m records are unit coordinate vectors."""
    if R < 0:
        raise ValueError("R must be >= 0")
    comps = [_type1_polys(p, j, R) for j in range(p.m)]
    return [TypeIVectorRecord(r, tuple(c[r] for c in comps)) for r in range(R + 1)]


def gen_type2(p: Params, N: int) -> list[Poly]:
    """Companion terms ``T_0 .. T_N``; ``T_n = x**n`` for ``n < m``.

    With ``c = P/Q`` and ``D = n//(m+1)``, the closed form gives the
    ``x**(n-(m+1)*j)`` numerator of ``T_n`` over ``Q**D`` as
    ``(-1)**j * C(n-m*j, j) * P**j * Q**(D-j)``.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    m, (P, Q) = p.m, p.ratio
    Ps, Qs = _powers(P, N // (m + 1)), _powers(Q, N // (m + 1))
    terms = []
    for n in range(N + 1):
        D = n // (m + 1)
        nums = [0] * (n + 1)
        for j in range(D + 1):
            v = comb(n - m * j, j) * Ps[j] * Qs[D - j]
            nums[n - (m + 1) * j] = -v if j % 2 else v
        terms.append(Poly.scaled(nums, Qs[D]))
    return terms


def gen_type1_records(p: Params, R: int) -> list[TypeIRecord]:
    """Scalar terms t_r from the recurrence, bundled with their index
    decomposition and h_r from the closed form.

    With ``c = P/Q`` and ``s = d - tau``, the ``y**q`` numerator of h_r over
    ``P**d`` is ``(-1)**(m*(tau-q)) * C(s+q, ell+(m+1)*q) * Q**(s+q) *
    P**(tau-q)``; h_r is zero when ``tau == -1``.
    """
    m, (P, Q) = p.m, p.ratio
    Ps, Qs = _powers(P, R // m), _powers(Q, R // m)
    records = []
    for r, t in enumerate(gen_type1_scalar(p, R)):
        d, k, tau, ell = decompose_index(r, m)
        s = d - tau
        nums = []
        for q in range(tau + 1):
            v = comb(s + q, ell + (m + 1) * q) * Qs[s + q] * Ps[tau - q]
            nums.append(-v if m % 2 and (tau - q) % 2 else v)
        records.append(TypeIRecord(r, d, k, tau, ell, t, Poly.scaled(nums, Ps[d])))
    return records


def closed_form_strs(p: Params, R: int) -> tuple[list, list]:
    """The ``"p/q"`` strings, in lowest terms, of t_0 .. t_R and T_0 .. T_R.

    With ``c = P/Q``, the z^i entry of t_r is ``(-1)**(n-i) * C(n, i) * Q**n /
    P**n`` with ``n = (r+i)/(m+1)``, and the ``x**(n-(m+1)*j)`` entry of T_n
    is ``(-1)**j * C(n-m*j, j) * P**j / Q**j``.  As ``gcd(P, Q) == 1``, one
    gcd of the binomial with the power in the denominator reduces each; every
    other entry is ``"0/1"``.
    """
    m, (P, Q) = p.m, p.ratio
    Ps, Qs = _powers(P, R // m), _powers(Q, R // m)
    ts = []
    for r in range(R + 1):
        d, k, tau, ell = decompose_index(r, m)
        row = ["0/1"] * (ell + (m + 1) * tau + 1)
        for q in range(tau + 1):
            n, i = d - tau + q, ell + (m + 1) * q
            C = comb(n, i)
            g = gcd(C, Ps[n])
            row[i] = f"{'-' if (n - i) % 2 else ''}{C // g * Qs[n]}/{Ps[n] // g}"
        ts.append(row)
    Ts = []
    for n in range(R + 1):
        row = ["0/1"] * (n + 1)
        for j in range(n // (m + 1) + 1):
            C = comb(n - m * j, j)
            g = gcd(C, Qs[j])
            row[n - (m + 1) * j] = f"{'-' if j % 2 else ''}{C // g * Ps[j]}/{Qs[j] // g}"
        Ts.append(row)
    return ts, Ts


class ShiftReport(namedtuple("ShiftReport", "checked mismatches")):
    """``mismatches``: the (j, r) pairs where t_{j,r} != t_{j+1,r+1}."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return not self.mismatches


def verify_shift(records: list[TypeIVectorRecord]) -> ShiftReport:
    """Check ``t_{j,r} == t_{j+1,r+1}`` exactly across consecutive records."""
    checked = 0
    mismatches = []
    for rec, nxt in zip(records, records[1:]):
        m = len(rec.components)
        for j in range(m - 1):
            checked += 1
            if rec.components[j] != nxt.components[j + 1]:
                mismatches.append((j, rec.r))
    return ShiftReport(checked, tuple(mismatches))


# signs: the sign variants s with c*h_r == z^[ell==0]*h_{r-m} + s*h_{r-m-1};
# degenerate: h_{r-m-1} == 0, so both variants coincide
SignCheckRow = namedtuple("SignCheckRow", "r k ell signs degenerate")

HRecurrenceReport = namedtuple(
    "HRecurrenceReport", "rows empirical_table ell_parity_rule_holds k_parity_rule_holds"
)
HRecurrenceReport.__doc__ = """Empirical sign study for the induced recurrence of the h-polynomials.

For each ``r >= m`` the report records which ``s in {+1, -1}`` satisfies
``c*h_r(y) = y**[ell==0] * h_{r-m}(y) + s * h_{r-m-1}(y)`` exactly, and
aggregates the pattern over the four (k==0, ell==0) classes.  Two fixed
candidate rules are scored against the data: ``ell_parity_rule`` uses
``s = (-1)**(m-1)`` when ell==0 and ``+1`` otherwise; ``k_parity_rule``
uses ``s = (-1)**m`` when k==0 and ``+1`` otherwise, which the closed form
proves for every r (README "The k-parity sign").  ``empirical_table`` maps
each class label to the sorted tuple of its admissible signs.
"""


def _class_label(k: int, ell: int) -> str:
    return f"k{'0' if k == 0 else '+'}_ell{'0' if ell == 0 else '+'}"


def verify_h_recurrence(hs: list[Poly], p: Params) -> HRecurrenceReport:
    """Determine the empirically valid sign variant(s) for each index.

    ``hs`` must be the h-polynomials for ``r = 0..R``, as the records carry
    them.  An index that admits neither sign gets a row with ``signs == ()``:
    its class's table entry is then empty, and neither rule holds.
    """
    m, (P, Q) = p.m, p.ratio
    rows = []
    table: dict[str, set] = {}
    ell_rule_ok = True
    k_rule_ok = True
    for r in range(m, len(hs)):
        _, k, _, ell = decompose_index(r, m)
        h_r, h_rm = hs[r], hs[r - m]
        h_rm1 = hs[r - m - 1] if r > m else Poly.zero()
        # c*h_r - y**[ell==0]*h_{r-m} and h_{r-m-1} as integer rows over one
        # denominator: a sign fits where the two rows agree up to it
        den = lcm(Q * h_r.den, h_rm.den, h_rm1.den)
        f, g, g1 = P * (den // (Q * h_r.den)), den // h_rm.den, den // h_rm1.den
        lifted = [0] * (ell == 0) + [g * n for n in h_rm.nums]
        diff = [f * a - b for a, b in zip_longest(h_r.nums, lifted, fillvalue=0)]
        while diff and not diff[-1]:
            diff.pop()
        low = [g1 * n for n in h_rm1.nums]
        signs = tuple(s for s in (1, -1) if diff == [s * n for n in low])
        degenerate = h_rm1.is_zero
        rows.append(SignCheckRow(r, k, ell, signs, degenerate))
        label = _class_label(k, ell)
        if not degenerate:
            prev = table.get(label)
            table[label] = set(signs) if prev is None else prev & set(signs)
        s_ell = (-1) ** (m - 1) if ell == 0 else 1
        s_k = (-1) ** m if k == 0 else 1
        ell_rule_ok = ell_rule_ok and s_ell in signs
        k_rule_ok = k_rule_ok and s_k in signs
    empirical = {label: tuple(sorted(sgns)) for label, sgns in sorted(table.items())}
    return HRecurrenceReport(tuple(rows), empirical, ell_rule_ok, k_rule_ok)
