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
``r = d*m + k`` and ``d - k = (m+1)*tau + ell``; ``extract_h`` recovers the
reduced polynomial ``h_r`` exactly from that support structure, and the
``verify_*`` helpers check the shift identity and the induced sign-variant
recurrence for the ``h_r`` without assuming either.

Generation runs in integers.  With ``c = P/Q`` the denominators have a
fixed structure: ``P**(r//m) * t_r`` and ``P**(r//m) * t_{j,r}`` have integer
coefficients, and so does ``Q**(n//(m+1)) * T_n``.  One generic three-term
recurrence steps these integer numerators (Bareiss's fraction-free idea) and
each term is returned as a ``Poly`` over its known denominator;
``verify_denominators`` checks the structure on the reduced terms.  Nothing
is cached: every call generates afresh, and the returned records are
immutable and safe to share across threads.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter

from .errors import NoVariantMatches
from .exactpoly import Poly
from .rationals import ratio


class FactorizationViolation(Exception):
    """The coefficient support of a scalar term contradicts its star factorization."""


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
TypeIRecord.__doc__ = "One scalar index with its decomposition and extracted reduced polynomial."


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


def _recurrence(first: list, R: int, i: int, j: int, a, b) -> list:
    """Integer coefficient lists ``u_0 .. u_R`` of a three-term recurrence.

    ``u_r`` is ``first[r]`` for ``r < len(first)`` and otherwise
    ``a(r) * x * u_{r-i} + b(r) * u_{r-j}`` with integer weights, terms of
    negative index being zero.
    """
    seq = [list(u) for u in first[: R + 1]]
    for r in range(len(seq), R + 1):
        xs = seq[r - i]
        ys = seq[r - j] if r >= j else ()
        ar = a(r)
        out = [0] + [ar * v for v in xs] if xs else []
        if ys:
            br = b(r)
            if len(out) < len(ys):
                out += [0] * (len(ys) - len(out))
            for k, v in enumerate(ys):
                out[k] += br * v
        while out and not out[-1]:
            out.pop()
        seq.append(out)
    return seq


def _type1_polys(p: Params, j: int, R: int) -> list[Poly]:
    """Terms ``t_0 .. t_R`` of vector component j, whose first m terms are
    ``t_{j,r} = [r == j]``.

    ``t_r`` follows ``c*t_r = x*t_{r-m} - t_{r-m-1}``; with ``c = P/Q`` the
    integer numerators ``u_r = P**(r//m) * t_r`` satisfy
    ``u_r = Q*(x*u_{r-m} - P**[m | r] * u_{r-m-1})``.
    """
    m, (P, Q) = p.m, p.ratio
    first = [[1] if r == j else [] for r in range(m)]
    us = _recurrence(
        first, R, m, m + 1, lambda r: Q, lambda r: -Q * P if r % m == 0 else -Q
    )
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

    With ``c = P/Q`` the integer numerators ``U_n = Q**(n//(m+1)) * T_n``
    satisfy ``U_n = Q**[(m+1) | n] * x*U_{n-1} - P*U_{n-m-1}``.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    m, (P, Q) = p.m, p.ratio
    us = _recurrence(
        [[1]], N, 1, m + 1, lambda n: Q if n % (m + 1) == 0 else 1, lambda n: -P
    )
    return [Poly.scaled(u, Q ** (n // (m + 1))) for n, u in enumerate(us)]


def extract_h(t: Poly, r: int, m: int) -> Poly:
    """Recover ``h`` with ``t(z) == (-1)**k * z**ell * h(z**(m+1))`` exactly.

    Raises FactorizationViolation when the coefficient support of ``t`` is not
    confined to the residue class ``ell`` modulo ``m+1``, or when the degree
    disagrees with the index decomposition; either signals a generator bug or
    a genuine counterexample to the factorization.
    """
    d, k, tau, ell = decompose_index(r, m)
    if t.is_zero:
        if tau != -1:
            raise FactorizationViolation(
                f"t_{r} vanishes but tau={tau} predicts degree {tau} for h (m={m})"
            )
        return Poly.zero()
    if tau < 0:
        raise FactorizationViolation(
            f"t_{r} is nonzero but tau=-1 predicts the zero polynomial (m={m})"
        )
    sign = -1 if k % 2 else 1
    nums = [0] * (tau + 1)
    for i, c in enumerate(t.nums):
        if not c:
            continue
        if i % (m + 1) != ell:
            raise FactorizationViolation(
                f"t_{r} has coefficient support at power {i}, outside residue "
                f"class {ell} mod {m + 1}"
            )
        j = (i - ell) // (m + 1)
        if j > tau:
            raise FactorizationViolation(
                f"t_{r} has degree {t.degree} exceeding ell + (m+1)*tau = "
                f"{ell + (m + 1) * tau}"
            )
        nums[j] = sign * c
    h = Poly.scaled(nums, t.den)
    if h.degree != tau:
        raise FactorizationViolation(
            f"extracted h for r={r} has degree {h.degree}, expected tau={tau}"
        )
    return h


def gen_type1_records(p: Params, R: int) -> list[TypeIRecord]:
    """Scalar terms bundled with their index decomposition and extracted h."""
    ts = gen_type1_scalar(p, R)
    records = []
    for r, t in enumerate(ts):
        d, k, tau, ell = decompose_index(r, p.m)
        records.append(TypeIRecord(r, d, k, tau, ell, t, extract_h(t, r, p.m)))
    return records


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


class DenominatorReport(namedtuple("DenominatorReport", "checked witness")):
    """``checked`` polynomials, and the ``witness`` text of the first whose
    denominator breaks the structure, or None."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return self.witness is None


def verify_denominators(
    p: Params, scalars: list[Poly], vectors: list[TypeIVectorRecord], type2: list[Poly]
) -> DenominatorReport:
    """Check that the reduced denominators of ``t_r`` and of every ``t_{j,r}``
    divide ``P**(r//m)`` and those of ``T_n`` divide ``Q**(n//(m+1))``.

    A ``Poly``'s denominator is the lcm of its reduced coefficient
    denominators, so one divisibility test per polynomial decides it.
    """
    m, (P, Q) = p.m, p.ratio
    polys = [(f"t_{r}", t, P, r // m) for r, t in enumerate(scalars)]
    polys += [
        (f"t_{j},{rec.r}", comp, P, rec.r // m)
        for rec in vectors
        for j, comp in enumerate(rec.components)
    ]
    polys += [(f"T_{n}", poly, Q, n // (m + 1)) for n, poly in enumerate(type2)]
    for name, poly, base, power in polys:
        if base**power % poly.den:
            return DenominatorReport(
                len(polys),
                f"denominator {poly.den} of {name} does not divide "
                f"{base}^{power} = {base**power}",
            )
    return DenominatorReport(len(polys), None)


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
uses ``s = (-1)**m`` when k==0 and ``+1`` otherwise.  ``empirical_table``
maps each class label to the sorted tuple of its admissible signs.
"""


def _class_label(k: int, ell: int) -> str:
    return f"k{'0' if k == 0 else '+'}_ell{'0' if ell == 0 else '+'}"


def verify_h_recurrence(hs: list[Poly], p: Params) -> HRecurrenceReport:
    """Determine the empirically valid sign variant(s) for each index.

    ``hs`` must be the extracted h-polynomials for ``r = 0..R``.  Raises
    NoVariantMatches if some index admits neither sign.
    """
    m, (P, Q) = p.m, p.ratio
    rows = []
    table: dict[str, set] = {}
    ell_rule_ok = True
    k_rule_ok = True
    for r in range(m, len(hs)):
        _, k, _, ell = decompose_index(r, m)
        h_r = hs[r]
        h_rm = hs[r - m]
        h_rm1 = hs[r - m - 1] if r - m - 1 >= 0 else Poly.zero()
        lhs = Poly.scaled([P * n for n in h_r.nums], Q * h_r.den)
        base = h_rm.shift(1) if ell == 0 else h_rm
        signs = tuple(s for s in (1, -1) if lhs == base + s * h_rm1)
        if not signs:
            raise NoVariantMatches(f"no sign variant matches at r={r} (m={m})")
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
