"""Lubin-Tate formal groups over p-adic integer rings.

Given f with f = pi*T mod degree 2 and f = T^q mod pi, there is a unique
formal group law F_f with f(F(x,y)) = F(f(x), f(y)), and for each a in the
base ring a unique endomorphism [a] = a*T + ... commuting with f.  F is
solved degree by degree, once per datum and truncation degree; each
correction divides by pi^d - pi, which is a unit obstruction only in the
residue ring, so the solve runs in the fraction field.  There every [a] is
exp_F(a * log_F(T)), from the one logarithm of that exact law: each of its
coefficients is a polynomial in a, read off one scalar table per datum and
degree, and reduced back with an integrality check.  That keeps every
identity exact at the ring's stored precision instead of losing digits to
in-ring division.  The base ring owns that field, the lifts into it and the
reduction back (fgl.rings.PadicRing); this module never looks at how a ring
stores its elements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .laws import (
    FglEndomorphism,
    FormalGroupLaw,
    MonoidAction,
    _checked_log,
    _integrated_log,
    intertwining_defect,
    intertwining_violation,
    isomorphism_via_logs,
)
from .monoids import BOTTOM, PadicTruncationMonoid, RingSubsetMonoid
from .rings import PadicIntegers, PadicRing, RingElement, RingError
from .series import TruncatedSeries


class LubinTateError(RingError):
    pass


def lift_series(s: TruncatedSeries) -> TruncatedSeries:
    """Coefficient-wise lift into the fraction field of the series' ring."""
    return s.map_coefficients(s.ctx.lift, s.ctx.fraction_field())


def reduce_series(s: TruncatedSeries, ctx: PadicRing) -> TruncatedSeries:
    """Field series back to ctx; raises NonIntegralElement when not integral."""
    return s.map_coefficients(ctx.from_field, ctx)


# ---------------------------------------------------------------------------
# data


class LubinTateDatum:
    """A series f = pi*T mod degree 2, f = T^q mod pi over Z_p or a totally
    ramified extension; q is the residue field size (= p here)."""

    def __init__(self, ctx, f: TruncatedSeries):
        if not isinstance(ctx, PadicRing):
            raise LubinTateError("base ring must be p-adic integers or an extension")
        if f.ctx.key() != ctx.key():
            raise LubinTateError("series ring does not match the datum ring")
        if len(f.variables) != 1:
            raise LubinTateError("f must be a one-variable series")
        self.ctx = ctx
        self.p = ctx.p
        self.q = ctx.p
        self.pi = ctx.uniformizer().payload
        if f.trunc_degree < self.q:
            raise LubinTateError(
                f"f must carry terms at least to degree q = {self.q}"
            )
        if (0,) in f.terms:  # terms hold no zeros
            raise LubinTateError("f(0) must be 0")
        if f.terms.get((1,)) != self.pi:
            raise LubinTateError("linear coefficient of f must be the uniformizer")
        for (d,), c in f.terms.items():
            if d < 2 or d == self.q:
                continue
            if ctx.valuation(c) < 1:
                raise LubinTateError(
                    f"degree-{d} coefficient must vanish mod the maximal ideal"
                )
        aq = f.terms.get((self.q,))
        if aq is None or ctx.valuation(aq) != 0:
            raise LubinTateError(f"degree-{self.q} coefficient must be a unit")
        self.f = f
        self._field_laws: dict = {}  # N -> exact law over the fraction field
        self._field_logs: dict = {}  # N -> (log_F, exp_F) of that law
        self._scalar_tables: dict = {}  # N -> rows of [a]'s coefficients

    def f_at(self, N: int) -> TruncatedSeries:
        """f truncated, or padded with zero terms, to degree N."""
        return TruncatedSeries(self.ctx, self.f.variables, N, self.f.terms)

    def field_law(self, N: int) -> TruncatedSeries:
        """The exact law over the fraction field at degree N, solved once."""
        F = self._field_laws.get(N)
        if F is None:
            F = self._field_laws[N] = _solve_field_law(self, N)
        return F

    def field_log(self, N: int) -> tuple:
        """(log_F, exp_F) of field_law(N), built on first request; the log
        is checked to linearize the law."""
        pair = self._field_logs.get(N)
        if pair is None:
            log = _checked_log(self.field_law(N))
            pair = self._field_logs[N] = (log, log.compositional_inverse())
        return pair

    def scalar_table(self, N: int) -> dict:
        """_scalar_table of field_log(N), built on first request."""
        table = self._scalar_tables.get(N)
        if table is None:
            table = self._scalar_tables[N] = _scalar_table(*self.field_log(N))
        return table

    def to_json(self) -> dict:
        return {"ring": self.ctx.descriptor(), "f": self.f.to_json()}


def standard_datum(ctx, degree: int | None = None) -> LubinTateDatum:
    """f = pi*T + T^q."""
    q = ctx.p
    N = max(degree or q, q)
    f = TruncatedSeries(ctx, ("T",), N, {(1,): ctx.uniformizer(), (q,): 1})
    return LubinTateDatum(ctx, f)


def multiplicative_datum(ctx, degree: int | None = None) -> LubinTateDatum:
    """f = (1+T)^p - 1 over Z_p; its formal group is x + y + xy on the nose
    and [a] has the p-adic binomial coefficients C(a, k)."""
    if not isinstance(ctx, PadicIntegers):
        raise LubinTateError(
            "the multiplicative series needs pi = p, so a Z_p base"
        )
    p = ctx.p
    N = max(degree or p, p)
    f = TruncatedSeries(
        ctx, ("T",), N, {(k,): math.comb(p, k) for k in range(1, p + 1)}
    )
    return LubinTateDatum(ctx, f)


# ---------------------------------------------------------------------------
# the law solve and the endomorphisms from its logarithm


def _solve_field_law(d: LubinTateDatum, N: int) -> TruncatedSeries:
    """The unique F = x + y mod degree 2 with f(F(x,y)) = F(f(x), f(y)) over
    the fraction field, degree by degree: a degree-deg correction delta
    moves the degree-deg defect f(F) - F(f, f) by (pi - pi^deg) * delta, so
    delta is the defect over pi^deg - pi."""
    if N < 1:
        raise LubinTateError("need truncation degree at least 1")
    field = d.ctx.fraction_field()
    f = lift_series(d.f_at(N))
    pi = field.el(d.ctx.lift(d.pi))
    one = field.int_payload(1)
    F = TruncatedSeries(field, ("x", "y"), N, {(1, 0): one, (0, 1): one})
    for deg in range(2, N + 1):
        inv = (pi**deg - pi).inverse().payload
        S = F.truncate(deg)
        defect = intertwining_defect(f.truncate(deg), S, S)
        delta = {exp: field.mul(c, inv)
                 for exp, c in defect.terms.items() if sum(exp) == deg}
        if delta:
            F = F + TruncatedSeries(field, F.variables, N, delta)
    if intertwining_violation(f, F, F) is not None:
        raise LubinTateError(
            "defining identity did not close over the fraction field; "
            "invalid datum?"
        )
    return F


def _scalar_table(log: TruncatedSeries, exp: TruncatedSeries) -> dict:
    """The rows M[k] = [(j, e_j * [T^k] log^j)] for 2 <= k <= N, e_j the
    coefficients of exp, kept where log^j reaches T^k and as nonempty rows:
    the T^k coefficient of exp(a * log) is sum_j M[k][j] * a^j."""
    field, N = log.ctx, log.trunc_degree
    powers = log.powers(N)
    table = {}
    for k in range(2, N + 1):
        row = [(j, field.mul(e, c)) for (j,), e in sorted(exp.terms.items())
               if (c := powers[j].terms.get((k,))) is not None]
        if row:
            table[k] = row
    return table


def build_fgl(d: LubinTateDatum, N: int) -> FormalGroupLaw:
    """The unique F = x + y mod degree 2 with f(F(x,y)) = F(f(x), f(y)): the
    datum's exact field law reduced to its ring, with the axioms and the
    intertwining with f re-checked there."""
    law = FormalGroupLaw.from_series(reduce_series(d.field_law(N), d.ctx))
    if intertwining_violation(d.f_at(N), law.F, law.F) is not None:
        raise LubinTateError("reduced law no longer intertwines f")
    return law


def build_endomorphism(
    d: LubinTateDatum, law: FormalGroupLaw, a
) -> FglEndomorphism:
    """The unique [a] = a*T mod degree 2 commuting with f, as exp_F(a *
    log_F(T)) over the fraction field: every endomorphism of F there is
    exp(c * log) with c its linear term, and f = [pi] is one (Lubin & Tate,
    Ann. Math. 1965).  Reduced to d's ring and verified there to be an
    endomorphism of law.

    exp(a * log) = sum_j e_j * a^j * log^j, so its T^k coefficient is a
    polynomial in a whose coefficients are the datum's scalar_table row
    M[k]; only those rows are evaluated, at the lift of a, and each value is
    reduced through from_field, which refuses a non-integral one.  The T
    coefficient is a itself, as log and exp are both T mod degree 2."""
    ctx = d.ctx
    if isinstance(a, RingElement):
        if a.ctx.key() != ctx.key():
            raise LubinTateError("scalar from the wrong ring")
        a_payload = a.payload
    else:
        a_payload = ctx.normalize(a)
    N = law.trunc_degree
    log, _ = d.field_log(N)
    rows = d.scalar_table(N)
    terms = {}
    if not ctx.is_zero(a_payload):
        terms[(1,)] = a_payload
        if rows:
            field = log.ctx
            mul, add = field.mul, field.add
            lifted = [None, ctx.lift(a_payload)]  # lifted[j] = a^j
            for _ in range(max(rows) - 1):
                lifted.append(mul(lifted[-1], lifted[1]))
            for k, row in rows.items():
                terms[(k,)] = ctx.from_field(
                    reduce(add, (mul(m, lifted[j]) for j, m in row)))
    endo = FglEndomorphism(law, TruncatedSeries(ctx, log.variables, N, terms))
    endo.verify()
    return endo


def build_action(d: LubinTateDatum, law: FormalGroupLaw, elements=None,
                 monoid=None) -> MonoidAction:
    """Monoid action by Lubin-Tate endomorphisms.

    Either a list of ring elements (acting through a multiplicative window,
    products outside the list going unchecked) or a PadicTruncationMonoid
    (every class acts through its canonical lift; composition checks then
    hold at class precision, PadicTruncationMonoid.class_precisions)."""
    if (elements is None) == (monoid is None):
        raise LubinTateError("pass exactly one of elements or monoid")
    if elements is not None:
        window = RingSubsetMonoid(d.ctx, [
            el.payload if isinstance(el, RingElement) else d.ctx.normalize(el)
            for el in elements
        ])
        assignment = {
            p: build_endomorphism(d, law, p) for p in window.payloads()
        }
        return MonoidAction(window, law, assignment)
    if not isinstance(monoid, PadicTruncationMonoid):
        raise LubinTateError("monoid must be a truncation monoid")
    if monoid.ctx.key() != d.ctx.key():
        raise LubinTateError("monoid over a different ring than the datum")
    assignment = {}
    for payload in monoid.payloads():
        if payload == BOTTOM:
            continue
        assignment[payload] = build_endomorphism(d, law, monoid.canonical_lift(payload))
    return MonoidAction(monoid, law, assignment, tolerance="truncation")


# ---------------------------------------------------------------------------
# comparison of two data over one ring


@dataclass
class IntegralityEntry:
    degree: int
    valuation: object
    integral: bool

    def to_json(self):
        v = self.valuation
        return {
            "degree": self.degree,
            "valuation": "inf" if v == math.inf else int(v),
            "integral": self.integral,
        }


@dataclass
class IntegralityReport:
    entries: list

    @property
    def all_integral(self) -> bool:
        return all(en.integral for en in self.entries)

    def first_blocking(self):
        for en in self.entries:
            if not en.integral:
                return en
        return None

    def to_json(self):
        out = {
            "all_integral": self.all_integral,
            "entries": [en.to_json() for en in self.entries],
        }
        bad = self.first_blocking()
        if bad is not None:
            out["first_blocking"] = bad.to_json()
        return out


def series_integrality(ctx, field_series: TruncatedSeries) -> IntegralityReport:
    entries = []
    for exp, c in field_series.sorted_terms():
        v = ctx.field_valuation(c)
        entries.append(IntegralityEntry(sum(exp), v, v >= 0))
    return IntegralityReport(entries)


@dataclass
class LubinTateComparison:
    h_field: TruncatedSeries
    integrality: IntegralityReport
    h_ring: TruncatedSeries | None
    verified_in_ring: bool

    def to_json(self):
        out = {
            "integrality": self.integrality.to_json(),
            "verified_in_ring": self.verified_in_ring,
            "h": self.h_ring.to_json()
            if self.h_ring is not None
            else {"field_form": str(self.h_field)},
        }
        return out


def compare_lubin_tate(d1: LubinTateDatum, d2: LubinTateDatum,
                       N: int) -> LubinTateComparison:
    """h = exp_2(log_1(T)) intertwining F_1 and F_2, computed over the
    fraction field; integrality of h is checked per coefficient and, when it
    holds, the intertwining is re-verified in the ring."""
    if d1.ctx.key() != d2.ctx.key():
        raise LubinTateError("data live over different rings")
    F1 = build_fgl(d1, N)
    F2 = build_fgl(d2, N)
    # the exact field-level laws, not lifts of residues: only those satisfy
    # the axioms on the nose, which the log transport needs
    h_field = isomorphism_via_logs(
        FormalGroupLaw.from_series(d1.field_law(N)),
        FormalGroupLaw.from_series(d2.field_law(N)),
    )
    report = series_integrality(d1.ctx, h_field)
    h_ring = None
    verified = False
    if report.all_integral:
        h_ring = reduce_series(h_field, d1.ctx)
        verified = intertwining_violation(h_ring, F1.F, F2.F) is None
        if not verified:
            raise LubinTateError("integral h failed the ring-level check")
    return LubinTateComparison(h_field, report, h_ring, verified)


def integrality_scan(law: FormalGroupLaw) -> tuple:
    """Candidate logarithm of a law over a residue ring, computed in the
    fraction field, with a per-coefficient integrality report.

    The lift of a residue law obeys the axioms only mod m^k, so the log is
    computed directly from l'(T) = 1/(dF/dy)(T,0) without the exact
    self-check; a coefficient of negative valuation certifies that no
    degree-N coordinate change over the ring makes the law additive."""
    ctx = law.ctx
    if not isinstance(ctx, PadicRing):
        raise LubinTateError(f"integrality needs a p-adic base ring, not {ctx!r}")
    log_field = _integrated_log(lift_series(law.F))
    entries = []
    for n in range(1, law.trunc_degree + 1):
        c = log_field.terms.get((n,))
        v = math.inf if c is None else ctx.field_valuation(c)
        entries.append(IntegralityEntry(n, v, v >= 0))
    return log_field, IntegralityReport(entries)
