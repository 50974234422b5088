"""Lubin-Tate formal groups over p-adic integer rings.

Given f with f = pi*T mod degree 2 and f = T^q mod pi, there is a unique
formal group law F_f with f(F(x,y)) = F(f(x), f(y)), and for each a in the
base ring a unique endomorphism [a] = a*T + ... commuting with f.  Both are
solved degree by degree; each correction divides by pi^d - pi, which is a
unit obstruction only in the residue ring, so the whole solve runs in the
fraction field and the result is reduced back with an integrality check.
That keeps every identity exact at the ring's stored precision instead of
losing digits to in-ring division.  The base ring owns that field, the lifts
into it and the reduction back (fgl.rings.PadicRing); this module never looks
at how a ring stores its elements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .laws import (
    FglEndomorphism,
    FormalGroupLaw,
    MonoidAction,
    _integrated_log,
    intertwining_defect,
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
        if not f.constant_term().is_zero():
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
# the inductive solves


def _field_setup(d: LubinTateDatum, N: int):
    field = d.ctx.fraction_field()
    f_field = lift_series(d.f.truncate(min(N, d.f.trunc_degree)))
    if f_field.trunc_degree < N:
        f_field = TruncatedSeries(field, f_field.variables, N, dict(f_field.terms))
    pi = d.ctx.lift(d.pi)
    return field, f_field, pi


def _divisor_inverse(field, pi, deg: int):
    # pi^deg - pi, the diagonal factor of the degree-deg correction
    pd = field.int_payload(1)
    for _ in range(deg):
        pd = field.mul(pd, pi)
    return field.invert(field.add(pd, field.neg(pi)))


def _solve_defect(current, f_field, two_sided, deg):
    """Defect at truncation deg: f(S) - S(f, f) for the 2-variable case,
    e(f) - f(e) for the 1-variable case."""
    fd = f_field.truncate(deg)
    S = current.truncate(deg)
    if two_sided:
        return intertwining_defect(fd, S, S)
    return S.substitute_single(fd) - fd.substitute_single(S)


def _inductive_solve(start, f_field, field, pi, N, two_sided, sign,
                     correction_order=None):
    """Shared driver.  sign is +1 when the degree-d defect changes by
    (pi - pi^d) * delta, -1 for (pi^d - pi) * delta."""
    current = start
    for deg in range(2, N + 1):
        inv = _divisor_inverse(field, pi, deg)
        if correction_order is None:
            defect = _solve_defect(current, f_field, two_sided, deg)
            delta_terms = {}
            for exp, c in defect.terms.items():
                if sum(exp) == deg:
                    delta_terms[exp] = field.mul(c, inv) if sign > 0 else field.neg(
                        field.mul(c, inv)
                    )
            if delta_terms:
                current = current + TruncatedSeries(
                    field, current.variables, N, delta_terms
                )
        else:
            # one monomial at a time, recomputing the defect in between;
            # exercises independence of the corrections within a degree
            width = len(current.variables)
            exps = [
                e
                for e in _degree_exponents(deg, width)
            ]
            exps.sort(reverse=(correction_order == "desc"))
            for exp in exps:
                defect = _solve_defect(current, f_field, two_sided, deg)
                c = defect.terms.get(exp)
                if c is None:
                    continue
                delta = field.mul(c, inv) if sign > 0 else field.neg(
                    field.mul(c, inv)
                )
                current = current + TruncatedSeries(
                    field, current.variables, N, {exp: delta}
                )
    final = _solve_defect(current, f_field, two_sided, N)
    if not final.is_zero():
        raise LubinTateError(
            "defining identity did not close over the fraction field; "
            "invalid datum?"
        )
    return current


def _degree_exponents(deg: int, width: int):
    if width == 1:
        yield (deg,)
    else:
        for i in range(deg + 1):
            yield (i, deg - i)


def _build_field_law(d: LubinTateDatum, N: int, correction_order=None):
    """The exact solve, before reduction; the field-level F satisfies the
    axioms on the nose."""
    if N < 1:
        raise LubinTateError("need truncation degree at least 1")
    field, f_field, pi = _field_setup(d, N)
    start = TruncatedSeries(
        field,
        ("x", "y"),
        N,
        {(1, 0): field.int_payload(1), (0, 1): field.int_payload(1)},
    )
    return _inductive_solve(
        start, f_field, field, pi, N, two_sided=True, sign=+1,
        correction_order=correction_order,
    )


def build_fgl(d: LubinTateDatum, N: int, correction_order=None) -> FormalGroupLaw:
    """The unique F = x + y mod degree 2 with f(F(x,y)) = F(f(x), f(y)),
    solved exactly and reduced to the datum's ring."""
    return _reduce_law(d, _build_field_law(d, N, correction_order))


def _reduce_law(d: LubinTateDatum, F_field: TruncatedSeries) -> FormalGroupLaw:
    """The field-level law reduced to d's ring, with the axioms and the
    intertwining with f re-checked there."""
    law = FormalGroupLaw.from_series(reduce_series(F_field, d.ctx))
    _check_intertwines(d, law.F, d.f)
    return law


def _check_intertwines(d: LubinTateDatum, F: TruncatedSeries, f: TruncatedSeries):
    """f(F(x,y)) = F(f(x), f(y)) at the ring's own precision."""
    N = F.trunc_degree
    fN = f.truncate(min(N, f.trunc_degree))
    if fN.trunc_degree < N:
        fN = TruncatedSeries(f.ctx, fN.variables, N, dict(fN.terms))
    if not intertwining_defect(fN, F, F).is_zero():
        raise LubinTateError("reduced law no longer intertwines f")


def build_endomorphism(
    d: LubinTateDatum, law: FormalGroupLaw, a
) -> FglEndomorphism:
    """The unique [a] = a*T mod degree 2 with [a](f) = f([a]); verified to be
    an endomorphism of F."""
    N = law.trunc_degree
    if isinstance(a, RingElement):
        if a.ctx.key() != d.ctx.key():
            raise LubinTateError("scalar from the wrong ring")
        a_payload = a.payload
    else:
        a_payload = d.ctx.normalize(a)
    field, f_field, pi = _field_setup(d, N)
    a_field = d.ctx.lift(a_payload)
    start = TruncatedSeries(field, ("T",), N, {(1,): a_field})
    e_field = _inductive_solve(
        start, f_field, field, pi, N, two_sided=False, sign=-1
    )
    e_ring = reduce_series(e_field, d.ctx)
    endo = FglEndomorphism(law, e_ring)
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
    # the exact field-level laws, not lifts of residues: only those satisfy
    # the axioms on the nose, which the log transport needs
    F1_field = _build_field_law(d1, N)
    F2_field = _build_field_law(d2, N)
    F1 = _reduce_law(d1, F1_field)
    F2 = _reduce_law(d2, F2_field)
    h_field = isomorphism_via_logs(
        FormalGroupLaw.from_series(F1_field), FormalGroupLaw.from_series(F2_field)
    )
    report = series_integrality(d1.ctx, h_field)
    h_ring = None
    verified = False
    if report.all_integral:
        h_ring = reduce_series(h_field, d1.ctx)
        verified = intertwining_defect(h_ring, F1.F, F2.F).is_zero()
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
