"""Lubin-Tate formal groups over p-adic integer rings.

Given f with f = pi*T mod degree 2 and f = T^q mod pi, there is a unique
formal group law F_f with f(F(x,y)) = F(f(x), f(y)), and for each a in the
base ring a unique endomorphism [a] = a*T + ... commuting with f.  All of
it comes from one series, the logarithm of F_f, with log(f(T)) =
pi*log(T).  Its solve divides by pi - pi^k at degree k, a unit obstruction
only in the residue ring, so it runs in the fraction field, once per datum
and truncation degree.  There F = exp(log x + log y), exp the reversion of
log, and [a] = exp(a * log), each of whose coefficients is a polynomial in
a read off the scalar table of (log, exp), memoized on log
(fgl.laws.scalar_table).  LubinTateDatum.field keeps the three series.
build_action certifies the table for the datum's own law, which
proves F([x], [y]) = [x + y] there and every [a] integral on the ring,
and refuses any other law.  Laws and endomorphisms are reduced back with
an integrality check; a law is verified in the ring, and so is every
endomorphism build_endomorphism returns.  That keeps every identity exact
at the ring's stored precision instead of losing digits to in-ring
division.  The base ring owns that field, the lifts into it and the
reduction back (fgl.rings.PadicRing); this module never looks at how a
ring stores its elements.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from typing import NamedTuple

from .laws import (
    FglEndomorphism,
    FormalGroupLaw,
    LawError,
    MonoidAction,
    _integrated_log,
    _law_from_log,
    evaluate_scalar_table,
    intertwining_violation,
    scalar_table,
)
from .monoids import BOTTOM, PadicTruncationMonoid, RingSubsetMonoid
from .rings import PadicIntegers, PadicRing, RingElement, RingError
from .series import TruncatedSeries, first_difference


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
        self.pi = ctx.uniformizer().payload
        q = ctx.p
        if f.trunc_degree < q:
            raise LubinTateError(f"f must carry terms at least to degree q = {q}")
        if (0,) in f.terms:  # terms hold no zeros
            raise LubinTateError("f(0) must be 0")
        if f.terms.get((1,)) != self.pi:
            raise LubinTateError("linear coefficient of f must be the uniformizer")
        for (d,), c in f.terms.items():
            if d >= 2 and d != q and ctx.valuation(c) < 1:
                raise LubinTateError(f"degree-{d} coefficient must vanish mod the "
                                     "maximal ideal")
        aq = f.terms.get((q,))
        if aq is None or ctx.valuation(aq) != 0:
            raise LubinTateError(f"degree-{q} coefficient must be a unit")
        self.f = f
        self._fields: dict = {}  # N -> LubinTateField

    def f_at(self, N: int) -> TruncatedSeries:
        """f truncated, or padded with zero terms, to degree N."""
        return TruncatedSeries(self.ctx, self.f.variables, N, self.f.terms)

    def field(self, N: int) -> "LubinTateField":
        """Everything over the fraction field at degree N, solved once."""
        fld = self._fields.get(N)
        if fld is None:
            fld = self._fields[N] = _solve_field(self, N)
        return fld

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
# the solve from the logarithm, and the endomorphisms


class LubinTateField(NamedTuple):
    """A datum's law over the fraction field at one degree, its logarithm,
    and the reversion exp of that log; fgl.laws.scalar_table(log, exp)
    memoizes the scalar table on log."""
    law: TruncatedSeries
    log: TruncatedSeries
    exp: TruncatedSeries


def _solve_field(d: LubinTateDatum, N: int) -> LubinTateField:
    """log, then F = exp(log x + log y), over the fraction field.  log(f(T))
    = pi * log(T) and log = T mod degree 2 (Lubin & Tate, Ann. Math. 1965;
    Hazewinkel's functional-equation lemma), and f^k = pi^k * T^k + ..., so
    l_k * (pi - pi^k) = sum_{j<k} l_j * [T^k] f^j: a triangular solve off
    f's power table.  The reversion checks itself; F is checked to
    intertwine f and to be linearized by log.  The scalar table M is
    neither built nor checked here: build_action certifies it (_certify)
    where it relies on it."""
    if N < 1:
        raise LubinTateError("need truncation degree at least 1")
    field = d.ctx.fraction_field()
    f = lift_series(d.f_at(N))
    pi, powers, mul = field.el(f.terms[(1,)]), f.powers(N), field.mul
    log = {(1,): field.int_payload(1)}
    for k in range(2, N + 1):
        acc = reduce(field.add, (mul(l, c) for (j,), l in log.items()
                                 if (c := powers[j].terms.get((k,))) is not None),
                     field.normalize(0))
        if not field.is_zero(acc):
            log[(k,)] = mul(acc, (pi - pi**k).inverse().payload)
    log = f._fresh(log)
    exp = log.compositional_inverse()
    F = _law_from_log(log, exp)
    x_plus_y = TruncatedSeries(field, F.variables, N, {(1, 0): 1, (0, 1): 1})
    if (intertwining_violation(f, F, F) is not None
            or intertwining_violation(log, F, x_plus_y) is not None):
        raise LubinTateError("defining identity did not close over the fraction "
                             "field; invalid datum?")
    return LubinTateField(F, log, exp)


def _certify(ctx: PadicRing, fld: LubinTateField) -> None:
    """Raise unless [a] = exp(a*log) for every a in the fraction field and
    its coefficients are integer-valued on ctx.

    Let [a] = a*T + sum_k P_k(a) * T^k, P_k(a) = sum_j M[k][j] * a^j, M the
    scalar table.  _certify_rows proves every P_k integer-valued on ctx and
    returns its values at the nodes a_0 = 0, a_1, ..., a_N, which are
    distinct.  The T^m coefficient of [a] is a polynomial in a of degree at
    most m, so the T^k coefficient of log([a]) - a*log is one of degree at
    most k <= N; it vanishes at a = 0, where [a] = 0.  It is checked to
    vanish at a_1..a_N as well, N + 1 points in all, so log([a]) = a*log
    for every a in the field, and [a] = exp(a*log) since log is
    invertible.  Apply log to both sides and use log(F(x, y)) = log x +
    log y: F([x], [y]) = [x + y] and [a](F(x, y)) = F([a]x, [a]y) hold
    identically in x, y and a, mod degree N + 1.  This costs N
    one-variable compositions."""
    log = fld.log
    field, N = log.ctx, log.trunc_degree
    nodes, values = _certify_rows(ctx, scalar_table(log, fld.exp), N)
    for a, value in zip(nodes[1:], values[1:]):
        scaled = TruncatedSeries(field, log.variables, N, {(1,): a, **value})
        if first_difference(field, log.composed_terms({log.variables[0]: scaled}),
                            log.scale(a).terms):
            raise LubinTateError(f"log([{field.fmt(a)}]) differs from {field.fmt(a)}*log "
                                 "over the fraction field; scalar table not exp(a*log)?")


def _certify_rows(ctx: PadicRing, table: dict, N: int) -> tuple:
    """Raise unless every row P_k of a scalar table is integer-valued on
    ctx, with the coordinates that fgl.recovery.build_addition_table's
    congruence step reads; return the nodes a_0..a_N and the table's
    values at each, {(k,): P_k(a_m)}, for _certify.

    The nodes a_i = sum_t i_t * pi^t, over the base-q digits i_t of i, are
    a q-ordering of ctx, so the Newton polynomials F_i(x) = prod_{j<i} (x -
    a_j) / D_i, D_i = prod_{j<i} (a_i - a_j), are integer-valued on ctx and
    a basis of the integer-valued polynomials (Bhargava, J. reine angew.
    Math. 490, 1997).  With w[m][i] = prod_{j<i} (a_m - a_j), D_i =
    w[i][i] and F_i(a_m) = w[m][i] / D_i, which is 1 at m = i and 0 for m <
    i, so the coordinates of P_k are c_i = P_k(a_i) - sum_{j<i} c_j *
    F_j(a_i), i <= k <= N, and each must be integral.  v(a_i - a_j) is the
    least t at which the digits of i and j differ, so v(D_i) = sum_{t>=1}
    floor(i/q^t) = v_p(i!) <= v_p(k!) for every i <= k: the congruence
    step loses no more than the precision a class loses at degree k
    (PadicTruncationMonoid.class_precisions).  A row with a non-integral
    coefficient passes when its values are integral, as (a^q - a)/pi
    does."""
    field, q = ctx.fraction_field(), ctx.p  # the residue field is F_p
    add, mul, neg, one = field.add, field.mul, field.neg, field.int_payload(1)
    pi = ctx.lift(ctx.uniformizer().payload)
    nodes = [field.int_payload(0)]  # a_i = (i mod q) + pi * a_(i // q)
    for i in range(1, N + 1):
        nodes.append(add(field.int_payload(i % q), mul(pi, nodes[i // q])))
    newton, inverses = [], []  # newton[m][j] = -F_j(a_m), j < m; 1 / D_i
    for m, x in enumerate(nodes[:max(table, default=-1) + 1]):  # the rows' nodes
        w = list(accumulate((add(x, neg(a)) for a in nodes[:m]), mul, initial=one))
        newton.append([neg(mul(wj, inverse)) for wj, inverse in zip(w, inverses)])
        inverses.append(field.invert(w[m]))
    values = [evaluate_scalar_table(field, table, x) for x in nodes]
    for k in table:
        coordinates = []
        for m in range(k + 1):
            c = reduce(add, map(mul, coordinates, newton[m]), values[m][(k,)])
            if ctx.field_valuation(c) < 0:
                raise LubinTateError(f"coordinate {m} of the degree-{k} row of the scalar "
                                     "table is not integral; [a] not integral on the ring?")
            coordinates.append(c)
    return nodes, values


def build_fgl(d: LubinTateDatum, N: int) -> FormalGroupLaw:
    """The unique F = x + y mod degree 2 with f(F(x,y)) = F(f(x), f(y)): the
    datum's exact field law reduced to its ring, with the axioms and the
    intertwining with f re-checked there."""
    law = FormalGroupLaw.from_series(reduce_series(d.field(N).law, d.ctx))
    if intertwining_violation(d.f_at(N), law.F, law.F) is not None:
        raise LubinTateError("reduced law no longer intertwines f")
    return law


def _reduced_series(model: TruncatedSeries, fld: LubinTateField, table: dict,
                    a_payload) -> TruncatedSeries:
    """The series of [a] = exp(a * log) at the lift of a, reduced to the
    ring of model, a series in T at the degree of fld, the datum's field;
    table is its scalar table, both read once by the caller.  The payload a
    and every from_field value are normal forms, so it is built through
    model._fresh, keeping only the nonzero ones."""
    ctx = model.ctx
    terms = {} if ctx.is_zero(a_payload) else {(1,): a_payload}
    if terms and table:
        values = evaluate_scalar_table(fld.log.ctx, table, ctx.lift(a_payload))
        terms.update((e, c) for e, v in values.items()
                     if not ctx.is_zero(c := ctx.from_field(v)))
    return model._fresh(terms)


def build_endomorphism(d: LubinTateDatum, law: FormalGroupLaw, a) -> FglEndomorphism:
    """The unique [a] = a*T mod degree 2 commuting with f: exp(a * log) over
    the fraction field, as every endomorphism of F there is exp(c * log)
    with c its linear term (Lubin & Tate, Ann. Math. 1965).  Its T^k
    coefficients past T are the datum's scalar table at the lift of a, each
    reduced through from_field, which refuses a non-integral one; [a] is
    then verified in the ring to be an endomorphism of law."""
    if isinstance(a, RingElement):
        if a.ctx.key() != d.ctx.key():
            raise LubinTateError("scalar from the wrong ring")
        a = a.payload
    else:
        a = d.ctx.normalize(a)
    fld, N = d.field(law.trunc_degree), law.trunc_degree
    endo = FglEndomorphism(law, _reduced_series(TruncatedSeries.zero(d.ctx, ("T",), N),
                                                fld, scalar_table(fld.log, fld.exp), a))
    endo.verify()
    return endo


class _OnDemand(Mapping):
    """A LubinTateAction's assignment: [a] for each payload a of the monoid
    but BOTTOM, built at monoid.canonical_lift(a) when asked and never kept.
    Read-only, as a Mapping has no setter; it holds no reference to its
    action, so an action is freed as soon as it is dropped."""

    def __init__(self, law: FormalGroupLaw, fld: LubinTateField, table: dict, monoid):
        self._law, self._fld, self._table = law, fld, table
        self._payloads, self._lift = monoid.payloads(), monoid.canonical_lift
        self._model = TruncatedSeries.zero(law.ctx, ("T",), law.trunc_degree)

    def __getitem__(self, payload) -> FglEndomorphism:
        if payload not in self:
            raise KeyError(payload)
        series = _reduced_series(self._model, self._fld, self._table, self._lift(payload))
        return FglEndomorphism._certified(self._law, series)  # _certify proved it

    def __contains__(self, payload):
        return payload != BOTTOM and payload in self._payloads

    def __iter__(self):
        return (p for p in self._payloads if p != BOTTOM)

    def __len__(self):
        return len(self._payloads) - (BOTTOM in self._payloads)


class LubinTateAction(MonoidAction):
    """What build_action builds, and nothing else: no caller hands it an
    assignment, and an action is fixed once built (MonoidAction), so what
    was certified is what acts.  The type is the certificate: its datum's
    scalar table passed _certify, so on a truncation carrier the lemma of
    fgl.recovery.build_addition_table proves every check and every sum, at
    every N.

    It keeps the datum's field and scalar table at law's degree.  Each read
    of [a] builds a new series from them at the lift of a (canonical_lift:
    u * pi^v for a class (v, u), a itself on a ring subset), which dies with
    its reader, power memos and all; assignment wraps it as an endomorphism
    with law_violation None, and series_at hands it over bare."""

    def __init__(self, datum: LubinTateDatum, law: FormalGroupLaw, monoid):
        if not isinstance(monoid, (PadicTruncationMonoid, RingSubsetMonoid)):
            raise LubinTateError("monoid must be a truncation monoid or a ring subset")
        ctx = datum.ctx
        if monoid.ctx.key() != ctx.key():
            raise LubinTateError("monoid over a different ring than the datum")
        fld = datum.field(law.trunc_degree)
        if law.F != reduce_series(fld.law, ctx):
            raise LubinTateError("law is not the datum's own; build it with build_fgl")
        _certify(ctx, fld)
        self.monoid, self.law, self.datum = monoid, law, datum
        self.field, self.table = fld, scalar_table(fld.log, fld.exp)
        self.assignment = _OnDemand(law, fld, self.table, monoid)

    def series_at(self, payload, lift) -> TruncatedSeries:
        if payload not in self.assignment:
            raise LawError(f"no endomorphism assigned for {payload}")
        return _reduced_series(self.assignment._model, self.field, self.table, lift)


def build_action(d: LubinTateDatum, law: FormalGroupLaw, monoid) -> LubinTateAction:
    """The action of a monoid of the datum's ring by Lubin-Tate
    endomorphisms of law, which must be the datum's own law reduced to its
    ring (build_fgl).

    The monoid is a RingSubsetMonoid (each listed element acts by itself,
    products outside the list going unchecked) or a PadicTruncationMonoid
    (every class acts through its canonical lift; composition checks then
    hold at class precision, PadicTruncationMonoid.class_precisions).

    The scalar table is certified first (_certify: N one-variable
    compositions over the fraction field, then each row's coordinates in
    the Newton basis of the ring's integer-valued polynomials), and a table
    that fails is refused with LubinTateError.  No [a] is composed into the
    law: over the fraction field [a] = exp(a*log) is an endomorphism of F,
    and from_field is a ring map on integral elements, so the identity
    holds between the reduced series, and no [a] is built here."""
    return LubinTateAction(d, law, monoid)


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
    fld1, fld2 = d1.field(N), d2.field(N)
    for fld in (fld1, fld2):
        FormalGroupLaw.from_series(fld.law)
    h_field = fld2.exp.substitute_single(fld1.log)
    if intertwining_violation(h_field, fld1.law, fld2.law) is not None:
        raise LubinTateError("log-transport did not produce an isomorphism")
    report = series_integrality(d1.ctx, h_field)
    h_ring = None
    if report.all_integral:
        h_ring = reduce_series(h_field, d1.ctx)
        if intertwining_violation(h_ring, F1.F, F2.F) is not None:
            raise LubinTateError("integral h failed the ring-level check")
    return LubinTateComparison(h_field, report, h_ring, report.all_integral)


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
