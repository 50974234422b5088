"""Formal group laws at finite truncation, their endomorphisms, and monoid
actions by endomorphisms.

Everything is checked by direct expansion: a law is a two-variable series
F with F = x + y mod degree 2 satisfying unit, commutativity and
associativity identities mod degree N+1; an endomorphism is a one-variable
series e with e(F(x, y)) = F(e(x), e(y)).  Axiom failures report the first
offending monomial in graded-lex order, which is what you want when a
hand-edited series is off by one coefficient.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from types import MappingProxyType

from .monoids import (BOTTOM, FreeCommutativeMonoid, PadicTruncationMonoid,
                      monoid_from_descriptor)
from .rings import RingContext, RingElement, RingError
from .series import TruncatedSeries, differences, first_difference


class LawError(RingError):
    pass


class NonInvertibleDivision(LawError):
    """Logarithm integration hit a denominator that is not a unit."""

    def __init__(self, denominator: int, degree: int):
        self.denominator = denominator
        self.degree = degree
        super().__init__(f"division by {denominator} at degree {degree} is not defined here")


@dataclass
class AxiomCheck:
    name: str
    ok: bool
    monomial: tuple | None = None
    delta: str | None = None

    def to_json(self):
        out = {"name": self.name, "ok": self.ok}
        if not self.ok:
            out["monomial"] = list(self.monomial)
            out["delta"] = self.delta
        return out


@dataclass
class AxiomReport:
    checks: list

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.checks)

    def first_failure(self) -> AxiomCheck | None:
        for c in self.checks:
            if not c.ok:
                return c
        return None

    def to_json(self):
        return {"all_pass": self.all_pass, "checks": [c.to_json() for c in self.checks]}


class FormalGroupLaw:
    """A truncated formal group law and its axiom report, which only
    from_series requires to pass."""

    def __init__(self, F: TruncatedSeries):
        if len(F.variables) != 2:
            raise LawError("a formal group law is a two-variable series")
        self.F = F
        self.ctx = F.ctx
        self.trunc_degree = F.trunc_degree
        self.x, self.y = F.variables
        self.report = check_axioms_series(F)

    @classmethod
    def from_series(cls, F: TruncatedSeries) -> "FormalGroupLaw":
        law = cls(F)
        if not law.report.all_pass:
            bad = law.report.first_failure()
            raise LawError(
                f"axiom {bad.name!r} fails at monomial {bad.monomial} (delta {bad.delta})"
            )
        return law

    @classmethod
    def additive(cls, ctx: RingContext, N: int) -> "FormalGroupLaw":
        F = TruncatedSeries(ctx, ("x", "y"), N, {(1, 0): 1, (0, 1): 1})
        return cls.from_series(F)

    @classmethod
    def multiplicative(cls, ctx: RingContext, N: int) -> "FormalGroupLaw":
        F = TruncatedSeries(ctx, ("x", "y"), N, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
        return cls.from_series(F)

    def coefficient(self, i: int, j: int) -> RingElement:
        return self.F.coefficient((i, j))

    def plus(self, a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
        """F(a, b) for two series over the same target variables."""
        return self.F.substitute({self.x: a, self.y: b})

    def __str__(self):
        return str(self.F)

    def to_bundle(self) -> dict:
        return {
            "F": self.F.to_json(),
            "N": self.trunc_degree,
            "axioms": self.report.to_json(),
        }

    @classmethod
    def from_bundle(cls, obj: dict) -> "FormalGroupLaw":
        return cls(TruncatedSeries.from_json(obj["F"]))


def _intertwining_sides(h: TruncatedSeries, F: TruncatedSeries,
                        G: TruncatedSeries) -> tuple:
    """The term dicts of h(F(x, y)) and G(h(x), h(y)) in F's variables,
    which agree iff the one-variable series h carries the two-variable
    series F to G.  h(F) reads F's memoized power table, and G(h(x), h(y))
    reads h's own, one product per term at F's degree
    (TruncatedSeries.paired_terms)."""
    return (h.composed_terms({h.variables[0]: F}),
            G.paired_terms(h, F.trunc_degree))


def intertwining_defect(h: TruncatedSeries, F: TruncatedSeries,
                        G: TruncatedSeries) -> TruncatedSeries:
    """h(F(x, y)) - G(h(x), h(y)) as a series in F's variables."""
    return F._fresh(dict(differences(F.ctx, *_intertwining_sides(h, F, G))))


def intertwining_violation(h: TruncatedSeries, F: TruncatedSeries,
                           G: TruncatedSeries) -> tuple | None:
    """The first (exponent, delta) of h(F(x, y)) - G(h(x), h(y)) in
    graded-lex order, or None where h carries F to G; no series is
    built."""
    return first_difference(F.ctx, *_intertwining_sides(h, F, G))


def _associativity_sides(F: TruncatedSeries, commutative: bool) -> tuple:
    """The term dicts of F(x, F(y, z)) and F(F(x, y), z) in the variables
    (x, y, z), which agree iff the two-variable series F is associative mod
    degree N+1.  The left side is composed, F(y, z) being F moved onto two
    of the three variables, so it reads F's own memoized power table.
    The caller says whether F is commutative: whether F's terms equal those
    of F(y, x), the comparison the commutativity check makes.  Where they
    do, the right side is F(z, F(x, y)): the left side relabelled, its term
    at x^a y^b z^c moved to x^b y^c z^a.  That is exact on every ring, as
    c_ij = c_ji term for term and every ring's product commutes on normal
    forms.  Any other F has its right side composed as the left is, with
    F(x, y) moved onto the first two."""
    ctx, N = F.ctx, F.trunc_degree
    xname, yname = F.variables
    top_x, top_y = F.top_exponents(N)
    X, Z = (TruncatedSeries.variable(ctx, ("x", "y", "z"), N, v) for v in ("x", "z"))
    left = F.composed_terms({xname: X, yname: F.moved(X, (1, 2), top_y)})
    if commutative:
        return left, {(b, c, a): v for (a, b, c), v in left.items()}
    return left, F.composed_terms({xname: F.moved(X, (0, 1), top_x), yname: Z})


def associativity_defect(F: TruncatedSeries) -> TruncatedSeries:
    """F(x, F(y, z)) - F(F(x, y), z) as a series in (x, y, z)."""
    xyz = TruncatedSeries(F.ctx, ("x", "y", "z"), F.trunc_degree)
    sides = _associativity_sides(F, F.terms == F.moved(F, (1, 0)).terms)
    return xyz._fresh(dict(differences(F.ctx, *sides)))


def check_axioms_series(F: TruncatedSeries) -> AxiomReport:
    """Unit, low-degree shape, commutativity, associativity; first failing
    monomial per axiom in graded-lex order.  Each check compares two term
    dicts: F's low terms with x + y, F(T, 0) and F(0, T) composed with T,
    F's terms with F(y, x)'s, and the two sides of _associativity_sides,
    whose right side is read off its left where that comparison finds F
    commutative, and composed otherwise."""
    ctx, N = F.ctx, F.trunc_degree
    xname, yname = F.variables
    # shape: F = x + y mod degree 2
    low = min(N, 1)
    x_plus_y = TruncatedSeries(ctx, F.variables, low, {(1, 0): 1, (0, 1): 1})
    T = TruncatedSeries.variable(ctx, ("T",), N, "T")
    zero1 = TruncatedSeries.zero(ctx, ("T",), N)
    swapped = F.moved(F, (1, 0)).terms
    failures = {
        "linear_shape": first_difference(ctx, F.truncate(low).terms, x_plus_y.terms),
        "unit_right": first_difference(ctx, F.composed_terms({xname: T, yname: zero1}),
                                       T.terms),
        "unit_left": first_difference(ctx, F.composed_terms({xname: zero1, yname: T}),
                                      T.terms),
        "commutativity": first_difference(ctx, F.terms, swapped),
        "associativity": first_difference(ctx, *_associativity_sides(F, F.terms == swapped)),
    }
    return AxiomReport([AxiomCheck(name, bad is None, *(bad or ()))
                        for name, bad in failures.items()])


def formal_inverse(law: FormalGroupLaw) -> TruncatedSeries:
    """The series i with F(T, i(T)) = 0 mod degree N+1, solved degree by
    degree: the degree-n residual is linear in the new coefficient."""
    ctx = law.ctx
    N = law.trunc_degree
    T = TruncatedSeries.variable(ctx, ("T",), N, "T")
    iota = -T
    for n in range(2, N + 1):
        residual = law.plus(T, iota)
        c = residual.terms.get((n,))
        if c is None:
            continue
        iota = iota - TruncatedSeries(ctx, ("T",), N, {(n,): c})
    final = law.plus(T, iota)
    if not final.is_zero():
        raise LawError("formal inverse did not close; ring too lossy?")
    return iota


def _integrated_log(F: TruncatedSeries) -> TruncatedSeries:
    """l(T) with l'(T) = 1 / (dF/dy)(T, 0), integrated termwise over F's
    ring.  Raises NonInvertibleDivision at the first nonzero coefficient
    whose 1/n does not exist there."""
    ctx, N = F.ctx, F.trunc_degree
    x, y = F.variables
    T = TruncatedSeries.variable(ctx, ("T",), N, "T")
    u = F.derivative(y).substitute({x: T, y: TruncatedSeries.zero(ctx, ("T",), N)})
    # the derivative's top slice uses unknown degree-(N+1) data; drop it
    u = u.truncate(max(0, N - 1))
    if u.constant_term() != ctx.one():
        raise LawError("dF/dy(0,0) must be 1 for a formal group law")
    w = u.multiplicative_inverse()
    ell = {}
    for n in range(1, N + 1):
        c = w.terms.get((n - 1,))
        if c is None:
            continue
        try:
            inv_n = ctx.invert(ctx.normalize(n))
        except RingError:
            raise NonInvertibleDivision(n, n) from None
        ell[(n,)] = ctx.mul(c, inv_n)
    return T._fresh(ell)


def logarithm(law: FormalGroupLaw) -> TruncatedSeries:
    """The strict isomorphism to the additive law, l(T) = T + ...

    l'(T) = 1 / (dF/dy)(T, 0), integrated termwise.  Over a ring where some
    1/n does not exist the integration fails eagerly, naming the blocking
    denominator, unless that coefficient happens to be zero.
    """
    ctx, N = law.ctx, law.trunc_degree
    if N < 1:
        raise LawError("need truncation degree at least 1")
    ell = _integrated_log(law.F)
    # the defining property doubles as a self-check
    x_plus_y = TruncatedSeries(ctx, ("x", "y"), N, {(1, 0): 1, (0, 1): 1})
    if intertwining_violation(ell, law.F, x_plus_y) is not None:
        raise LawError("logarithm does not linearize the law; F is not a group law?")
    return ell


def _strict(s: TruncatedSeries) -> bool:
    """Whether the one-variable series s is T mod degree 2."""
    return (0,) not in s.terms and s.coefficient((1,)) == s.ctx.one()


def _law_from_log(log: TruncatedSeries, exp: TruncatedSeries) -> TruncatedSeries:
    """exp(log(x) + log(y)), exp the reversion of the strict log, with log
    moved onto each of the law's variables."""
    xy = TruncatedSeries(log.ctx, ("x", "y"), log.trunc_degree)
    return exp.substitute_single(log.moved(xy, (0,)) + log.moved(xy, (1,)))


def from_logarithm(f: TruncatedSeries) -> tuple:
    """F(x, y) = g(f(x) + f(y)) for g the reversion of f; f = T mod deg 2.

    Returns (law, g); g is the transporter used for scalar endomorphisms.
    """
    if len(f.variables) != 1:
        raise LawError("a logarithm is a one-variable series")
    if not _strict(f):
        raise LawError("need f = T mod degree 2")
    g = f.compositional_inverse()
    return FormalGroupLaw.from_series(_law_from_log(f, g)), g


def scalar_table(log: TruncatedSeries, exp: TruncatedSeries) -> dict:
    """The rows M[k] = ((j, e_j * [T^k] log^j), ...) for 2 <= k <= N, e_j
    the coefficients of exp, kept where log^j reaches T^k and as nonempty
    rows: the T^k coefficient of exp(a * log) = sum_j e_j * a^j * log^j is
    the polynomial sum_j M[k][j] * a^j.  For strict log and exp, [T] is a.
    A series never changes, so the table is memoized on log for the exp it
    was last built with, and shared with every caller: treat it as
    read-only."""
    memo = log._scalar_table
    if memo is not None and memo[0] is exp:
        return memo[1]
    ctx, N = log.ctx, log.trunc_degree
    powers = log.powers(N)
    table = {}
    for k in range(2, N + 1):
        row = tuple((j, ctx.mul(e, c)) for (j,), e in sorted(exp.terms.items())
                    if j <= N and (c := powers[j].terms.get((k,))) is not None)
        if row:
            table[k] = row
    log._scalar_table = (exp, table)
    return table


def evaluate_scalar_table(ctx: RingContext, table: dict, a) -> dict:
    """{(k,): sum_j M[k][j] * a^j} over ctx for each row k of scalar_table's
    table: the terms of exp(a * log) past the linear one."""
    mul, add = ctx.mul, ctx.add
    powers = [None, a]  # powers[j] = a^j; a row k reads j <= k
    for _ in range(max(table, default=1) - 1):
        powers.append(mul(powers[-1], a))
    return {(k,): reduce(add, (mul(m, powers[j]) for j, m in row))
            for k, row in table.items()}


class _Fixed:
    """Each attribute is set once, when the object is built, and never again."""

    def __setattr__(self, name, value):
        if name in self.__dict__:
            raise AttributeError(f"{name} is fixed when it is built")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{name} is fixed when it is built")


class FglEndomorphism(_Fixed):
    """A one-variable series commuting with the group law; fixed once
    built, as law_violation and the power tables memoized on the series
    read it."""

    def __init__(self, law: FormalGroupLaw, series: TruncatedSeries):
        if len(series.variables) != 1:
            raise LawError("endomorphisms are one-variable series")
        if (0,) in series.terms:  # terms hold no zeros
            raise LawError("endomorphisms fix 0")
        if series.ctx.key() != law.ctx.key():
            raise LawError("endomorphism over a different ring than its law")
        if series.trunc_degree != law.trunc_degree:
            raise LawError(f"endomorphism truncated at degree {series.trunc_degree}, "
                           f"its law at degree {law.trunc_degree}")
        self.law = law
        self.series = series

    @classmethod
    def _certified(cls, law: FormalGroupLaw, series: TruncatedSeries) -> "FglEndomorphism":
        """An endomorphism that a certificate proves, of a series its caller
        built to law's shape (fgl.lubin_tate.LubinTateAction): __init__'s
        checks are not run, and law_violation is None."""
        endo = object.__new__(cls)
        endo.__dict__.update(law=law, series=series, law_violation=None)
        return endo

    def linear_coefficient(self) -> RingElement:
        return self.series.coefficient((1,))

    @cached_property
    def law_violation(self) -> tuple | None:
        """The first (exponent, delta) of e(F(x,y)) - F(e(x), e(y)), or None
        where this is an endomorphism.  Checked once per instance: verify
        and verify_action both read it.  fgl.lubin_tate.build_action
        records None where its datum's certificate proves the law."""
        return intertwining_violation(self.series, self.law.F, self.law.F)

    def verify(self) -> None:
        bad = self.law_violation
        if bad is not None:
            exp, c = bad
            raise LawError(f"endomorphism law fails at {exp} (delta {c})")

    def __eq__(self, other):
        return (
            isinstance(other, FglEndomorphism)
            and self.law.F == other.law.F
            and self.series == other.series
        )

    def __str__(self):
        return str(self.series)


def endomorphism_from_logarithm(law: FormalGroupLaw, log_series: TruncatedSeries,
                                exp_series: TruncatedSeries, scalar) -> FglEndomorphism:
    """[m](T) = exp(m * log(T)); multiplication by m through the logarithm,
    read off scalar_table(log, exp) at m, whose T coefficient is m.  log and
    exp must be T mod degree 2."""
    if not (_strict(log_series) and _strict(exp_series)):
        raise LawError("log and exp must be T mod degree 2")
    ctx = log_series.ctx
    m = scalar.payload if isinstance(scalar, RingElement) else ctx.normalize(scalar)
    terms = {(1,): m, **evaluate_scalar_table(
        ctx, scalar_table(log_series, exp_series), m)}
    endo = FglEndomorphism(law, TruncatedSeries(ctx, log_series.variables,
                                                log_series.trunc_degree, terms))
    endo.verify()
    return endo


# ---------------------------------------------------------------------------
# monoid actions


@dataclass
class ActionViolation:
    kind: str
    where: str
    monomial: tuple
    delta: str

    def to_json(self):
        return {
            "kind": self.kind,
            "where": self.where,
            "monomial": list(self.monomial),
            "delta": self.delta,
        }


@dataclass
class ActionReport:
    violations: list = field(default_factory=list)
    checked_pairs: int = 0
    skipped_pairs: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self):
        return {
            "ok": self.ok,
            "checked_pairs": self.checked_pairs,
            "skipped_pairs": self.skipped_pairs,
            "violations": [v.to_json() for v in self.violations],
        }


class MonoidAction(_Fixed):
    """A commutative monoid acting on a law by endomorphisms.

    assignment maps monoid element payloads to FglEndomorphism.  For free
    monoids only the generators are assigned; a composite element gets the
    composition along FreeCommutativeMonoid.word.  For finite monoids every
    non-absorbing element must be assigned.  Fixed once built, with
    assignment a read-only view, so a different action is a new one.
    """

    def __init__(self, monoid, law: FormalGroupLaw, assignment: dict):
        self.monoid = monoid
        self.law = law
        self.assignment = MappingProxyType(dict(assignment))

    @property
    def tolerance(self) -> str:
        """"truncation" on a truncation monoid, which acts through lifts of
        its classes, so verify_action compares a composition only at the
        class precision of its product; "exact" on any other monoid."""
        return "truncation" if isinstance(self.monoid, PadicTruncationMonoid) else "exact"

    def endo_for(self, payload) -> FglEndomorphism:
        """The assigned endomorphism, or on a free monoid the composition
        along payload's word, formed on each call and kept by no one."""
        endo = self.assignment.get(payload)
        if endo is not None:
            return endo
        if not isinstance(self.monoid, FreeCommutativeMonoid):
            raise LawError(f"no endomorphism assigned for {payload}")
        law = self.law
        series = TruncatedSeries.variable(law.ctx, ("T",), law.trunc_degree, "T")
        for gen in self.monoid.word(payload):
            series = self.assignment[gen].series.substitute_single(series)
        return FglEndomorphism(law, series)

    def verify(self) -> ActionReport:
        return verify_action(self)

    def to_bundle(self) -> dict:
        return {
            "monoid": self.monoid.descriptor(),
            "law": self.law.to_bundle(),
            "tolerance": self.tolerance,
            "endomorphisms": [
                {
                    "element": self.monoid.label(p),
                    "payload": p,
                    "series": e.series.to_json(),
                }
                for p, e in sorted(self.assignment.items(), key=lambda t: str(t[0]))
            ],
        }


def verify_action(action: MonoidAction) -> ActionReport:
    """Identity, endomorphism law, composition, commutation.

    Finite monoids get every pair checked; free monoids get all generator
    pairs.  Pairs whose product is absorbing (no assignment) are skipped and
    counted.  On a truncation monoid (action.tolerance) a composition is
    compared at the class precision of the product, and exactly where the
    product is BOTTOM, which has no lift; the endomorphism law itself stays
    exact.  There every class but BOTTOM must be assigned, and the linear
    coefficient of [a] must lie in class a, so an assignment moved along a
    monoid automorphism is refused.  `check` runs this on a loaded bundle;
    an action that fgl.lubin_tate.build_action built needs none of it, as
    the lemma of fgl.recovery.build_addition_table proves its checks.
    """
    report, law, monoid = ActionReport(), action.law, action.monoid
    ctx, N, label = law.ctx, law.trunc_degree, monoid.label
    ident = TruncatedSeries.variable(ctx, ("T",), N, "T")
    bad = first_difference(ctx, action.endo_for(monoid.identity_payload()).series.terms,
                           ident.terms)
    if bad:
        report.violations.append(ActionViolation("identity", "1", *bad))

    truncation = action.tolerance == "truncation"
    if truncation:
        for p in monoid.payloads():
            if p != BOTTOM and p not in action.assignment:
                report.violations.append(
                    ActionViolation("unassigned", label(p), (), "no endomorphism")
                )

    free = isinstance(monoid, FreeCommutativeMonoid)
    if free:
        singles = [monoid.generator(g) for g in monoid.generators]
        pairs = [(a, b) for i, a in enumerate(singles) for b in singles[i + 1:]]
    else:
        singles = [p for p in monoid.payloads() if p in action.assignment]
        pairs = [(a, b) for a in singles for b in singles]

    series = {}  # each [a] read once, so its power table serves every pair
    for a in singles:
        endo = action.endo_for(a)
        series[a] = endo.series
        bad = endo.law_violation
        if bad is not None:
            report.violations.append(ActionViolation("endomorphism_law", label(a), *bad))
        if truncation and a != BOTTOM:
            c = endo.series.terms.get((1,))
            cls = None if c is None else monoid.class_of(c)
            if cls != a:
                report.violations.append(ActionViolation(
                    "linear_class", label(a), (1,), "0" if c is None else label(cls)
                ))

    for a, b in pairs:
        ab = monoid.mul(a, b)
        if not free and ab not in series:
            report.skipped_pairs += 1
            continue
        ea, eb = series[a], series[b]
        composed = ea.composed_terms({ea.variables[0]: eb})
        if free:
            other = eb.composed_terms({eb.variables[0]: ea})
            bad = first_difference(ctx, composed, other)
            if bad:
                report.violations.append(
                    ActionViolation("commutation", f"{label(a)},{label(b)}", *bad)
                )
            report.checked_pairs += 1
            continue
        precisions = None
        if truncation and ab != BOTTOM:
            precisions = monoid.class_precisions(ab[0], N)
        bad = first_difference(ctx, composed, series[ab].terms, precisions)
        if bad:
            report.violations.append(
                ActionViolation(
                    "composition", f"{label(a)}*{label(b)}={label(ab)}", *bad
                )
            )
        report.checked_pairs += 1
    return report


def _tuplify(obj):
    if isinstance(obj, list):
        return tuple(_tuplify(v) for v in obj)
    return obj


def action_from_bundle(obj: dict) -> MonoidAction:
    """Rebuild an action from its bundle, verifying nothing: the law's
    report and verify_action are the caller's to read.  A tolerance key
    that disagrees with the monoid's is refused; the monoid decides."""
    monoid = monoid_from_descriptor(obj["monoid"])
    law = FormalGroupLaw.from_bundle(obj["law"])
    assignment = {}
    for entry in obj["endomorphisms"]:
        payload = _tuplify(entry["payload"])
        series = TruncatedSeries.from_json(entry["series"], law.ctx)
        assignment[payload] = FglEndomorphism(law, series)
    action = MonoidAction(monoid, law, assignment)
    stored = obj.get("tolerance", action.tolerance)
    if stored != action.tolerance:
        raise LawError(f"tolerance {stored!r} disagrees with the bundle's monoid: a "
                       "truncation monoid takes 'truncation', any other 'exact'")
    return action
