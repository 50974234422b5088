"""Truncated presentations of the coefficient ring of a universal acted law.

A presentation lives in one flat polynomial ring over the integers: one
algebra generator per listed monoid element (finite carriers) or per free
generator, one variable c_i_j per law coefficient with i, j >= 1 and
i + j <= N, one variable d_m_i per endomorphism coefficient with 2 <= i <= N.
Monoid multiplication relations are folded into the ring quotient; the
obstruction relations stay outside it as an explicit labeled generator list,
so they remain visible for export, specialization, and membership checks.

Relation classes, extracted from the tautological series F = x + y + sum
c_i_j x^i y^j and g_m = m x + sum d_m_i x^i:

  sym    c_i_j - c_j_i for i <= j
  P      coefficients of F(x, F(y, z)) - F(F(x, y), z)
  Q      coefficients of g_m(F(x, y)) - F(g_m(x), g_m(y))
  Z      coefficients of g_b(g_a(x)) - g_ab(x), one-variable form
  comm   d_ab_i - d_ba_i for finite carriers

Identically-zero relations keep their labels; the nonzero ones carry the
content.  For free monoids only generators get d-variables and the composite
g_w composes along FreeCommutativeMonoid.word, which turns the
generator-pair Z relations into the commutation constraints.
"""

from __future__ import annotations

import os
import re

from .laws import (FglEndomorphism, FormalGroupLaw, MonoidAction, associativity_defect,
                   intertwining_defect)
from .lubin_tate import integrality_scan
from .monoids import FreeCommutativeMonoid, Monoid, MonoidMorphism
from .rings import (
    IntegerRing,
    PolynomialQuotient,
    RingElement,
    RingError,
    grlex_key,
)
from .series import TruncatedSeries, first_difference


class UniversalError(RingError):
    pass


class BudgetExceeded(UniversalError):
    def __init__(self, message: str, estimate: dict):
        super().__init__(f"{message}; estimate: {estimate}")
        self.estimate = estimate


class IdealNotKilled(UniversalError):
    def __init__(self, label: str, value: str):
        super().__init__(f"relation {label} maps to {value}, not 0")
        self.label = label
        self.value = value


# carrier_elements caps truncation classes.  A table build is one row of |C|
# native sums plus one transport per twist, so linear in |C|; only `check`
# on a truncation bundle still walks |C|^2 pairs.
_CAPS = {"free_generators": 8, "finite_elements": 12, "degree": 6,
         "carrier_elements": 2000}


def budget_caps() -> dict:
    """Guardrail limits, scaled by the FGL_BUDGET environment variable: a
    positive integer, 1 where unset or empty."""
    raw = os.environ.get("FGL_BUDGET", "")
    try:
        mult = int(raw or 1)
    except ValueError:
        mult = 0
    if mult < 1:
        raise UniversalError(f"FGL_BUDGET={raw!r} is not a positive integer")
    return {k: v * mult for k, v in _CAPS.items()}


def _safe_name(label: str, used: set) -> str:
    name = re.sub(r"[^0-9A-Za-z_]", "_", label)
    if not name or name[0].isdigit():
        name = "m" + name
    while name in used:
        name += "_"
    used.add(name)
    return name


def _listed_payloads(monoid: Monoid) -> list:
    if isinstance(monoid, FreeCommutativeMonoid):
        return [monoid.generator(g) for g in monoid.generators]
    ident = monoid.identity_payload()
    return [p for p in monoid.payloads() if p != ident]


def presentation_size(monoid: Monoid, trunc_degree: int) -> dict:
    """Variable and relation counts, computed before any polynomial work."""
    N = trunc_degree
    listed = _listed_payloads(monoid)
    free = isinstance(monoid, FreeCommutativeMonoid)
    c_count = sum(s - 1 for s in range(2, N + 1))
    d_count = len(listed) * max(0, N - 1)
    sym = sum((s - 1 + 1) // 2 for s in range(2, N + 1))
    p_rel = sum(
        1
        for i in range(N + 1)
        for j in range(N + 1)
        for k in range(N + 1)
        if 2 <= i + j + k <= N
    )
    q_mono = sum(1 for i in range(N + 1) for j in range(N + 1) if 1 <= i + j <= N)
    z_pairs = len(listed) ** 2
    comm = 0 if free else len(listed) * (len(listed) - 1) // 2 * max(0, N - 1)
    return {
        "monoid_generators": len(listed),
        "free": free,
        "degree": N,
        "variables": len(listed) + c_count + d_count,
        "c_variables": c_count,
        "d_variables": d_count,
        "relations": sym + p_rel + len(listed) * q_mono + z_pairs * N + comm,
    }


def _check_budget(monoid: Monoid, trunc_degree: int, size: dict):
    caps = budget_caps()
    if trunc_degree < 2:
        raise UniversalError("truncation degree must be at least 2")
    if trunc_degree > caps["degree"]:
        raise BudgetExceeded(
            f"degree {trunc_degree} above cap {caps['degree']}", size
        )
    n = size["monoid_generators"]
    if size["free"]:
        if n > caps["free_generators"]:
            raise BudgetExceeded(
                f"{n} free generators above cap {caps['free_generators']}", size
            )
    elif n + 1 > caps["finite_elements"]:
        raise BudgetExceeded(
            f"{n + 1} monoid elements above cap {caps['finite_elements']}", size
        )


class UniversalPresentation:
    """Polynomial model of the universal coefficient ring at one degree.

    ctx is the polynomial ring (monoid relations already in its quotient);
    ideal, extracted here, is the obstruction list as (label, element)
    pairs in emission order.  F and g hold the tautological series.
    """

    def __init__(self, monoid, trunc_degree, ctx, monoid_vars, c_vars, d_vars, size):
        self.monoid = monoid
        self.trunc_degree = trunc_degree
        self.ctx = ctx
        self.monoid_vars = monoid_vars
        self.c_vars = c_vars
        self.d_vars = d_vars
        self.size = size
        self.F = self._build_f()
        self.g = {p: self._build_g(p) for p in self.listed()}
        self.ideal = _extract_ideal(self)

    def listed(self) -> list:
        return _listed_payloads(self.monoid)

    def _build_f(self) -> TruncatedSeries:
        N = self.trunc_degree
        f = TruncatedSeries.variable(self.ctx, ("x", "y"), N, "x") + \
            TruncatedSeries.variable(self.ctx, ("x", "y"), N, "y")
        terms = dict(f.terms)
        for (i, j), name in self.c_vars.items():
            terms[(i, j)] = self.ctx.var(name).payload
        return TruncatedSeries(self.ctx, ("x", "y"), N, terms)

    def _build_g(self, payload) -> TruncatedSeries:
        N = self.trunc_degree
        terms = {(1,): self.ctx.var(self.monoid_vars[payload]).payload}
        for i in range(2, N + 1):
            terms[(i,)] = self.ctx.var(self.d_vars[(payload, i)]).payload
        return TruncatedSeries(self.ctx, ("x",), N, terms)

    def g_for(self, payload) -> TruncatedSeries:
        """Tautological endomorphism series for any monoid element: listed
        elements directly, identity as x, free words composed along
        FreeCommutativeMonoid.word."""
        if payload == self.monoid.identity_payload():
            return TruncatedSeries.variable(self.ctx, ("x",), self.trunc_degree, "x")
        if payload in self.g:
            return self.g[payload]
        if not isinstance(self.monoid, FreeCommutativeMonoid):
            raise UniversalError(f"element {payload!r} carries no series")
        series = TruncatedSeries.variable(self.ctx, ("x",), self.trunc_degree, "x")
        for gen in self.monoid.word(payload):
            series = self.g[gen].substitute_single(series)
        return series

    def element_value(self, payload) -> RingElement:
        """A monoid element as a ring element: identity to 1, listed elements
        to their generator, free words to the generator monomial."""
        if payload == self.monoid.identity_payload():
            return self.ctx.el(self.ctx.int_payload(1))
        if payload in self.monoid_vars:
            return self.ctx.var(self.monoid_vars[payload])
        if not isinstance(self.monoid, FreeCommutativeMonoid):
            raise UniversalError(f"element {payload!r} has no ring image")
        acc = self.ctx.el(self.ctx.int_payload(1))
        for gen in self.monoid.word(payload):
            acc = acc * self.ctx.var(self.monoid_vars[gen])
        return acc

    def nonzero_ideal(self) -> list:
        return [(label, g) for label, g in self.ideal if g.payload]

    def generator(self, label: str) -> RingElement:
        for lbl, g in self.ideal:
            if lbl == label:
                return g
        raise UniversalError(f"no relation labeled {label!r}")

    def _poly_json(self, element: RingElement) -> list:
        return [[list(exp), c] for exp, c in element.payload]

    def to_json(self) -> dict:
        return {
            "monoid": self.monoid.descriptor(),
            "degree": self.trunc_degree,
            "variables": list(self.ctx.variables),
            "monoid_variables": {
                self.monoid.label(p): v for p, v in self.monoid_vars.items()
            },
            "c_variables": {f"{i},{j}": v for (i, j), v in self.c_vars.items()},
            "d_variables": {
                f"{self.monoid.label(p)},{i}": v
                for (p, i), v in self.d_vars.items()
            },
            "ideal": [
                {"label": label, "poly": self._poly_json(g)}
                for label, g in self.ideal
            ],
            "size": self.size,
        }

    def polynomials_text(self) -> str:
        """Comma-separated nonzero relations, pasteable into external
        computer-algebra systems."""
        return ", ".join(str(g) for _, g in self.nonzero_ideal())


def _monomials(width: int, lo: int, hi: int):
    """Exponent tuples of total degree lo..hi, grlex ascending."""

    def rec(prefix, remaining, budget):
        if remaining == 1:
            yield prefix + (budget,)
            return
        for e in range(budget + 1):
            yield from rec(prefix + (e,), remaining - 1, budget - e)

    for d in range(lo, hi + 1):
        yield from sorted(rec((), width, d), key=grlex_key)


def _extract_ideal(pres: UniversalPresentation) -> list:
    """All relation classes in canonical emission order."""
    N = pres.trunc_degree
    monoid = pres.monoid
    free = isinstance(monoid, FreeCommutativeMonoid)
    listed = pres.listed()
    ideal = []

    for s in range(2, N + 1):
        for i in range(1, s // 2 + 1):
            j = s - i
            poly = pres.F.coefficient((i, j)) - pres.F.coefficient((j, i))
            ideal.append((f"sym_{i}_{j}", poly))

    defect = associativity_defect(pres.F)
    for exp in _monomials(3, 2, N):
        ideal.append((f"P_{exp[0]}_{exp[1]}_{exp[2]}", defect.coefficient(exp)))

    for m in listed:
        name = pres.monoid_vars[m]
        dm = intertwining_defect(pres.g[m], pres.F, pres.F)
        for exp in _monomials(2, 1, N):
            ideal.append((f"Q_{name}_{exp[0]}_{exp[1]}", dm.coefficient(exp)))

    for a in listed:
        ga = pres.g[a]
        aname = pres.monoid_vars[a]
        for b in listed:
            bname = pres.monoid_vars[b]
            ab = monoid.mul(a, b)
            dz = pres.g[b].substitute_single(ga) - pres.g_for(ab)
            for i in range(1, N + 1):
                ideal.append((f"Z_{aname}_{bname}_{i}", dz.coefficient((i,))))

    if not free:
        for ia, a in enumerate(listed):
            for b in listed[ia + 1:]:
                ab = monoid.mul(a, b)
                ba = monoid.mul(b, a)
                for i in range(2, N + 1):
                    dab = pres.g_for(ab).coefficient((i,))
                    dba = pres.g_for(ba).coefficient((i,))
                    ideal.append((
                        f"comm_{pres.monoid_vars[a]}_{pres.monoid_vars[b]}_{i}",
                        dab - dba,
                    ))
    return ideal


def generate_presentation(monoid: Monoid, trunc_degree: int) -> UniversalPresentation:
    """The ring, the tautological series, and the labeled obstruction list."""
    size = presentation_size(monoid, trunc_degree)
    _check_budget(monoid, trunc_degree, size)
    N = trunc_degree
    listed = _listed_payloads(monoid)
    free = isinstance(monoid, FreeCommutativeMonoid)

    used: set = set()
    monoid_vars = {p: _safe_name(monoid.label(p), used) for p in listed}
    c_vars = {}
    for s in range(2, N + 1):
        for i in range(1, s):
            c_vars[(i, s - i)] = _safe_name(f"c_{i}_{s - i}", used)
    d_vars = {}
    for p in listed:
        for i in range(2, N + 1):
            d_vars[(p, i)] = _safe_name(f"d_{monoid_vars[p]}_{i}", used)

    variables = tuple(
        [monoid_vars[p] for p in listed]
        + [c_vars[k] for k in sorted(c_vars, key=lambda t: (t[0] + t[1], t[0]))]
        + [d_vars[k] for k in sorted(d_vars, key=lambda t: (listed.index(t[0]), t[1]))]
    )
    base = IntegerRing()
    plain = PolynomialQuotient(base, variables)
    if free:
        ctx = plain
    else:
        rels = []
        ident = monoid.identity_payload()
        for ia, a in enumerate(listed):
            va = plain.var(monoid_vars[a])
            for b in listed[ia:]:
                q = monoid.mul(a, b)
                if q != ident and q not in monoid_vars:
                    la, lb, lq = map(monoid.label, (a, b, q))
                    raise UniversalError(f"monoid not closed: {la}*{lb} = {lq} is not listed")
                img = plain.el(plain.int_payload(1)) if q == ident \
                    else plain.var(monoid_vars[q])
                rels.append(va * plain.var(monoid_vars[b]) - img)
        ctx = plain.with_ideal(rels)

    return UniversalPresentation(monoid, N, ctx, monoid_vars, c_vars, d_vars, size)


# ---------------------------------------------------------------------------
# evaluation and specialization


def _pow(target, payload, e: int):
    acc = target.int_payload(1)
    for _ in range(e):
        acc = target.mul(acc, payload)
    return acc


def evaluate_polynomial(src: PolynomialQuotient, payload, images: dict, target):
    """Polynomial payload over src, images var name -> target payload."""
    total = target.int_payload(0)
    for exp, c in payload:
        term = target.int_payload(c)
        for v, e in zip(src.variables, exp):
            if e:
                term = target.mul(term, _pow(target, images[v], e))
        total = target.add(total, term)
    return target.el(total)


class SpecializationHom:
    """Variable images into a target ring, with ideal verification.

    images must cover every variable of the presentation's ring; value()
    evaluates any of its elements.  verify() checks the obstruction list and
    raises IdealNotKilled at the first relation with a nonzero image.
    """

    def __init__(self, source: UniversalPresentation, target, images: dict):
        missing = [v for v in source.ctx.variables if v not in images]
        if missing:
            raise UniversalError(f"no image for variable {missing[0]!r}")
        self.source = source
        self.target = target
        self.images = {}
        for v in source.ctx.variables:
            raw = images[v]
            if isinstance(raw, RingElement):
                raw = raw.payload
            self.images[v] = target.normalize(raw)
        self.verification: dict | None = None
        self.reduction_report: dict | None = None

    def value(self, element) -> RingElement:
        payload = element.payload if isinstance(element, RingElement) else element
        return evaluate_polynomial(self.source.ctx, payload, self.images, self.target)

    def verify(self) -> dict:
        checked = 0
        for label, g in self.source.ideal:
            img = self.value(g)
            checked += 1
            if not self.target.is_zero(img.payload):
                raise IdealNotKilled(label, str(img))
        self.verification = {"relations_checked": checked, "all_zero": True}
        return self.verification

    def specialized_series(self, series: TruncatedSeries) -> TruncatedSeries:
        return series.map_coefficients(
            lambda c: self.value(c).payload, new_ctx=self.target
        )

    def induced_action(self) -> MonoidAction:
        """The specialized law and endomorphisms; law axioms re-checked."""
        law = FormalGroupLaw.from_series(self.specialized_series(self.source.F))
        assignment = {}
        monoid = self.source.monoid
        for p in self.source.listed():
            assignment[p] = FglEndomorphism(
                law, self.specialized_series(self.source.g[p]).rename(("T",))
            )
        if not isinstance(monoid, FreeCommutativeMonoid):
            ident = monoid.identity_payload()
            assignment[ident] = FglEndomorphism(
                law,
                TruncatedSeries.variable(
                    self.target, ("T",), self.source.trunc_degree, "T"
                ),
            )
        return MonoidAction(monoid, law, assignment)

    def to_json(self) -> dict:
        return {
            "target": list(self.target.key()),
            "images": {
                v: str(self.target.el(p)) for v, p in sorted(self.images.items())
            },
            "verification": self.verification,
        }


def _structured_images(pres: UniversalPresentation, target, monoid_images,
                       c_images, d_images) -> dict:
    by_label = {pres.monoid.label(p): p for p in pres.listed()}
    images: dict = {}
    for label, value in monoid_images.items():
        if label not in by_label:
            raise UniversalError(f"unknown monoid element {label!r}")
        images[pres.monoid_vars[by_label[label]]] = target.normalize(value)
    for key, value in c_images.items():
        if tuple(key) not in pres.c_vars:
            raise UniversalError(f"unknown law coefficient {key!r}")
        images[pres.c_vars[tuple(key)]] = target.normalize(value)
    for (label, i), value in d_images.items():
        if label not in by_label or (by_label[label], i) not in pres.d_vars:
            raise UniversalError(f"unknown endomorphism coefficient {(label, i)!r}")
        images[pres.d_vars[(by_label[label], i)]] = target.normalize(value)
    return images


def specialize(pres: UniversalPresentation, target, monoid_images: dict,
               c_images: dict, d_images: dict):
    """Images keyed by labels: monoid_images[label], c_images[(i, j)],
    d_images[(label, i)].  Every variable needs an image; for finite carriers
    the monoid images must themselves be multiplicative.  Returns the induced
    action and the verification report."""
    images = _structured_images(pres, target, monoid_images, c_images, d_images)
    monoid = pres.monoid
    if not isinstance(monoid, FreeCommutativeMonoid):
        ident = monoid.identity_payload()
        vals = {ident: target.int_payload(1)}
        for p in pres.listed():
            vals[p] = images[pres.monoid_vars[p]]
        for a in pres.listed():
            for b in pres.listed():
                prod = target.mul(vals[a], vals[b])
                if prod != vals[monoid.mul(a, b)]:
                    raise UniversalError(
                        f"monoid images are not multiplicative at "
                        f"({monoid.label(a)}, {monoid.label(b)})"
                    )
    hom = SpecializationHom(pres, target, images)
    report = hom.verify()
    return hom.induced_action(), report


def classify_fgl(pres: UniversalPresentation, action: MonoidAction) -> SpecializationHom:
    """Read variable images off a verified action and check they kill the
    obstruction list; that check is the universal property made executable."""
    if action.monoid.key() != pres.monoid.key():
        raise UniversalError("action monoid does not match the presentation")
    if action.law.trunc_degree < pres.trunc_degree:
        raise UniversalError(
            f"action degree {action.law.trunc_degree} below presentation "
            f"degree {pres.trunc_degree}"
        )
    target = action.law.ctx
    images: dict = {}
    for (i, j), name in pres.c_vars.items():
        images[name] = action.law.coefficient(i, j).payload
    for p in pres.listed():
        endo = action.endo_for(p)
        images[pres.monoid_vars[p]] = endo.linear_coefficient().payload
        for i in range(2, pres.trunc_degree + 1):
            images[pres.d_vars[(p, i)]] = endo.series.coefficient((i,)).payload
    hom = SpecializationHom(pres, target, images)
    hom.verify()
    return hom


# ---------------------------------------------------------------------------
# functoriality and membership checks


def _reduce_against(ctx: PolynomialQuotient, payload, gens: list):
    """Remainder of naive division by the unit-leading members of gens."""
    usable = [g.payload for g in gens if g.payload and g.payload[0][1] in (1, -1)]
    if not usable:
        return payload
    scratch = PolynomialQuotient(ctx.base, ctx.variables, tuple(ctx.ideal) + tuple(usable))
    return scratch.normalize(payload)


def ideal_membership(pres: UniversalPresentation, element: RingElement) -> str:
    """"zero" for literal or reduced-to-zero elements, "member" for a match
    with a listed relation up to sign, "inconclusive" otherwise.  Naive
    reduction only; "inconclusive" never asserts non-membership."""
    payload = element.payload
    if not payload:
        return "zero"
    gens = [g for _, g in pres.nonzero_ideal()]
    reduced = _reduce_against(pres.ctx, payload, gens)
    if not reduced:
        return "zero"
    for g in gens:
        if reduced == g.payload or reduced == pres.ctx.neg(g.payload):
            return "member"
    return "inconclusive"


def functoriality_map(phi: MonoidMorphism, src: UniversalPresentation,
                      tgt: UniversalPresentation) -> SpecializationHom:
    """The ring map induced by a monoid morphism: law coefficients map to
    themselves, endomorphism coefficients to those of the image element's
    series (so elements mapping to 1 get the zero series).  Each source
    relation's image is run through ideal_membership on the target; the
    outcome lands in hom.reduction_report, with inconclusive entries
    reported rather than asserted false."""
    if src.trunc_degree != tgt.trunc_degree:
        raise UniversalError("presentations must share a truncation degree")
    if phi.source.key() != src.monoid.key() or phi.target.key() != tgt.monoid.key():
        raise UniversalError("morphism does not connect the two monoids")
    phi.verify()
    images: dict = {}
    for (i, j), name in src.c_vars.items():
        images[name] = tgt.ctx.var(tgt.c_vars[(i, j)]).payload
    for p in src.listed():
        q = phi.apply(p)
        images[src.monoid_vars[p]] = tgt.element_value(q).payload
        gq = tgt.g_for(q)
        for i in range(2, src.trunc_degree + 1):
            images[src.d_vars[(p, i)]] = gq.coefficient((i,)).payload
    hom = SpecializationHom(src, tgt.ctx, images)
    report = {"zero": [], "member": [], "inconclusive": []}
    for label, g in src.ideal:
        report[ideal_membership(tgt, hom.value(g))].append(label)
    hom.reduction_report = report
    return hom


def z_two_variable_check(pres: UniversalPresentation, a_payload, b_payload) -> dict:
    """The two-variable composition defect g_b(g_a(F(x, y))) - g_ab(F(x, y))
    equals sum_i Z_a_b_i F(x, y)^i term for term, an explicit certificate
    that the one-variable relations generate the two-variable ones."""
    monoid = pres.monoid
    N = pres.trunc_degree
    ga = pres.g[a_payload]
    gb = pres.g[b_payload]
    ab = monoid.mul(a_payload, b_payload)
    lhs = gb.substitute_single(ga.substitute_single(pres.F)) - \
        pres.g_for(ab).substitute_single(pres.F)
    aname = pres.monoid_vars[a_payload]
    bname = pres.monoid_vars[b_payload]
    rhs = TruncatedSeries.zero(pres.ctx, ("x", "y"), N)
    for i, F_i in enumerate(pres.F.powers(N)[1:], 1):
        rhs = rhs + F_i.scale(pres.generator(f"Z_{aname}_{bname}_{i}"))
    bad = first_difference(pres.ctx, lhs.terms, rhs.terms)
    if bad:
        raise UniversalError(f"certificate fails at monomial {bad[0]}")
    return {"ok": True, "degree": N, "relations_used": N}


# ---------------------------------------------------------------------------
# non-triviality evidence


def nontriviality_witness(pres: UniversalPresentation, make_action,
                          max_degree: int | None = None) -> dict:
    """Evidence that the presented ring carries a law with no additive
    change of coordinates over the target.

    make_action(N) must build a verified action of the presentation's monoid
    over the target at truncation degree N.  The action at the presentation's
    own degree is classified (that hom is the exhibit); then the law's
    logarithm candidate is scanned for a non-integral coefficient at rising
    degrees.  A strict additive coordinate change is a unit multiple of the
    logarithm, so one blocked denominator rules every such change out at
    that degree.  "additive" and "inconclusive" are honest outcomes: the
    first when the law is x + y on the nose throughout, the second when the
    logarithm stays integral up to the budget."""
    if max_degree is None:
        max_degree = max(pres.trunc_degree, budget_caps()["degree"] + 2)
    hom = classify_fgl(pres, make_action(pres.trunc_degree))
    always_additive = True
    for N in range(pres.trunc_degree, max_degree + 1):
        law = make_action(N).law
        if set(law.F.terms) <= {(1, 0), (0, 1)}:
            continue  # already additive at this degree, nothing to rule out
        always_additive = False
        _, scan = integrality_scan(law)
        blocking = scan.first_blocking()
        if blocking is not None:
            return {
                "outcome": "witness",
                "degree": N,
                "blocking": blocking.to_json(),
                "hom": hom.to_json(),
            }
    return {
        "outcome": "additive" if always_additive else "inconclusive",
        "degree": max_degree,
        "hom": hom.to_json(),
    }
