"""Recovering addition on M-with-0 from a monoid action.

For a strict action, [m1+m2](x) = F([m1](x), [m2](x)) determines the sum of
two monoid elements from purely multiplicative data plus the law.  F is
x + y plus terms of degree at least 2, so the linear coefficient of
F([a], [b]) is the native sum of the lifts of a and b: that sum is the
candidate, and the law confirms it by one series comparison, at class
precision over a truncation monoid and exactly over a listed window.  Sums
whose valuation escapes the window come back as CAPPED rather than folded
into the absorbing class; the adjoined zero is the exact series 0.

On a finite truncation carrier a recovered ring is one row, 1 + c for every
class c, and the rule a + b = a(1 + b/a); transport_structure moves it along
a multiplicative isomorphism by permuting the row, which is how two rings
sharing one monoid exhibit different additions on the same carrier.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from itertools import chain, islice
from types import MappingProxyType

from .laws import MonoidAction
from .lubin_tate import LubinTateAction, build_action, build_fgl, standard_datum
from .monoids import (
    BOTTOM,
    PadicTruncationMonoid,
    RingSubsetMonoid,
    padic_truncation_of,
    unit_isomorphism_variants,
)
from .rings import EisensteinExtension, RingError
from .series import _pair_products, first_difference


class RecoveryError(RingError):
    pass


class NoMatch(RecoveryError):
    """The sum of two listed elements lies outside the listed window."""


ADJOINED_ZERO = ("zero",)
CAPPED = ("cap",)


def entry_label(monoid, entry) -> str:
    """A table entry as printed: "!cap", "0" for the adjoined zero, or the
    class label."""
    if entry == CAPPED:
        return "!cap"
    if entry == ADJOINED_ZERO:
        return "0"
    return monoid.label(entry)


def pair_flag(a, b, entry):
    """The flag of a + b = entry on a truncation carrier: "cap", "precision"
    or None.

    "cap": the sum leaves the valuation window (or is the adjoined zero),
    so there is no class to return.  "precision": the sum's valuation
    exceeds both operands', so its class depends on the choice of lifts
    inside the operand classes; the entry is the canonical-lift value,
    recorded but not trusted.  Unflagged sums are independent of lifts."""
    if entry == CAPPED or entry == ADJOINED_ZERO:
        return "cap"
    if entry[0] > min(a[0], b[0]):
        return "precision"
    return None


def _entry_of(monoid, s):
    """The native sum s of two lifts as the carrier sees it: the adjoined
    zero, a listed element, or the class of s, CAPPED where that class is
    absorbing.  A window sum that is not listed raises NoMatch."""
    if monoid.ctx.is_zero(s):
        return ADJOINED_ZERO
    if isinstance(monoid, RingSubsetMonoid):
        if s not in monoid.payloads():
            raise NoMatch("sum lies outside the listed window")
        return s
    cls = monoid.class_of(s)
    return CAPPED if cls == BOTTOM else cls


def _native_sum(monoid, p1, p2):
    """_entry_of the sum of the canonical lifts of p1 and p2."""
    lift = monoid.canonical_lift
    return _entry_of(monoid, monoid.ctx.add(lift(p1), lift(p2)))


def sum_with(action: MonoidAction, p1):
    """The function p2 -> recover_sum(action, p1, p2), with p1 lifted once,
    [p1] read at that lift, and F([p1], y) = sum_j g_j * y^j, g_j = sum_i
    F_ij * [p1]^i, folded once.

    Each p2 is lifted once, for the native sum and for [p2], which
    action.series_at reads off a LubinTateAction's scalar table at that
    lift, as it reads [candidate]; each then costs sum_j g_j * [p2]^j, one
    _pair_products per j, reading [p2]'s powers only to F's top y-exponent.
    That is F.composed_terms({x: [p1], y: [p2]}) with each term c * ([p1]^i
    * [p2]^j) regrouped as (c * [p1]^i) * [p2]^j and the sums reordered,
    which is exact where products are commutative and associative on normal
    forms: over Q and the PadicRings that build_action accepts.  A
    PolynomialQuotient whose generators are not confluent may reduce the
    two groupings to different normal forms (fgl.rings); no caller confirms
    a sum there."""
    if p1 == ADJOINED_ZERO:
        return lambda p2: p2
    if p1 == BOTTOM:
        return lambda p2: p1 if p2 == ADJOINED_ZERO else CAPPED
    monoid, F = action.monoid, action.law.F
    if not isinstance(monoid, (PadicTruncationMonoid, RingSubsetMonoid)):
        raise RecoveryError(f"no sum identification for {type(monoid).__name__}")
    N, truncation = F.trunc_degree, isinstance(monoid, PadicTruncationMonoid)
    top_x, top_y = F.top_exponents(N)
    lift, plus, series_at = monoid.canonical_lift, monoid.ctx.add, action.series_at
    lift1 = lift(p1)
    first = series_at(p1, lift1)
    ctx, powers = first.ctx, first.powers(top_x)
    mul, add, one = ctx.mul, ctx.add, {(0,): ctx.int_payload(1)}
    g = [{} for _ in range(top_y + 1)]
    for (i, j), c in F.terms.items():
        gj = g[j]
        for e, v in (powers[i].terms if i else one).items():
            if e[0] + j <= N:  # [p2]^j starts at degree j
                v = mul(c, v)
                gj[e] = add(gj[e], v) if e in gj else v
    g0, *g = [{e: v for e, v in gj.items() if not ctx.is_zero(v)} for gj in g]

    def add_p1(p2):
        if p2 == ADJOINED_ZERO:
            return p1
        if p2 == BOTTOM:
            return CAPPED
        lift2 = lift(p2)
        candidate = _entry_of(monoid, plus(lift1, lift2))
        if candidate == CAPPED:
            return CAPPED
        target, precisions = {}, None
        if candidate != ADJOINED_ZERO:
            target = series_at(candidate, lift(candidate)).terms
            if truncation:
                precisions = monoid.class_precisions(candidate[0], N)
        summed = dict(g0)
        for gj, power in zip(g, series_at(p2, lift2).powers(top_y)[1:]):
            for e, v in _pair_products(N, gj, power.terms, mul, add).items():
                summed[e] = add(summed[e], v) if e in summed else v
        bad = first_difference(ctx, summed, target, precisions)
        if bad:
            raise RecoveryError(
                f"F([{monoid.label(p1)}], [{monoid.label(p2)}]) differs from "
                f"[{entry_label(monoid, candidate)}] at degree {sum(bad[0])}; "
                f"action not strict here?"
            )
        return candidate

    return add_p1


def recover_sum(action: MonoidAction, p1, p2):
    """The carrier element whose endomorphism matches F([p1], [p2]).

    Returns a monoid payload, the adjoined zero, or CAPPED for a sum (or an
    absorbing operand) whose valuation reaches a truncation monoid's cap.
    The candidate is the native sum of the lifts (the canonical lifts of two
    classes, or two listed elements), which is the linear coefficient of
    F([p1], [p2]).  The law then confirms it: the full series must match
    [candidate] at the candidate's class precision over a truncation
    monoid, exactly over a window, and vanish exactly when the candidate is
    the adjoined zero.  A mismatch is a hard error; a window sum that is
    not listed raises NoMatch before any confirmation.  This is
    sum_with(action, p1) applied to p2, the one confirmation path.
    """
    return sum_with(action, p1)(p2)


# ---------------------------------------------------------------------------
# full tables


class RecoveredRing:
    """Addition on the carrier of a finite truncation monoid: a row and a rule.

    elements is the monoid's classes: the non-absorbing classes, sorted, so
    valuation first, one tuple shared by every ring over the monoid; the
    adjoined zero is implicit (0 + m = m).  row[c] is 1 + c.  For v(a) <=
    v(b), add(a, b) is a*row[b/a] when that entry is unflagged, else
    other(a, b).  The canonical lifts satisfy a + b = a(1 + c) mod
    pi^(v(b) + n), c = b/a, so a pair is flagged exactly when its row entry
    is.  Entries are class payloads, ADJOINED_ZERO, or CAPPED for sums
    escaping the valuation window; pair_flag(1, c, row[c]) reads an entry's
    flag.  The ring owns the row it is given and holds it read-only, so
    check_symmetry runs once.  Axiom checks run only over unflagged
    entries, where class addition is independent of lifts.

    Away from flags the rule is homogeneous: when s*a and s*b are classes,
    (s*a, s*b) has the quotient c of (a, b), so s*a + s*b = s*(a + b).  So a
    pair or a triple behaves as its normalized form does, and stands for
    weight(v) of them, v its largest valuation.
    """

    def __init__(self, monoid: PadicTruncationMonoid, provenance: str,
                 row: dict, other):
        self.monoid = monoid
        self.elements = monoid.classes
        self.provenance = provenance
        self.row = row if type(row) is MappingProxyType else MappingProxyType(row)
        self.other = other
        self.units = monoid.unit_classes
        self._one = monoid.identity_payload()
        self._symmetric = False

    def add(self, a, b):
        if ADJOINED_ZERO in (a, b):
            return b if a == ADJOINED_ZERO else a
        if BOTTOM in (a, b):
            return CAPPED
        if b[0] < a[0]:
            a, b = b, a
        c = self.monoid.quotient(b, a)
        z = self.row[c]
        return self.other(a, b) if pair_flag(self._one, c, z) else self.monoid.mul(a, z)

    def flag(self, a, b):
        """The pair's flag: "cap", "precision", or None; 0 + b = b is exact."""
        return None if ADJOINED_ZERO in (a, b) else pair_flag(a, b, self.add(a, b))

    def flagged_pairs(self):
        """Ordered pairs (a, a*c) with 1 + c flagged and a*c a class; all
        other pairs are unflagged.  In a built ring such c are units, as
        1 + c is one when v(c) > 0; the a are the first weight(v(c))
        elements."""
        return ((a, self.monoid.mul(c, a)) for c in self.elements
                if pair_flag(self._one, c, self.row[c])
                for a in self.elements[:self.weight(c[0])])

    def flag_counts(self) -> dict:
        """Flagged ordered pairs by kind."""
        counts = Counter(self.flag(a, b) for a, b in self.flagged_pairs())
        return {kind: counts[kind] for kind in ("cap", "precision")}

    def weight(self, v: int) -> int:
        """The number of classes s for which s*p is a class for every p of
        valuation at most v: |U|*(V - v), U the units."""
        return len(self.units) * (self.monoid.V - v)

    def check_symmetry(self):
        """Raise unless the row is symmetric: a unit c is flagged exactly
        when 1/c is, and Z[c] = c*Z[1/c] when it is not; |U| reads.

        For v(a) = v(b) and c = b/a, a + b is a*Z[c] and b + a is
        (a*c)*Z[1/c], or other() on both sides where Z[c] is flagged; pairs
        of unequal valuation are read one way round.  So this is a + b =
        b + a on every unflagged pair, and what makes a pair's kind in
        _compare_tables the same under c and under 1/c."""
        if self._symmetric:
            return
        one, monoid = self._one, self.monoid
        for c in self.units:
            # the unflagged entries at c and 1/c, units both, else None
            z, w = (e if pair_flag(one, c, e) is None else None
                    for e in (self.row[c], self.row[monoid.quotient(one, c)]))
            if (z is None) != (w is None) or z is not None and monoid.mul(c, w) != z:
                raise RecoveryError(f"table not symmetric at ({one}, {c})")
        self._symmetric = True

    def verify_ring_axioms(self) -> dict:
        """Commutativity, associativity and distributivity on everything
        unflagged.  A count is the number of pairs or triples the check
        covers; zero neutrality holds by construction, as add returns the
        other operand of the adjoined zero.

        Commutativity is check_symmetry plus a + b = b + a on the flagged
        pairs, |C|^2 pairs in all.

        Distributivity.  Let (a, b) be unflagged, v(a) <= v(b), c = b/a,
        and m*a, m*b classes.  Then (m*a, m*b) has quotient c, so it is
        unflagged too, and m*a + m*b = (m*a)*Z[c] = m*(a + b).  A flagged
        (a, b) has a flagged entry, which the identity skips, unless other()
        gives it an unflagged one; that is the one way distributivity can
        fail, and it is what is checked, on the flagged pairs.  The count is
        weight(max(v(a), v(b))) summed over the unflagged pairs.

        Associativity.  Every triple is s*t for one normalized triple t,
        whose first element of least valuation is 1: (1, y, z), (x, 1, z)
        or (x, y, 1), with v(x), v(y) > 0 in the last two.  Once flagged
        pairs are known to have flagged sums, a pair is unflagged exactly
        when its quotient's row entry is, so s*t is checked and holds
        exactly when t is checked and holds.  Each normalized t is checked
        once and counts weight(max v(t)) times; a failure names the
        row-major first of the s*t, which has s a unit.
        """
        els, mul, one = self.elements, self.monoid.mul, self._one
        self.check_symmetry()
        for a, b in sorted(self.flagged_pairs()):
            e = self.other(a, b)
            if e != self.add(b, a):
                raise RecoveryError(f"table not symmetric at ({a}, {b})")
            if pair_flag(a, b, e) is None:
                raise RecoveryError(f"distributivity fails at ({a}, {b}): "
                                    "its row entry is flagged and its sum is not")

        @cache
        def unflagged_sum(x, y):
            e = self.add(x, y)
            return e if pair_flag(x, y, e) is None else None

        rest = els[len(self.units):]
        normalized = chain(((one, y, z) for y in els for z in els),
                           ((x, one, z) for x in rest for z in els),
                           ((x, y, one) for x in rest for y in rest))
        counts, failures = Counter(), []
        for a, b, c in normalized:
            ab, bc = unflagged_sum(a, b), unflagged_sum(b, c)
            left = None if ab is None else unflagged_sum(ab, c)
            right = None if bc is None else unflagged_sum(a, bc)
            checked = left is not None and right is not None
            counts[checked] += self.weight(max(a[0], b[0], c[0]))
            if checked and left != right:
                failures.append((a, b, c))
        if failures:
            first = min(tuple(mul(s, x) for x in t)
                        for t in failures for s in self.units)
            raise RecoveryError(f"associativity fails at {first}")
        # the unflagged pairs at c are a*(1, c), and a*(c, 1) too when
        # v(c) > 0, for the |U| classes a of each valuation j < V - v(c)
        distributive = sum((2 if c[0] else 1) * len(self.units) * self.weight(j + c[0])
                           for c in els if not pair_flag(one, c, self.row[c])
                           for j in range(self.monoid.V - c[0]))
        return {"checked": {"commutativity": len(els) ** 2,
                            "associativity": counts[True],
                            "distributivity": distributive},
                "skipped": {"associativity": counts[False],
                            "distributivity": len(els) ** 3 - distributive}}

    def to_json(self) -> dict:
        label = self.monoid.label

        def cell(a, b):
            entry = self.add(a, b)
            return (entry_label(self.monoid, entry)
                    + ("?" if pair_flag(a, b, entry) == "precision" else ""))

        rows = [{"element": label(a), "sums": [cell(a, b) for b in self.elements]}
                for a in self.elements]
        return {
            "monoid": self.monoid.descriptor(),
            "elements": [label(a) for a in self.elements],
            "provenance": self.provenance,
            "table": rows,
            "flags": self.flag_counts(),
        }


def build_addition_table(action: LubinTateAction) -> RecoveredRing:
    """Every pairwise sum, read off the row Z[c] = recover_sum(action, 1, c)
    that the law confirms at class precision; a failed confirmation is a
    hard error.  The row folds F([1], y) once (sum_with) and applies it to
    every class, each [c] read off the scalar table at c's lift.  Only an
    action that build_action built is taken: the lemma below proves every
    other pair and check from its certificate.  Any other action is
    refused; verify_action checks one pair by pair.

    Lemma.  Let M be the datum's scalar table, [s] = s*T + sum_k P_k(s) *
    T^k with P_k(s) = sum_j M[k][j] * s^j, for s in the fraction field.
    build_action certified log([s]) = s*log for every s
    (fgl.lubin_tate._certify), so there [x]o[y] = exp(xy*log) = [xy], [1] =
    T, F([x], [y]) = [x + y], and [x] is an endomorphism of F.  It also
    wrote each P_k in the Newton basis F_i(x) = prod_{j<i} (x - a_j) / D_i
    of the ring's integer-valued polynomials, with integral coordinates,
    and v(D_i) = v_p(i!) <= v_p(k!) for i <= k at its nodes, counted in
    powers of pi (fgl.lubin_tate._certify_rows).  So for
    integral s every coefficient of [s] is integral; [xy] = [x]o[y] and [x +
    y] = F([x], [y]) are compositions of integral series, and from_field, a
    ring map on integral elements, carries the identities to the ring,
    where the law is the datum's and every class a but BOTTOM is assigned
    the [canonical_lift(a)] built.
    Congruence step: the numerator of F_i(s) - F_i(s') is prod_{j<i} (s -
    a_j) - prod_{j<i} (s' - a_j), an integral multiple of s - s'.  So if s
    = s' mod pi^(v(s) + n), the T^k coefficient of [s] - [s'] is sum_i c_i
    * (F_i(s) - F_i(s')), zero mod pi^(v(s) + n - v_p(k!)): class
    precision at degree k (PadicTruncationMonoid.class_precisions).  With
    x, y the canonical lifts of classes a, b, and s' the canonical lift of
    the class of s:
      verify_action's checks hold.  [1] = T; the linear coefficient of [a]
        is x, in class a; the endomorphism law holds exactly; and [a]o[b] =
        [xy] = [lift of ab] at class precision, as xy is in class ab.
      recover_sum's confirmations hold.  F([a], [b]) = [x + y] exactly, and
        [x + y] = [s'] at the candidate's class precision for s = x + y; a
        zero sum has [0] = 0 exactly, and a capped one composes nothing.
      The ring's entries are those candidates.  A flagged pair reads
        _native_sum, the candidate itself; an unflagged a*Z[b/a] is the
        class of x + y, as RecoveredRing states of the canonical lifts.
    So the row and the lemma give every entry, and no pair or check is
    computed a second time.
    """
    if not isinstance(action, LubinTateAction):
        raise RecoveryError(f"full tables need an action built by build_action, not a "
                            f"{type(action).__name__}; check one with verify_action")
    monoid = action.monoid
    if not isinstance(monoid, PadicTruncationMonoid):
        raise RecoveryError("full tables need a finite truncation carrier")
    add_one = sum_with(action, monoid.identity_payload())
    row = {c: add_one(c) for c in monoid.classes}
    return RecoveredRing(monoid, "recovered", row, partial(_native_sum, monoid))


def transport_structure(iso, ring2: RecoveredRing) -> RecoveredRing:
    """Addition pulled back along a TwistIsomorphism or a table MonoidMorphism,
    a +' b = iso_inv(iso(a) + iso(b)).  iso is verified and inverted first, so
    a multiplicative map that is not a bijection raises MonoidError; only then
    is a +' b = a*iso_inv(1 + iso(b/a)), so the row is permuted and the other
    pairs are pulled back on demand.  Flags are untouched: iso keeps valuations."""
    if iso.target.key() != ring2.monoid.key():
        raise RecoveryError("isomorphism target does not carry the given table")
    iso.verify()
    fwd, back = iso.apply, iso.inverse().apply

    def pull(entry):
        # CAPPED and the adjoined zero are not classes: they map to themselves
        return entry if entry in (CAPPED, ADJOINED_ZERO) else back(entry)

    row = {c: pull(ring2.row[fwd(c)]) for c in iso.source.classes}
    return RecoveredRing(iso.source, "transported", row,
                         lambda a, b: pull(ring2.add(fwd(a), fwd(b))))


# ---------------------------------------------------------------------------
# the end-to-end variation demo


@dataclass
class VariantOutcome:
    twist: tuple
    agreements: int
    disagreements: int
    flag_mismatches: int
    both_flagged: int = 0
    sample: list = field(default_factory=list)

    def to_json(self):
        return {**asdict(self), "twist": list(self.twist)}


@dataclass
class VariationReport:
    p: int
    poly1: tuple
    poly2: tuple
    n: int
    V: int
    trunc_degree: int
    precision: int
    carrier_size: int
    multiplication_identical: bool
    variants: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def all_variants_disagree(self) -> bool:
        return all(
            v.disagreements + v.flag_mismatches > 0 for v in self.variants
        )

    def to_json(self):
        return {
            "p": self.p,
            "poly1": list(self.poly1),
            "poly2": list(self.poly2),
            "n": self.n,
            "V": self.V,
            "degree": self.trunc_degree,
            "precision": self.precision,
            "carrier_size": self.carrier_size,
            "multiplication_identical": self.multiplication_identical,
            "every_variant_disagrees": self.all_variants_disagree,
            "variants": [v.to_json() for v in self.variants],
        }


def _compare_tables(native: RecoveredRing,
                    transported: RecoveredRing) -> VariantOutcome:
    """Pairs flagged on one side only count as flag mismatches; pairs flagged
    on both sides are set aside (their entries are lift artifacts on both
    carriers).  Unflagged pairs compare entry by entry.

    On both rings a pair's flag and entry a*(1 + c) follow from the row at
    c = b/a, and a*z = a*z' only when z = z', so its kind is that of (1, c),
    and it is decided per class, when asked.  Class c stands for its
    upper-triangle pairs: the weight(v(c)) pairs (a, a*c) when v(c) > 0 or
    c = 1, and half of weight(0) for any other unit, as {a, a*c} is met
    once, under c or under 1/c.  Both rings pass check_symmetry first,
    which gives c and 1/c one kind.  Pairs are walked, in row order, only
    for the samples."""
    native.check_symmetry()
    transported.check_symmetry()
    m1, els = native.monoid, native.elements
    one = m1.identity_payload()

    def kind(c):
        # add(1, c) is row[c] on both rings: a flagged entry is read off
        # other(), which gives the same native candidate, or on the
        # transported ring the same pull(ring2.row[fwd(c)])
        z1, z2 = native.row[c], transported.row[c]
        f1, f2 = pair_flag(one, c, z1), pair_flag(one, c, z2)
        return ("both" if f1 and f2 else "flag" if f1 or f2 else
                "agree" if z1 == z2 else "entry")

    counts = Counter()
    for c in els:
        w = native.weight(c[0])
        counts[kind(c)] += w if c[0] or c == one else w // 2
    walk = ((a, b, kind(m1.quotient(b, a)))
            for i, a in enumerate(els) for b in islice(els, i, None))
    mismatches = ((a, b, kind) for a, b, kind in walk if kind in ("entry", "flag"))
    want = min(10, counts["entry"] + counts["flag"])
    sample = [{"pair": [m1.label(a), m1.label(b)],
               "native": entry_label(m1, native.add(a, b)),
               "transported": entry_label(m1, transported.add(a, b)),
               "kind": kind}
              for a, b, kind in islice(mismatches, want)]
    return VariantOutcome((), counts["agree"], counts["entry"], counts["flag"],
                          counts["both"], sample)


def variation_demo(p: int, poly1: tuple, poly2: tuple, n: int, V: int,
                   trunc_degree: int = 2, precision: int | None = None,
                   variants: int = 3) -> VariationReport:
    """Two ramified extensions, one multiplicative monoid, two additions.

    Pipeline: truncation monoids for both rings; generator-matched
    isomorphisms (several twists); a Lubin-Tate addition table on each side;
    transport of the second table to the first carrier; entry-by-entry
    comparison.  Multiplication is common to both rings whenever the
    matching is multiplicative, which transport_structure checks on the
    generators; build_addition_table trusts each action by its
    certificate.
    """
    t0 = time.perf_counter()
    k = precision if precision is not None else n + V + 3
    ctxs = [EisensteinExtension(p, k, tuple(poly)) for poly in (poly1, poly2)]
    m1, m2 = monoids = [padic_truncation_of(ctx, n, V) for ctx in ctxs]
    isos = unit_isomorphism_variants(m1, m2, count=variants)
    r1, r2 = (build_addition_table(build_action(d, build_fgl(d, trunc_degree), monoid=m))
              for d, m in zip(map(standard_datum, ctxs), monoids))
    report = VariationReport(p=p, poly1=tuple(poly1), poly2=tuple(poly2), n=n, V=V,
                             trunc_degree=trunc_degree, precision=k,
                             carrier_size=len(m1.payloads()), multiplication_identical=True)
    for iso in isos:
        # each transported ring is dropped once it is compared
        outcome = _compare_tables(r1, transport_structure(iso, r2))
        outcome.twist = iso.twist
        report.variants.append(outcome)
    report.seconds = time.perf_counter() - t0
    return report
