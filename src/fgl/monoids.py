"""Commutative monoids: free, finitely presented, and truncated p-adic.

The truncation monoid of a local ring collapses O \\ {0} to pairs
(valuation v < V, unit residue mod m^n), with one absorbing element BOTTOM
for everything of valuation >= V.  BOTTOM is part of the monoid; it is not
the zero that ring recovery later adjoins.
"""
from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import accumulate, islice, product, repeat

from .rings import PadicRing, RingContext, RingError


class MonoidError(RingError):
    pass


class StructureMismatch(MonoidError):
    """Two monoids that cannot be matched generator-by-generator."""


BOTTOM = ("bot",)
_CLOSURE_CAP = 4096  # elements FinitelyPresentedMonoid.from_relations may enumerate


class Monoid:
    """Base class: payload-level multiplication plus enumeration.  Elements
    are plain payloads."""

    def check_payload(self, payload):
        raise NotImplementedError

    def identity_payload(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def payloads(self):
        raise MonoidError("not a finite monoid")

    def label(self, payload) -> str:
        raise NotImplementedError

    def key(self) -> tuple:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Monoid) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class _ExponentMonoid(Monoid):
    """Payloads are exponent tuples over self.generators."""

    def identity_payload(self):
        return (0,) * len(self.generators)

    def label(self, payload) -> str:
        parts = [
            g if e == 1 else f"{g}^{e}"
            for g, e in zip(self.generators, payload)
            if e
        ]
        return "*".join(parts) if parts else "1"


class FreeCommutativeMonoid(_ExponentMonoid):
    """Free commutative monoid on named generators; payload = exponent tuple."""

    def __init__(self, generators):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise MonoidError("generator names must be distinct")
        self.generators = generators

    def check_payload(self, payload):
        payload = tuple(payload)
        if len(payload) != len(self.generators) or any(
            not isinstance(e, int) or e < 0 for e in payload
        ):
            raise MonoidError("payload must be a tuple of non-negative exponents")
        return payload

    def generator(self, name: str) -> tuple:
        if name not in self.generators:
            raise MonoidError(f"unknown generator {name!r}")
        return tuple(1 if g == name else 0 for g in self.generators)

    def word(self, payload) -> list:
        """The generator payloads of a word in the order they are applied:
        earlier generators first (innermost), each repeated by its exponent.
        Every composite endomorphism, series and image follows this order."""
        return [self.generator(g) for g, e in zip(self.generators, payload)
                for _ in range(e)]

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def payloads(self):
        if self.generators:
            raise MonoidError("free monoid on generators is infinite")
        return [()]

    def key(self):
        return ("free", self.generators)

    def descriptor(self):
        return {"kind": "free", "generators": list(self.generators)}


class FinitelyPresentedMonoid(_ExponentMonoid):
    """Finite commutative monoid with an explicit multiplication table.

    Payloads are canonical exponent tuples over the generators.  Either give
    the table directly or let bounded rewriting close the relations; in both
    cases the table is exhaustively checked for associativity, commutativity
    and the unit law, so a non-confluent rewriting system cannot slip through.
    """

    def __init__(self, generators, element_payloads, table):
        self.generators = tuple(generators)
        self._payloads = list(element_payloads)
        self._index = {p: i for i, p in enumerate(self._payloads)}
        self.table = dict(table)
        if self.identity_payload() not in self._index:
            raise MonoidError("identity exponent vector missing")
        self._verify_table()

    @classmethod
    def from_relations(cls, generators, relations):
        """relations: pairs (lhs, rhs) of exponent tuples, lhs = rhs in M;
        a closure past _CLOSURE_CAP elements is refused."""
        generators = tuple(generators)
        rules = []
        for lhs, rhs in relations:
            lhs, rhs = tuple(lhs), tuple(rhs)
            if (sum(lhs), lhs) < (sum(rhs), rhs):
                lhs, rhs = rhs, lhs
            if lhs == rhs:
                continue
            rules.append((lhs, rhs))

        def normal(vec):
            vec = tuple(vec)
            changed = True
            while changed:
                changed = False
                for lhs, rhs in rules:
                    if all(v >= l for v, l in zip(vec, lhs)):
                        vec = tuple(v - l + r for v, l, r in zip(vec, lhs, rhs))
                        changed = True
                        break
            return vec

        ident = (0,) * len(generators)
        seen = {normal(ident)}
        frontier = [normal(ident)]
        gens = [
            tuple(1 if i == j else 0 for j in range(len(generators)))
            for i in range(len(generators))
        ]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = normal(tuple(c + e for c, e in zip(cur, g)))
                if nxt not in seen:
                    if len(seen) >= _CLOSURE_CAP:
                        raise MonoidError("relation closure exceeded the element budget")
                    seen.add(nxt)
                    frontier.append(nxt)
        payloads = sorted(seen, key=lambda v: (sum(v), v))
        table = {}
        for a in payloads:
            for b in payloads:
                table[(a, b)] = normal(tuple(x + y for x, y in zip(a, b)))
        return cls(generators, payloads, table)

    def _verify_table(self):
        ident = self.identity_payload()
        ps = self._payloads
        for a in ps:
            if self.table[(ident, a)] != a or self.table[(a, ident)] != a:
                raise MonoidError(f"unit law fails at {a}")
        for a in ps:
            for b in ps:
                ab = self.table[(a, b)]
                if ab not in self._index:
                    raise MonoidError("table is not closed")
                if ab != self.table[(b, a)]:
                    raise MonoidError(f"commutativity fails at ({a}, {b})")
        for a in ps:
            for b in ps:
                ab = self.table[(a, b)]
                for c in ps:
                    if self.table[(ab, c)] != self.table[(a, self.table[(b, c)])]:
                        raise MonoidError(f"associativity fails at ({a}, {b}, {c})")

    def check_payload(self, payload):
        payload = tuple(payload)
        if payload not in self._index:
            raise MonoidError(f"{payload} is not a canonical element")
        return payload

    def mul(self, a, b):
        return self.table[(a, b)]

    def payloads(self):
        return list(self._payloads)

    def key(self):
        return (
            "presented",
            self.generators,
            tuple(self._payloads),
            tuple(sorted(self.table.items())),
        )

    def descriptor(self):
        return {
            "kind": "presented",
            "generators": list(self.generators),
            "elements": [list(p) for p in self._payloads],
            "table": [
                {"a": list(a), "b": list(b), "ab": list(ab)}
                for (a, b), ab in sorted(self.table.items())
            ],
        }


class PadicTruncationMonoid(Monoid):
    """Multiplicative monoid (valuation < V, unit mod m^n) with absorbing BOTTOM."""

    def __init__(self, ctx: RingContext, n: int, V: int):
        if not isinstance(ctx, PadicRing):
            raise MonoidError("truncation monoids need a p-adic or Eisenstein ring")
        if n < 1 or V < 1:
            raise MonoidError("need n >= 1 and V >= 1")
        # a class of valuation V - 1 reads its unit mod m^n, so its lift
        # needs n + V - 1 digits
        if ctx.k < n + V - 1:
            raise MonoidError(
                f"ring precision {ctx.k} cannot represent classes of valuation "
                f"{V - 1} with units mod m^{n}; need at least {n + V - 1}"
            )
        self.ctx = ctx
        self.n = n
        self.V = V
        self.unit_ctx = ctx.residue_ring(n)
        self._units = None
        self._registry = None  # payloads(), built on first use
        # pi^0 .. pi^(V-1), the valuation parts of the canonical lifts
        pi = ctx.uniformizer().payload
        self._pi_powers = list(accumulate(repeat(pi, V - 1), ctx.mul,
                                          initial=ctx.int_payload(1)))
        self._precisions: dict = {}

    def unit_payloads(self) -> tuple:
        """All units of O/m^n, deterministically ordered, built once."""
        if self._units is None:
            self._units = tuple(self.unit_ctx.units())
        return self._units

    @cached_property
    def unit_group(self) -> "UnitGroup":
        """Invariant factors and matching generators of the unit part,
        computed once per monoid."""
        return UnitGroup(self)

    def check_payload(self, payload):
        if payload == BOTTOM:
            return BOTTOM
        v, unit = payload
        if not isinstance(v, int) or not 0 <= v < self.V:
            raise MonoidError(f"valuation slot {v} out of range [0, {self.V})")
        unit = self.unit_ctx.normalize(unit)
        if self.unit_ctx.valuation(unit) != 0:
            raise MonoidError("unit slot is not a unit")
        return (v, unit)

    def identity_payload(self):
        return (0, self.unit_ctx.int_payload(1))

    def mul(self, a, b):
        """The residue ring's product: canonical lifts are u*pi^v, so (v, u)
        times (w, u') is (v + w, u*u'), BOTTOM from valuation V on."""
        if a == BOTTOM or b == BOTTOM:
            return BOTTOM
        v = a[0] + b[0]
        if v >= self.V:
            return BOTTOM
        return (v, self.unit_ctx.mul(a[1], b[1]))

    def quotient(self, b, a):
        """The class c with a*c = b, for classes a and b with v(b) >= v(a):
        valuation v(b) - v(a), and the unit whose exponent vector is
        dlog(b) - dlog(a) mod the invariant factors.  It stores nothing."""
        if a == BOTTOM or b == BOTTOM or b[0] < a[0]:
            raise MonoidError(f"{self.label(b)} is not a multiple of {self.label(a)}")
        g = self.unit_group
        return (b[0] - a[0], g.unit(map(operator.sub, g.dlog[b[1]], g.dlog[a[1]])))

    def payloads(self):
        """The registry, built on first use: a read-only keys view of a dict
        sending every class (v, u), valuation first, then BOTTOM, to itself,
        the same on every call.  Every structure over the monoid holds these
        objects; payloads().mapping[c] is the one equal to a tuple c."""
        if self._registry is None:
            classes = [(v, u) for v in range(self.V) for u in self.unit_payloads()] + [BOTTOM]
            self._registry = dict(zip(classes, classes)).keys()
        return self._registry

    @cached_property
    def classes(self) -> tuple:
        """The registry's objects without BOTTOM, in its order, which is sorted:
        valuation first, then unit_payloads(), which ascend.  Every ring over
        the monoid shares this one tuple as its elements."""
        return tuple(islice(self.payloads(), len(self.payloads()) - 1))

    @cached_property
    def unit_classes(self) -> tuple:
        """The classes of valuation 0, the head of classes, in its order;
        every ring over the monoid shares this one tuple as its units."""
        return self.classes[:len(self.unit_payloads())]

    def generators(self) -> list:
        """The class of pi (BOTTOM when V = 1), then (0, g) for each unit
        generator; every payload, BOTTOM included, is a product of these."""
        pi = self.class_of(self.ctx.uniformizer().payload)
        return [pi] + [(0, g) for g in self.unit_group.generators]

    def class_of(self, a):
        """Collapse a nonzero normalized payload of ctx to its truncation
        class: BOTTOM at valuation V or more, else the registry's object
        (payloads) for its valuation and unit part mod m^n.  It stores
        nothing, as a row asks for each sum's class once."""
        if self.ctx.is_zero(a):
            raise MonoidError("zero has no truncation class")
        v = self.ctx.valuation(a)
        if v >= self.V:
            return BOTTOM
        return self.payloads().mapping[v, self.unit_ctx.normalize(self.ctx.unit_part(a, v))]

    def canonical_lift(self, payload):
        """The fixed lift of a class (v, u): u * pi^v, a normalized payload
        of ctx.  A unit mod m^n is a payload of ctx too, so the lift is one
        product with pi^v from the monoid's table, formed on each call and
        kept by no one, as a memo would hold a lift per class for the
        monoid's life."""
        if payload == BOTTOM:
            raise MonoidError("BOTTOM has no canonical lift")
        v, unit = payload
        return self.ctx.mul(unit, self._pi_powers[v])

    def class_precisions(self, v: int, N: int) -> tuple:
        """Entry k is the pi-adic precision of degree-k coefficients of [a]
        for a class of valuation v, k = 0..N; built once per (v, N).

        The class pins a down only mod m^(v+n), and coefficient k of [a]
        moves like a degree-k polynomial in a, integer-valued in the Newton
        basis of fgl.lubin_tate._certify_rows, whose denominators D_i, i <=
        k, have valuation v_p(i!) in powers of pi; so it is pinned down mod
        m^(v + n - v_p(k!)).  Every comparison on the carrier compares
        degree k at this precision."""
        out = self._precisions.get((v, N))
        if out is None:
            p = self.ctx.p
            out = self._precisions[(v, N)] = tuple(
                max(0, v + self.n - padic_factorial_valuation(k, p))
                for k in range(N + 1)
            )
        return out

    def label(self, payload) -> str:
        if payload == BOTTOM:
            return "bot"
        v, unit = payload
        return f"{v}:{self.unit_ctx.fmt(unit).split(' + O')[0]}"

    def key(self):
        return ("padic_truncation", self.ctx.key(), self.n, self.V)

    def descriptor(self):
        return {
            "kind": "padic_truncation",
            "ring": self.ctx.descriptor(),
            "n": self.n,
            "V": self.V,
        }


def padic_factorial_valuation(n: int, p: int) -> int:
    """v_p(n!), by Legendre's formula."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


def truncation_size(q: int, n: int, V: int) -> int:
    """Classes: units mod m^n per valuation below V, plus BOTTOM."""
    return (q - 1) * q ** (n - 1) * V + 1


def padic_truncation_of(ctx: RingContext, n: int, V: int) -> PadicTruncationMonoid:
    """Truncation monoid of a local ring, with the element-count sanity check."""
    m = PadicTruncationMonoid(ctx, n, V)
    expected = truncation_size(ctx.p, n, V)  # q = p: extensions are totally ramified
    actual = len(m.unit_payloads()) * V + 1
    if actual != expected:
        raise MonoidError(f"element count {actual} != expected {expected}")
    return m


class RingSubsetMonoid(Monoid):
    """A finite window onto the multiplicative monoid of a ring.

    Holds an explicit element list (1 is always included); products may fall
    outside the window, so closure is not required and consumers must treat
    out-of-window products as unknown rather than absorbing.
    """

    def __init__(self, ctx: RingContext, payloads):
        self.ctx = ctx
        listed = [ctx.normalize(p) for p in payloads]
        one = ctx.int_payload(1)
        elements = {} if one in listed else {one: one}  # first occurrences, in order
        for p in listed:
            elements.setdefault(p, p)
        self._elements = elements.keys()

    def check_payload(self, payload):
        return self.ctx.normalize(payload)

    def identity_payload(self):
        return self.ctx.int_payload(1)

    def mul(self, a, b):
        return self.ctx.mul(a, b)

    def payloads(self):
        """The registry, as a truncation monoid keeps one."""
        return self._elements

    def canonical_lift(self, payload):
        """An element acts by itself: its lift is the payload."""
        return payload

    def label(self, payload) -> str:
        # the ring's own rendering, without its precision term or spaces
        return self.ctx.fmt(payload).split(" + O(")[0].replace(" + ", "+")

    def key(self):
        return ("subset", self.ctx.key(), tuple(self._elements))

    def descriptor(self):
        return {
            "kind": "ring_subset",
            "ring": self.ctx.descriptor(),
            "elements": [self.ctx.value_to_json(p) for p in self._elements],
        }


def monoid_from_descriptor(d: dict) -> Monoid:
    from .rings import context_from_descriptor

    kind = d["kind"]
    if kind == "free":
        return FreeCommutativeMonoid(tuple(d["generators"]))
    if kind == "trivial":
        return FreeCommutativeMonoid(())
    if kind == "presented":
        table = {
            (tuple(row["a"]), tuple(row["b"])): tuple(row["ab"]) for row in d["table"]
        }
        return FinitelyPresentedMonoid(
            tuple(d["generators"]), [tuple(p) for p in d["elements"]], table
        )
    if kind == "padic_truncation":
        return PadicTruncationMonoid(
            context_from_descriptor(d["ring"]), d["n"], d["V"]
        )
    if kind == "ring_subset":
        ctx = context_from_descriptor(d["ring"])
        return RingSubsetMonoid(ctx, [ctx.value_from_json(v) for v in d["elements"]])
    raise MonoidError(f"unknown monoid kind {d['kind']!r}")


# ---------------------------------------------------------------------------
# unit group structure


class UnitGroup:
    """Invariant-factor decomposition of (O/m^n)^*, computed exhaustively.

    factors is ascending with d_1 | d_2 | ... | d_r; generators[i] has exact
    order factors[i]; dlog sends each unit to its exponent vector (e_1, ...,
    e_r), 0 <= e_i < d_i, the unit being g_1^{e_1} ... g_r^{e_r}, and
    unit_of is its inverse.  Both hold the monoid's own unit objects
    (unit_payloads()), no copies.

    Orders come from cyclic walks: for each unit x with no order yet, x,
    x^2, ... up to 1, and with d the walk's length each x^j has order d /
    gcd(d, j).  A walk longer than |U|, or a d not dividing |U|, is not a
    group's, and raises MonoidError.

    One greedy pass builds all three.  Rank the units by (-order,
    sort_key).  S, the span of the picks so far, starts at {1}.  The next
    pick is the first ranked x with x^(d/ell) not in S for every prime ell
    | d, d = ord x: that is <x> meet S = 1, as x^(d/ell) generates the one
    subgroup of order ell of <x>.  S grows by x's powers, each exponent
    prepended, until it is the group.

    Each pick's d is the largest invariant factor not yet picked, and S
    stays a direct factor.  Say G = S x T, T's invariant factors being
    those not yet picked.  A unit x with <x> meet S = 1 maps injectively to
    G/S = T, so d <= exp T, and the first ranked such x has d = exp T, as
    T's largest generator is one.  Write x = s*t, s in S, t in T; t has
    order d too, and an element of largest order generates a direct factor
    (Lang, Algebra, I par. 8): T = <t> x C.  So S<x>C is all of G and has
    |S| * d * |C| = |G| elements, and S<x> is a direct factor with
    complement C.  So the reversed picks are the generators, each the
    smallest unit of exact order d whose span with the earlier picks stays
    direct.
    """

    def __init__(self, monoid: PadicTruncationMonoid):
        self.ctx = monoid.unit_ctx
        units = monoid.unit_payloads()
        self.size = len(units)
        one, mul = self.ctx.int_payload(1), self.ctx.mul
        order = {}
        for x in units:
            if x in order:
                continue
            walk = [x]
            while walk[-1] != one and len(walk) < self.size:
                walk.append(mul(walk[-1], x))
            d = len(walk)
            if walk[-1] != one or self.size % d:
                raise MonoidError(f"powers of {x} collided: not a group of order {self.size}")
            for j, y in enumerate(walk, 1):
                order[y] = d // math.gcd(d, j)
        primes = _primes(self.size)
        ranked = sorted(units, key=lambda u: (-order[u], self.ctx.sort_key(u)))
        span, picks = {one: ()}, []
        while len(span) < self.size:
            x = next((x for x in ranked if order[x] > 1 and all(
                self._pow(x, order[x] // ell) not in span
                for ell in primes if order[x] % ell == 0)), None)
            if x is None:
                raise MonoidError("no unit grows the span of the generators")
            grown, power = {}, one
            for e in range(order[x]):
                for u, exps in span.items():
                    key = mul(u, power)
                    if key in grown:
                        raise MonoidError("span enumeration collided; not a direct product")
                    grown[key] = (e,) + exps
                power = mul(power, x)
            span = grown
            picks.append(x)
        if len(span) != self.size:
            raise MonoidError("generators do not span the unit group")
        self.generators = picks[::-1]
        self.factors = [order[x] for x in self.generators]
        # keyed on the monoid's own units, so the span's products die here
        self.dlog = {u: span[u] for u in units}
        self.unit_of = {exps: u for u, exps in self.dlog.items()}

    def _pow(self, a, e: int):
        acc = self.ctx.int_payload(1)
        while e:
            if e & 1:
                acc = self.ctx.mul(acc, a)
            a, e = self.ctx.mul(a, a), e >> 1
        return acc

    def unit(self, exps):
        """The unit with exponent vector exps, read mod the invariant factors."""
        return self.unit_of[tuple(map(operator.mod, exps, self.factors))]


def _primes(n: int) -> tuple:
    """The primes dividing n, ascending."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return tuple(out + [n] if n > 1 else out)


# ---------------------------------------------------------------------------
# morphisms and generator-matched isomorphisms


class MonoidMorphism:
    """A multiplicative map on payloads.  Finite sources carry a full payload
    table, which the morphism owns: it is not copied, so a caller hands in
    a table it will not change.  Free sources may give generator images
    (name -> target payload)."""

    def __init__(self, source: Monoid, target: Monoid, table=None, gen_images=None):
        self.source = source
        self.target = target
        self.table = table
        self.gen_images = dict(gen_images) if gen_images is not None else None
        if self.table is None and self.gen_images is None:
            raise MonoidError("morphism needs a table or generator images")
        if self.table is None and not isinstance(source, FreeCommutativeMonoid):
            raise MonoidError("generator images need a free source")

    def apply(self, payload):
        """The image of a source payload; MonoidError outside the source."""
        payload = self.source.check_payload(payload)
        if self.table is None:
            acc = self.target.identity_payload()
            for gen in self.source.word(payload):
                # a generator's label is its name; targets multiply canonical payloads
                image = self.target.check_payload(self.gen_images[self.source.label(gen)])
                acc = self.target.mul(acc, image)
            return acc
        if payload not in self.table:
            raise MonoidError(f"{self.source.label(payload)} is not in the source")
        return self.table[payload]

    def verify(self) -> None:
        """Identity and multiplicativity: a finite source gets f(ab) =
        f(a)f(b) checked for every pair, a free one its generator images."""
        if self.table is not None:
            if self.apply(self.source.identity_payload()) != self.target.identity_payload():
                raise MonoidError("identity is not preserved")
            src, images = self.source, self.table
            for a, b in product(src.payloads(), repeat=2):
                if images[src.mul(a, b)] != self.target.mul(images[a], images[b]):
                    raise MonoidError(f"multiplicativity fails at ({src.label(a)}, "
                                      f"{src.label(b)})")
        else:
            for g in self.source.generators:
                if g not in self.gen_images:
                    raise MonoidError(f"no image for generator {g!r}")
                self.target.check_payload(self.gen_images[g])

    def inverse(self) -> "MonoidMorphism":
        if self.table is None:
            raise MonoidError("only table morphisms invert")
        inv = {b: a for a, b in self.table.items()}
        if len(inv) != len(self.table):
            raise MonoidError("morphism is not injective")
        if len(inv) != len(self.target.payloads()):
            raise MonoidError("morphism is not surjective")
        return MonoidMorphism(self.target, self.source, table=inv)


class TwistIsomorphism:
    """(v, u) -> (v, unit_2(t * dlog_1(u))) and BOTTOM -> BOTTOM between truncation
    monoids of equal caps and unit groups: t fixes the map, so it holds no table."""

    __slots__ = ("source", "target", "twist")

    def __init__(self, source: PadicTruncationMonoid, target: PadicTruncationMonoid, twist):
        self.source, self.target, self.twist = source, target, twist

    def apply(self, payload):
        """The target registry's object for a source class; only a unit
        missing from the source's dlog goes through check_payload."""
        if payload == BOTTOM:
            return BOTTOM
        v, u = payload
        dlog = self.source.unit_group.dlog
        if u not in dlog:
            v, u = self.source.check_payload(payload)
        unit = self.target.unit_group.unit(map(operator.mul, dlog[u], self.twist))
        image = self.target.payloads().mapping.get((v, unit))
        if image is None:
            raise MonoidError(f"{self.source.label(payload)} maps to no class of the target")
        return image

    def verify(self) -> None:
        """The source's relations, in ring arithmetic: pi's class goes to pi's, and
        each unit generator g_i to a unit whose d_i-th power is 1.  So the map on
        generators extends to a unique homomorphism, and it is apply, as dlog is a
        group isomorphism onto prod Z/d_i by UnitGroup's construction."""
        pi, *units = self.source.generators()
        if self.apply(pi) != self.target.generators()[0]:
            raise MonoidError("the class of pi does not go to the class of pi")
        G = self.target.unit_group
        for g, d in zip(units, G.factors):
            if G._pow(self.apply(g)[1], d) != G.ctx.int_payload(1):
                raise MonoidError(f"the image of {self.source.label(g)} has order "
                                  f"not dividing {d}")

    def inverse(self) -> "TwistIsomorphism":
        """The twist by t^-1 mod each invariant factor, the other way."""
        return TwistIsomorphism(self.target, self.source, tuple(
            pow(t, -1, d) for t, d in zip(self.twist, self.source.unit_group.factors)))


def build_monoid_isomorphism(m1: PadicTruncationMonoid, m2: PadicTruncationMonoid,
                             generator_powers: tuple | None = None) -> TwistIsomorphism:
    """Generator-matched isomorphism between two truncation monoids of equal
    valuation caps and unit-group invariant factors: the uniformizer class
    goes to the uniformizer class, and unit generators slot by slot, twisted
    by generator_powers (one exponent per invariant factor, coprime to it)."""
    if m1.V != m2.V:
        raise StructureMismatch(f"valuation caps differ: {m1.V} vs {m2.V}")
    factors = m1.unit_group.factors
    if factors != m2.unit_group.factors:
        raise StructureMismatch(f"unit groups differ: {factors} vs {m2.unit_group.factors}")
    twist = (1,) * len(factors) if generator_powers is None else tuple(generator_powers)
    if len(twist) != len(factors):
        raise StructureMismatch("one twist exponent per invariant factor")
    for t, d in zip(twist, factors):
        if math.gcd(t, d) != 1:
            raise StructureMismatch(f"twist {t} is not invertible mod {d}")
    return TwistIsomorphism(m1, m2, twist)


def unit_isomorphism_variants(m1: PadicTruncationMonoid, m2: PadicTruncationMonoid,
                              count: int = 3) -> list:
    """Up to count distinct generator-matched isomorphisms, the largest
    invariant factor's generator twisted by successive units."""
    if count < 1:
        raise MonoidError(f"need at least one variant, got {count}")
    factors = m1.unit_group.factors
    if not factors:
        return [build_monoid_isomorphism(m1, m2)]
    top, rest = factors[-1], (1,) * (len(factors) - 1)
    twists = [rest + (t,) for t in range(1, top) if math.gcd(t, top) == 1]
    return [build_monoid_isomorphism(m1, m2, twist) for twist in twists[:count]]
