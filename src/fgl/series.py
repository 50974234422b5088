"""Truncated multivariate power series over an exact ring context.

A series keeps every term of total degree <= trunc_degree and forgets the
rest; all operations re-truncate so the invariant holds by construction.
Terms are a read-only mapping (types.MappingProxyType) from exponent tuples
to nonzero coefficient payloads of the ring context, fixed when the series
is built: every constructor fills a local dict and wraps it once, and a
read-only mapping is shared as it is, never copied or wrapped again.  So a
series never changes, and a memo on it cannot go stale.  One to three
variables is all the formal group machinery needs, and substitution only
accepts zero-constant-term arguments so that composition commutes with
truncation.

There is one kernel.  _pair_products is the only loop over pairs of terms;
multiplication calls it directly and composition calls it through
composed_terms(assignments), the one composition loop, which checks its
inputs, reads each power table only as deep as the outer series reaches
and drops zero payloads.  paired_terms(h, N) is its one-variable-pair
form, G(h(x), h(y)) for a two-variable G: h(x)^i * h(y)^j has one product
per term, so it reads h's own table with no pair loop and no moved copy,
forming the products composed_terms would, in the same grouping, after the
same refusals (_target).  substitute builds a series from its terms; a law
check, a recovered sum and an action's pair checks instead hold the term
dicts of an identity's two sides and compare them, first_difference for
the first failing term or differences for all of them, so no composed or
difference series is built.  powers() is the only code that builds a power
table [None, s, s^2, ...], and it memoizes the table on the series itself,
s^1 sharing s's terms; no composition reads s^0, so no table holds one.
Composition, reversion, inversion and integer powers all read the table
there, so every composition into one series shares one table and no caller
keeps a copy.  moved() carries a series' table onto other variables, so
F(y, z) and F(x, y) read the table of F.  The one other memo on a series
is fgl.laws.scalar_table's, on a logarithm.

Over Q the kernel runs on integers wherever products add up, as FLINT's
fmpq_poly does: each operand is cleared once into integer numerators over
the lcm of its denominators, the pair loop multiplies and adds ints, and
each output coefficient becomes one Fraction.  A product with a one-term
factor, or a composition that substitutes only monomials, adds nothing up
and stays on Fractions, as every other ring stays on its payloads; outside
the kernel, payloads over Q are Fractions as everywhere else.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm, prod
from types import MappingProxyType
from typing import NamedTuple

from .rings import RationalField, RingContext, RingElement, RingError, grlex_key


class SeriesError(RingError):
    pass


# ea + eb by width (one to three variables), far cheaper than tuple(map(...))
_ADD_EXPONENTS = (None, lambda a, b: (a[0] + b[0],),
                  lambda a, b: (a[0] + b[0], a[1] + b[1]),
                  lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]))


def _pair_products(N: int, a: dict, b: dict, mul, add) -> dict:
    """The truncated product of two term dicts: the sum of mul(a[ea], b[eb])
    at ea + eb over every pair of terms whose total degree stays <= N, zeros
    not yet dropped.  This is the only loop over pairs of terms; b is
    bucketed by degree so pairs past N are never formed."""
    by_degree: list = [[] for _ in range(N + 1)]
    for eb, cb in b.items():
        d = sum(eb)
        if d <= N:
            by_degree[d].append((eb, cb))
    plus = _ADD_EXPONENTS[len(next(iter(b), ()))]
    acc: dict = {}
    for ea, ca in a.items():
        for bucket in by_degree[:max(0, N + 1 - sum(ea))]:
            for eb, cb in bucket:
                e = plus(ea, eb)
                c = mul(ca, cb)
                acc[e] = add(acc[e], c) if e in acc else c
    return acc


class _Cleared(NamedTuple):
    """Rational terms as integer numerators over one denominator d; like a
    series it keeps them in .terms, so the composition loop reads either."""
    terms: dict
    d: int


def _cleared(terms: dict) -> _Cleared:
    """terms over d, the lcm of their denominators."""
    ratios = [c.as_integer_ratio() for c in terms.values()]
    d = lcm(*[q for _, q in ratios])
    return _Cleared({e: p * (d // q) for e, (p, q) in zip(terms, ratios)}, d)


def differences(ctx: RingContext, terms: dict, target: dict) -> list:
    """The nonzero terms (exponent, delta) of terms - target, two term dicts
    over ctx, in no particular order.  A missing term is zero, and either
    dict may hold zero payloads."""
    add, neg, is_zero = ctx.add, ctx.neg, ctx.is_zero
    out = []
    for exp, a in terms.items():
        b = target.get(exp)
        if a != b:
            delta = a if b is None else add(a, neg(b))
            if not is_zero(delta):
                out.append((exp, delta))
    out += [(exp, neg(b)) for exp, b in target.items()
            if exp not in terms and not is_zero(b)]
    return out


def first_difference(ctx: RingContext, terms: dict, target: dict,
                     precisions: tuple | None = None) -> tuple | None:
    """The first (exponent, formatted delta) in graded-lex order of
    differences(ctx, terms, target); None where the dicts agree.  With
    precisions, total degree k only needs to agree mod pi^precisions[k]
    (PadicTruncationMonoid.class_precisions)."""
    if terms == target:
        return None
    failing = differences(ctx, terms, target)
    if precisions is not None:
        valuation = ctx.valuation
        failing = [(exp, delta) for exp, delta in failing
                   if valuation(delta) < precisions[sum(exp)]]
    if not failing:
        return None
    exp, delta = min(failing, key=lambda t: grlex_key(t[0]))
    return exp, ctx.fmt(delta)


class TruncatedSeries:
    __slots__ = ("ctx", "variables", "trunc_degree", "terms", "_powers", "_scalar_table")

    def __init__(self, ctx: RingContext, variables, trunc_degree: int, terms=None):
        variables = tuple(variables)
        if not 1 <= len(variables) <= 3:
            raise SeriesError("series support one to three variables")
        if len(set(variables)) != len(variables):
            raise SeriesError("variable names must be distinct")
        if trunc_degree < 0:
            raise SeriesError("truncation degree must be non-negative")
        out: dict = {}
        for exp, c in (terms.items() if hasattr(terms, "items") else terms or ()):
            exp = tuple(exp)
            if len(exp) != len(variables):
                raise SeriesError("exponent arity mismatch")
            if any(e < 0 for e in exp):
                raise SeriesError("negative exponent")
            if sum(exp) <= trunc_degree:
                c = ctx.normalize(c.payload if isinstance(c, RingElement) else c)
                out[exp] = ctx.add(out[exp], c) if exp in out else c
        self.ctx = ctx
        self.variables = variables
        self.trunc_degree = trunc_degree
        self.terms = MappingProxyType({e: c for e, c in out.items() if not ctx.is_zero(c)})
        self._powers = self._scalar_table = None

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ctx, variables, trunc_degree):
        return cls(ctx, variables, trunc_degree)

    @classmethod
    def constant(cls, ctx, variables, trunc_degree, value):
        return cls(ctx, variables, trunc_degree, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, ctx, variables, trunc_degree, name):
        variables = tuple(variables)
        if name not in variables:
            raise SeriesError(f"unknown variable {name!r}")
        return cls(ctx, variables, trunc_degree,
                   {tuple(1 if v == name else 0 for v in variables): 1})

    def _fresh(self, terms=None) -> "TruncatedSeries":
        """A series over this one's ring, variables and degree holding terms,
        which the caller vouches for: normalized, nonzero and within the
        degree, in a dict it no longer writes or a read-only mapping, which
        is shared.  Kernel results are built here without __init__'s
        checks."""
        s = object.__new__(TruncatedSeries)
        s.ctx, s.variables, s.trunc_degree = self.ctx, self.variables, self.trunc_degree
        s.terms = terms if type(terms) is MappingProxyType else MappingProxyType(terms or {})
        s._powers = s._scalar_table = None
        return s

    def _check_compatible(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise SeriesError("expected a TruncatedSeries")
        if self.ctx.key() != other.ctx.key():
            raise SeriesError("series over different rings")
        if self.variables != other.variables:
            raise SeriesError(f"variable mismatch: {self.variables} vs {other.variables}")
        if self.trunc_degree != other.trunc_degree:
            raise SeriesError("truncation degrees differ")

    # ---- inspection ---------------------------------------------------

    def coefficient(self, exp) -> RingElement:
        exp = tuple(exp)
        return RingElement(self.ctx, self.terms.get(exp, self.ctx.normalize(0)))

    def constant_term(self) -> RingElement:
        return self.coefficient((0,) * len(self.variables))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.ctx.key() == other.ctx.key()
            and self.variables == other.variables
            and self.trunc_degree == other.trunc_degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx.key(), self.variables, self.trunc_degree,
                     tuple(self.sorted_terms())))

    # ---- ring operations ----------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        ctx = self.ctx
        acc = self.terms.copy()
        for exp, c in other.terms.items():
            acc[exp] = ctx.add(acc[exp], c) if exp in acc else c
        return self._fresh({e: c for e, c in acc.items() if not ctx.is_zero(c)})

    def __neg__(self):
        ctx = self.ctx
        return self._fresh({e: ctx.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, RingElement)):
            return self.scale(other)
        self._check_compatible(other)
        ctx, N = self.ctx, self.trunc_degree
        # integers pay where products add up; a one-term factor only rescales
        if type(ctx) is RationalField and min(len(self.terms), len(other.terms)) > 1:
            a, b = _cleared(self.terms), _cleared(other.terms)
            acc = _pair_products(N, a.terms, b.terms, operator.mul, operator.add)
            d = a.d * b.d
            return self._fresh({e: Fraction(v, d) for e, v in acc.items() if v})
        acc = _pair_products(N, self.terms, other.terms, ctx.mul, ctx.add)
        return self._fresh({e: c for e, c in acc.items() if not ctx.is_zero(c)})

    __rmul__ = __mul__

    def scale(self, value) -> "TruncatedSeries":
        ctx = self.ctx
        payload = value.payload if isinstance(value, RingElement) else ctx.normalize(value)
        mul, is_zero = ctx.mul, ctx.is_zero
        return self._fresh({e: p for e, c in self.terms.items()
                            if not is_zero(p := mul(payload, c))})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise SeriesError("only non-negative integer powers")
        if n == 0:
            return TruncatedSeries.constant(self.ctx, self.variables, self.trunc_degree, 1)
        return self.powers(n)[n]

    def powers(self, top: int) -> list:
        """The power table [None, s, s^2, ..., s^top], each power the
        previous one times s, memoized on the series and extended on
        demand; s^1 shares s's terms, and no composition reads s^0, so the
        table holds none.  The list is shared with every caller, and is the
        memo itself when it holds exactly top + 1 entries, so treat it as
        read-only."""
        table = self._powers
        if table is None:
            table = self._powers = [None, self._fresh(self.terms)]
        while len(table) <= top:
            table.append(table[-1] * self)
        return table if len(table) == top + 1 else table[:top + 1]

    def moved(self, model: "TruncatedSeries", positions, top: int = 0) -> "TruncatedSeries":
        """This series where model lives, to model's degree N, with its k-th
        variable moved to model's positions[k]-th.  With top >= 2 its power
        table up to top comes along, so compositions into the moved series
        read this series' memoized table; above this series' own degree its
        powers are unknown, and the moved series builds its own."""
        N, width = model.trunc_degree, len(model.variables)

        def move(terms):
            out = {}
            for exp, c in terms.items():
                if sum(exp) <= N:
                    e = [0] * width
                    for pos, k in zip(positions, exp):
                        e[pos] = k
                    out[tuple(e)] = c
            return out

        s = model._fresh(move(self.terms))
        if top > 1 and N <= self.trunc_degree:  # [None, s] holds no product
            s._powers = [None] + [model._fresh(move(t.terms))
                                  for t in self.powers(top)[1:]]
        return s

    def truncate(self, new_degree: int) -> "TruncatedSeries":
        if new_degree > self.trunc_degree:
            raise SeriesError("cannot raise the truncation degree of computed data")
        return TruncatedSeries(self.ctx, self.variables, new_degree, self.terms)

    def map_coefficients(self, fn, new_ctx=None) -> "TruncatedSeries":
        """Apply a payload map coefficient-wise, optionally into another ring."""
        return TruncatedSeries(new_ctx or self.ctx, self.variables, self.trunc_degree,
                               [(exp, fn(c)) for exp, c in self.terms.items()])

    def rename(self, new_variables) -> "TruncatedSeries":
        """Same terms, different variable names (arity must match)."""
        new_variables = tuple(new_variables)
        if len(new_variables) != len(self.variables):
            raise SeriesError("arity change needs embed, not rename")
        return TruncatedSeries(self.ctx, new_variables, self.trunc_degree, self.terms)

    def embed(self, new_variables) -> "TruncatedSeries":
        """View this series inside a superset variable list, matching by name."""
        new_variables = tuple(new_variables)
        for v in self.variables:
            if v not in new_variables:
                raise SeriesError(f"variable {v!r} missing from target list")
        model = TruncatedSeries(self.ctx, new_variables, self.trunc_degree)
        return self.moved(model, [new_variables.index(v) for v in self.variables])

    # ---- calculus ------------------------------------------------------

    def derivative(self, name: str) -> "TruncatedSeries":
        """Formal partial derivative; the result is still carried at the same
        truncation degree (its top slice is genuinely known)."""
        if name not in self.variables:
            raise SeriesError(f"unknown variable {name!r}")
        idx = self.variables.index(name)
        ctx = self.ctx
        out = {}
        for exp, c in self.terms.items():  # lowering one slot is injective
            e = exp[idx]
            if e and not ctx.is_zero(p := ctx.mul(ctx.normalize(e), c)):
                out[exp[:idx] + (e - 1,) + exp[idx + 1:]] = p
        return self._fresh(out)

    # ---- composition ----------------------------------------------------

    def substitute(self, assignments: dict) -> "TruncatedSeries":
        """Plug a series in for each used variable: composed_terms as a
        series where the assigned series live, or this series as it is
        where it uses no variable and is assigned none."""
        terms = self.composed_terms(assignments)
        model = next((assignments[v] for v in self.variables if v in assignments), self)
        return model._fresh(terms)

    def top_exponents(self, N: int) -> list:
        """The largest exponent of each variable over the terms of degree
        <= N: how far a composition at degree N reads each power table."""
        low = [exp for exp in self.terms if sum(exp) <= N]
        return list(map(max, zip(*low))) if low else [0] * len(self.variables)

    def _target(self, assignments: dict):
        """The first series assigned to one of self's variables, or None
        where none is, once the refusals every composition shares have
        passed, in this order: a used variable with no assignment, assigned
        series that differ in ring, variables or degree, assignments over
        another ring than self, and a used variable's series with a nonzero
        constant term.  Used variables are taken in variable order, so a
        refusal names the same variable every run."""
        reach = map(max, zip(*self.terms)) if self.terms else ()
        used = [v for v, top in zip(self.variables, reach) if top]
        missing = [v for v in used if v not in assignments]
        if missing:
            raise SeriesError(f"missing assignment for used variable {missing[0]!r}")
        targets = [assignments[v] for v in self.variables if v in assignments]
        if not targets:
            return None
        model = targets[0]
        for t in targets[1:]:
            model._check_compatible(t)
        if model.ctx.key() != self.ctx.key():
            raise SeriesError("substitution targets live over a different ring")
        zero_exp = (0,) * len(model.variables)
        for v in used:
            if zero_exp in assignments[v].terms:  # terms hold no zeros
                raise SeriesError(f"assignment for {v!r} has a nonzero constant term")
        return model

    def composed_terms(self, assignments: dict) -> dict:
        """The nonzero terms of self with each used variable replaced by the
        series assigned to it, at their common degree N: the one
        composition loop.  A series that uses no variable and is assigned
        none keeps its own terms.

        All assigned series must live over self's ring, in one common
        variable list and truncation degree, and have zero constant term
        (_target); that makes the degree-N result depend only on degree-N
        data on both sides.  Each table is read from its series' memo only
        as deep as top_exponents(N), and each term c * x^i * y^j ... adds c
        times the product of the table entries, the product formed by
        _pair_products.

        Over Q, unless every substituted series is a monomial, each table
        entry read is cleared once and each term's coefficient is scaled to
        L, the lcm of its piece's denominators, so the loop sums integers
        and each output is one Fraction."""
        model = self._target(assignments)
        if model is None:
            return self.terms
        zero_exp = (0,) * len(model.variables)
        ctx, N = model.ctx, model.trunc_degree
        tables = [assignments[v].powers(top) if top else None
                  for v, top in zip(self.variables, self.top_exponents(N))]
        terms, mul, add = self.terms, ctx.mul, ctx.add
        over_q = type(ctx) is RationalField and any(
            t and len(t[1].terms) > 1 for t in tables)
        if over_q:
            terms, dc = _cleared({x: c for x, c in terms.items() if sum(x) <= N})
            tables = [{e: _cleared(t[e].terms) for e in {x[k] for x in terms} if e}
                      for k, t in enumerate(tables)]
            dens = {x: prod(t[e].d for t, e in zip(tables, x) if e) for x in terms}
            L = lcm(*dens.values())
            terms = {x: c * (L // dens[x]) for x, c in terms.items()}
            mul, add = operator.mul, operator.add
        acc: dict = {}
        for exp, c in terms.items():
            if sum(exp) > N:
                continue  # lands beyond N
            piece = None
            for table, e in zip(tables, exp):
                if e:
                    f = table[e].terms
                    piece = f if piece is None else _pair_products(N, piece, f, mul, add)
            if piece is None:
                acc[zero_exp] = add(acc[zero_exp], c) if zero_exp in acc else c
                continue
            for e, v in piece.items():
                v = mul(c, v)
                acc[e] = add(acc[e], v) if e in acc else v
        if over_q:
            return {e: Fraction(v, dc * L) for e, v in acc.items() if v}
        is_zero = ctx.is_zero
        return {e: v for e, v in acc.items() if not is_zero(v)}

    def paired_terms(self, h: "TruncatedSeries", N: int) -> dict:
        """The nonzero terms of self(h(x), h(y)) at degree N, for a
        two-variable self and a one-variable h, after composed_terms'
        refusals (_target).  h(x)^i * h(y)^j has one product per term, so
        the term at (a, b) sums c * (u * v) over self's terms c * x^i * y^j,
        u and v the T^a and T^b coefficients of h^i and h^j: the products,
        in the grouping, that composed_terms forms over h's table moved onto
        x and y, read off h's own memoized table instead.  Above its own
        degree h's powers are unknown, so an h below N is taken as the
        polynomial it holds, as moved takes it.  Over Q the loop sums
        integers over one denominator, as composed_terms' does."""
        if len(self.variables) != 2:
            raise SeriesError("a paired composition needs a two-variable series")
        self._target(dict.fromkeys(self.variables, h))
        if h.trunc_degree < N:
            h = TruncatedSeries(h.ctx, h.variables, N, h.terms)
        ctx = self.ctx
        terms = {x: c for x, c in self.terms.items() if sum(x) <= N}
        table = h.powers(max(self.top_exponents(N)))
        rows = {e: {a: c for (a,), c in table[e].terms.items() if a <= N}
                for e in {e for x in terms for e in x if e}}
        mul, add = ctx.mul, ctx.add
        over_q = type(ctx) is RationalField and len(h.terms) > 1
        if over_q:
            terms, dc = _cleared(terms)
            rows = {e: _cleared(row) for e, row in rows.items()}
            dens = {x: prod(rows[e].d for e in x if e) for x in terms}
            L = lcm(*dens.values())
            terms = {x: c * (L // dens[x]) for x, c in terms.items()}
            rows = {e: row.terms for e, row in rows.items()}
            mul, add = operator.mul, operator.add
        rows = {e: sorted(row.items()) for e, row in rows.items()}
        acc: dict = {}
        for (i, j), c in terms.items():
            if i and j:
                right = rows[j]
                for a, u in rows[i]:
                    room = N - a
                    for b, w in right:
                        if b > room:
                            break
                        v = mul(c, mul(u, w))
                        acc[a, b] = add(acc[a, b], v) if (a, b) in acc else v
            elif i or j:
                for a, u in rows[i or j]:
                    e = (a, 0) if i else (0, a)
                    v = mul(c, u)
                    acc[e] = add(acc[e], v) if e in acc else v
            else:
                acc[0, 0] = add(acc[0, 0], c) if (0, 0) in acc else c
        if over_q:
            return {e: Fraction(v, dc * L) for e, v in acc.items() if v}
        is_zero = ctx.is_zero
        return {e: v for e, v in acc.items() if not is_zero(v)}

    def substitute_single(self, target: "TruncatedSeries") -> "TruncatedSeries":
        """Composition for one-variable series: self(target)."""
        if len(self.variables) != 1:
            raise SeriesError("substitute_single needs a one-variable series")
        return self.substitute({self.variables[0]: target})

    def compositional_inverse(self) -> "TruncatedSeries":
        """The reversion g with g(f(T)) = T = f(g(T)) mod degree N+1.

        Triangular solve: the degree-n coefficient of g(f(T)) is
        b_n * a_1^n plus terms using only b_k for k < n, so each b_n is
        determined by one division by a_1^n.
        """
        if len(self.variables) != 1:
            raise SeriesError("compositional inverse needs a one-variable series")
        if (0,) in self.terms:  # terms hold no zeros
            raise SeriesError("compositional inverse needs zero constant term")
        ctx = self.ctx
        N = self.trunc_degree
        a1 = self.coefficient((1,))
        a1_inv = a1.inverse()
        g = {(1,): a1_inv.payload}
        table = self.powers(N)
        a1_inv_pow = a1_inv
        for n in range(2, N + 1):
            a1_inv_pow = a1_inv_pow * a1_inv
            acc = ctx.normalize(0)
            for k in range(1, n):
                bk = g.get((k,))
                if bk is None:
                    continue
                ck = table[k].terms.get((n,))
                if ck is None:
                    continue
                acc = ctx.add(acc, ctx.mul(bk, ck))
            if not ctx.is_zero(acc):
                g[(n,)] = ctx.mul(ctx.neg(acc), a1_inv_pow.payload)
        g = self._fresh(g)
        ident = TruncatedSeries.variable(ctx, self.variables, N, self.variables[0])
        if g.substitute_single(self) != ident:
            raise SeriesError("reversion failed to verify; coefficient ring too lossy?")
        return g

    def multiplicative_inverse(self) -> "TruncatedSeries":
        """1/f for f with unit constant term c0.  u = 1 - f/c0 has zero
        constant term, so 1/f = (1 + u + u^2 + ... + u^N)/c0 exactly."""
        c0_inv = self.constant_term().inverse()
        one = TruncatedSeries.constant(self.ctx, self.variables, self.trunc_degree, 1)
        table = (one - self.scale(c0_inv)).powers(self.trunc_degree)
        inv = sum(table[1:], one).scale(c0_inv)
        if self * inv != one:
            raise SeriesError("series inversion failed to verify")
        return inv

    # ---- encoding -------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        # earlier variables first within a degree, so x + y rather than y + x
        display = sorted(self.terms.items(),
                         key=lambda t: (sum(t[0]), tuple(-e for e in t[0])))
        for exp, c in display:
            mono = []
            for name, e in zip(self.variables, exp):
                if e == 1:
                    mono.append(name)
                elif e > 1:
                    mono.append(f"{name}^{e}")
            cs = self.ctx.fmt(c)
            body = "*".join(mono)
            if not body:
                parts.append(cs)
            elif cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append(f"-{body}")
            else:
                needs_wrap = ("+" in cs) or ("-" in cs[1:]) or (" " in cs)
                parts.append((f"({cs})" if needs_wrap else cs) + "*" + body)
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        return {
            "ring": self.ctx.descriptor(),
            "vars": list(self.variables),
            "N": self.trunc_degree,
            "terms": [
                {"exp": list(exp), "coeff": self.ctx.value_to_json(c)}
                for exp, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict, ctx: RingContext | None = None) -> "TruncatedSeries":
        from .rings import context_from_descriptor

        if ctx is None:
            ctx = context_from_descriptor(obj["ring"])
        return cls(ctx, obj["vars"], obj["N"],
                   [(t["exp"], ctx.value_from_json(t["coeff"])) for t in obj["terms"]])
