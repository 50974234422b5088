"""Exact coefficient rings with canonical normal forms.

Every ring is a context object holding the modulus data; elements are thin
wrappers around a normalized payload.  Payloads are hashable (ints, Fractions,
tuples), so elements can key dicts and survive JSON round trips byte-stably.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction


class RingError(Exception):
    pass


class ContextMismatch(RingError):
    """Mixed elements of two different ring contexts."""


class NotAUnit(RingError):
    """Inversion of a non-invertible element."""


class NonIntegralElement(RingError):
    """A field-side value does not reduce into the integral ring."""


class UnsupportedOperation(RingError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


class RingElement:
    """One value of a fixed RingContext.  Arithmetic delegates to the context."""

    __slots__ = ("ctx", "payload")

    def __init__(self, ctx: RingContext, payload):
        self.ctx = ctx
        self.payload = payload

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.ctx.key() != self.ctx.key():
                raise ContextMismatch(f"{other.ctx} vs {self.ctx}")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        if isinstance(other, Fraction):
            return self.ctx.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ctx, self.ctx.add(self.payload, o.payload))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ctx, self.ctx.add(self.payload, self.ctx.neg(o.payload)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ctx, self.ctx.add(o.payload, self.ctx.neg(self.payload)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ctx, self.ctx.mul(self.payload, o.payload))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ctx, self.ctx.neg(self.payload))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise UnsupportedOperation("only non-negative integer powers")
        acc = self.ctx.one()
        base = self
        # square-and-multiply; exponents stay tiny in practice
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "RingElement":
        return RingElement(self.ctx, self.ctx.invert(self.payload))

    def is_zero(self) -> bool:
        return self.ctx.is_zero(self.payload)

    def valuation(self):
        return self.ctx.valuation(self.payload)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ctx.key() == other.ctx.key() and self.payload == other.payload

    def __hash__(self):
        return hash((self.ctx.key(), self.payload))

    def __str__(self):
        return self.ctx.fmt(self.payload)

    def __repr__(self):
        return f"<{self.ctx.short_name()}: {self.ctx.fmt(self.payload)}>"

    def to_json(self) -> dict:
        return {"ring": self.ctx.descriptor(), "value": self.ctx.value_to_json(self.payload)}


class RingContext:
    """Base interface: payload-level arithmetic plus canonical encodings."""

    def el(self, payload) -> RingElement:
        return RingElement(self, self.normalize(payload))

    def zero(self) -> RingElement:
        return self.from_int(0)

    def one(self) -> RingElement:
        return self.from_int(1)

    def from_int(self, n: int) -> RingElement:
        return RingElement(self, self.int_payload(n))

    def from_fraction(self, q) -> RingElement:
        q = Fraction(q)
        if q.denominator == 1:
            return self.from_int(q.numerator)
        num = self.int_payload(q.numerator)
        den = self.invert(self.int_payload(q.denominator))
        return RingElement(self, self.mul(num, den))

    # payload-level hooks implemented per kind
    def normalize(self, payload):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def int_payload(self, n: int):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def valuation(self, a):
        raise UnsupportedOperation(f"{self.short_name()} has no uniformizer valuation")

    def fmt(self, a) -> str:
        raise NotImplementedError

    def sort_key(self, a):
        """Deterministic total order on payloads, for tie-breaking."""
        raise NotImplementedError

    def key(self) -> tuple:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def value_to_json(self, a):
        raise NotImplementedError

    def value_from_json(self, v):
        raise NotImplementedError

    def short_name(self) -> str:
        return self.descriptor()["kind"]

    def __eq__(self, other):
        return isinstance(other, RingContext) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return self.short_name()


class IntegerRing(RingContext):
    """Plain integers."""

    def normalize(self, payload):
        if not isinstance(payload, int):
            raise RingError(f"integer payload expected, got {type(payload).__name__}")
        return payload

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if a in (1, -1):
            return a
        raise NotAUnit(f"{a} is not invertible over the integers")

    def int_payload(self, n: int):
        return n

    def is_zero(self, a) -> bool:
        return a == 0

    def fmt(self, a) -> str:
        return str(a)

    def sort_key(self, a):
        return (abs(a), -a)

    def key(self):
        return ("Z",)

    def descriptor(self):
        return {"kind": "integers"}

    def value_to_json(self, a):
        return str(a)

    def value_from_json(self, v):
        return int(v)


class RationalField(RingContext):
    """Exact rationals via Fraction."""

    def normalize(self, payload):
        return Fraction(payload)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if a == 0:
            raise NotAUnit("0 is not invertible")
        return 1 / a

    def int_payload(self, n: int):
        return Fraction(n)

    def is_zero(self, a) -> bool:
        return a == 0

    def fmt(self, a) -> str:
        return str(a)

    def sort_key(self, a):
        return (abs(a), -a)

    def key(self):
        return ("Q",)

    def descriptor(self):
        return {"kind": "rationals"}

    def value_to_json(self, a):
        return str(a)

    def value_from_json(self, v):
        return Fraction(v)


def _vp(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicRing(RingContext):
    """A p-adic integer ring O mod m^k with residue field F_p.  Each kind owns
    its residue rings (residue_ring(n), units()) and its exact fraction field:
    lift(a) into it, from_field(q) back (raises NonIntegralElement), and the
    uncapped field_valuation(q)."""

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise RingError(f"p = {p} is not prime")
        if k < 1:
            raise RingError("precision must be at least 1")
        self.p = p
        self.k = k


class PadicIntegers(PadicRing):
    """p-adic integers at fixed absolute precision: residues mod p^k.
    Unramified: the uniformizer is p and e = 1.  Fraction field: Q."""

    e = 1

    def __init__(self, p: int, k: int):
        super().__init__(p, k)
        self.modulus = p**k

    def normalize(self, payload):
        if isinstance(payload, Fraction):
            if payload.denominator % self.p == 0:
                raise NotAUnit(f"denominator {payload.denominator} is divisible by {self.p}")
            return payload.numerator * pow(payload.denominator, -1, self.modulus) % self.modulus
        if not isinstance(payload, int):
            raise RingError(f"integer payload expected, got {type(payload).__name__}")
        return payload % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def invert(self, a):
        if a % self.p == 0:
            raise NotAUnit(f"{a} has positive valuation in Z_{self.p}")
        return pow(a, -1, self.modulus)

    def int_payload(self, n: int):
        return n % self.modulus

    def is_zero(self, a) -> bool:
        return a == 0

    def uniformizer(self) -> RingElement:
        return self.el(self.p)

    def valuation(self, a):
        return math.inf if a == 0 else _vp(a, self.p)

    def unit_part(self, a: int, v: int) -> int:
        """Exact quotient a / p^v.  Caller owns the precision bookkeeping:
        the result is only trustworthy mod p^(k - v)."""
        q, r = divmod(a, self.p**v)
        if r:
            raise RingError(f"{a} is not divisible by {self.p}^{v}")
        return q

    def residue_ring(self, n: int) -> "PadicIntegers":
        return PadicIntegers(self.p, n)

    def units(self) -> list:
        return [a for a in range(1, self.modulus) if a % self.p]

    def fraction_field(self) -> "RationalField":
        return RationalField()

    def lift(self, a) -> Fraction:
        return Fraction(a)

    def from_field(self, q: Fraction) -> int:
        if q.denominator % self.p == 0:
            raise NonIntegralElement(f"{q} has denominator divisible by {self.p}")
        return self.normalize(q)

    def field_valuation(self, q: Fraction):
        if q == 0:
            return math.inf
        return _vp(q.numerator, self.p) - _vp(q.denominator, self.p)

    def fmt(self, a) -> str:
        return f"{a} + O({self.p}^{self.k})"

    def sort_key(self, a):
        return a

    def key(self):
        return ("Zp", self.p, self.k)

    def descriptor(self):
        return {"kind": "padic", "p": self.p, "precision": self.k}

    def value_to_json(self, a):
        return {"residue": str(a), "precision": self.k}

    def value_from_json(self, v):
        return int(v["residue"]) % self.modulus


def eisenstein_check(p: int, poly: tuple) -> None:
    """Monic, integer coefficients, Eisenstein at p."""
    if len(poly) < 2:
        raise RingError("extension polynomial must have degree at least 1")
    if poly[-1] != 1:
        raise RingError("extension polynomial must be monic")
    for c in poly[:-1]:
        if not isinstance(c, int):
            raise RingError("extension polynomial needs integer coefficients")
        if c % p != 0:
            raise RingError(f"coefficient {c} is not divisible by {p}")
    if poly[0] % (p * p) == 0:
        raise RingError(f"constant term {poly[0]} has valuation > 1 at {p}")


def _reduce_poly(poly: tuple, coeffs) -> tuple:
    # fold degrees >= e using pi^e = -(c_{e-1} pi^{e-1} + ... + c_0)
    e, work = len(poly) - 1, list(coeffs)
    for d in range(len(work) - 1, e - 1, -1):
        c = work[d]
        if c:
            for i in range(e):
                work[d - e + i] -= c * poly[i]
        work.pop()
    return tuple(work)


def _eisenstein_normalize(poly: tuple, coef_mod: tuple, payload) -> tuple:
    """EisensteinExtension.normalize: an int or a coefficient sequence,
    folded to e coefficients, each reduced mod its coefficient modulus."""
    coeffs = _reduce_poly(poly, (payload,) if isinstance(payload, int) else payload)
    return tuple(a % m for a, m in itertools.zip_longest(coeffs, coef_mod, fillvalue=0))


class EisensteinExtension(PadicRing):
    """Totally ramified extension O = Z_p[pi]/(E(pi)) at fixed precision.

    Precision k counts powers of the uniformizer pi, so elements are residues
    mod m^k.  Payload: tuple (a_0, ..., a_{e-1}) for sum a_i pi^i, with a_i a
    residue mod p^ceil((k - i) / e).  v(pi) = 1 and v(p) = e.  Fraction
    field: Q[pi]/(E), lifting each a_i to its integer representative.
    """

    def __init__(self, p: int, k: int, poly: tuple):
        super().__init__(p, k)
        poly = tuple(poly)
        eisenstein_check(p, poly)
        self.poly = poly
        self.e = len(poly) - 1
        # coefficient moduli: a_i lives mod p^coef_prec[i]
        self.coef_prec = tuple(max(0, -(-(k - i) // self.e)) for i in range(self.e))
        self.coef_mod = tuple(p**c for c in self.coef_prec)
        self._field = None
        if self.e == 2:
            (self.mul, self.add, self.neg, self.is_zero, self.valuation,
             self.normalize) = self._quadratic_forms()

    def _quadratic_forms(self) -> tuple:
        """Closed forms of mul, add, neg, is_zero, valuation and normalize
        for e = 2, where pi^2 = -(c1 pi + c0).  They agree with the generic
        methods below, which every other e uses."""
        p, k, poly = self.p, self.k, self.poly
        c0, c1 = poly[0], poly[1]
        m0, m1 = coef_mod = self.coef_mod

        def mul(a, b):
            a0, a1 = a
            b0, b1 = b
            t = a1 * b1
            return (a0 * b0 - t * c0) % m0, (a0 * b1 + a1 * b0 - t * c1) % m1

        def add(a, b):
            return (a[0] + b[0]) % m0, (a[1] + b[1]) % m1

        def neg(a):
            return -a[0] % m0, -a[1] % m1

        def is_zero(a):
            return a[0] == 0 and a[1] == 0

        def valuation(a):
            a0, a1 = a
            if a0 % p:
                return 0
            if not (a0 or a1):
                return math.inf
            v = k
            if a0:
                v = min(v, 2 * _vp(a0, p))
            if a1:
                v = min(v, 2 * _vp(a1, p) + 1)
            return v

        def normalize(payload):
            if type(payload) is tuple and len(payload) == 2:
                return payload[0] % m0, payload[1] % m1
            # the generic form without self: no ring refers to itself
            return _eisenstein_normalize(poly, coef_mod, payload)

        return mul, add, neg, is_zero, valuation, normalize

    def normalize(self, payload):
        return _eisenstein_normalize(self.poly, self.coef_mod, payload)

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.coef_mod))

    def neg(self, a):
        return tuple((-x) % m for x, m in zip(a, self.coef_mod))

    def mul(self, a, b):
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        red = _reduce_poly(self.poly, prod)
        return tuple(x % m for x, m in zip(red, self.coef_mod))

    def int_payload(self, n: int):
        return (n % self.coef_mod[0],) + (0,) * (self.e - 1)

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    def uniformizer(self) -> RingElement:
        return self.el((0, 1) + (0,) * (self.e - 2)) if self.e >= 2 else self.el((-self.poly[0],))

    def valuation(self, a):
        vs = [self.e * _vp(x, self.p) + i for i, x in enumerate(a) if x]
        return min(self.k, *vs) if vs else math.inf
    def invert(self, a):
        if self.valuation(a) != 0:
            raise NotAUnit(f"{self.fmt(a)} has positive valuation")
        # Newton iteration x -> x(2 - ax); doubles m-adic accuracy each round
        x = self.int_payload(pow(a[0], -1, self.p))
        two = self.int_payload(2)
        steps = max(1, self.k).bit_length() + 1
        for _ in range(steps):
            x = self.mul(x, self.add(two, self.neg(self.mul(a, x))))
        if self.mul(a, x) != self.int_payload(1):
            raise NotAUnit(f"inversion failed for {self.fmt(a)}")
        return x

    def shift_down(self, a) -> tuple:
        """Exact quotient a / pi on raw coefficients.

        Solves pi * u = a via the constant-term relation; requires v(a) >= 1.
        Top p-adic digits of the result are garbage, callers must reduce."""
        if a[0] % self.p:
            raise RingError("element has valuation 0, cannot divide by the uniformizer")
        w = self.poly[0] // self.p  # unit part of the constant term
        winv = pow(w, -1, self.p**self.k)
        top = (-(a[0] // self.p) * winv)
        u = [0] * self.e
        u[self.e - 1] = top
        for j in range(1, self.e):
            u[j - 1] = a[j] + top * self.poly[j]
        return tuple(u)

    def unit_part(self, a, v: int) -> tuple:
        """a / pi^v on raw coefficients; trustworthy mod m^(k - v) only."""
        cur = a
        for _ in range(v):
            cur = self.shift_down(cur)
        return cur

    def residue_ring(self, n: int) -> "EisensteinExtension":
        return EisensteinExtension(self.p, n, self.poly)

    def units(self) -> list:
        return [t for t in itertools.product(*map(range, self.coef_mod)) if t[0] % self.p]

    def fraction_field(self) -> "PolynomialQuotient":
        if self._field is None:
            ring = PolynomialQuotient(RationalField(), ("pi",))
            E = {(i,): c for i, c in enumerate(self.poly) if c}
            self._field = ring.with_ideal([E])
        return self._field

    def lift(self, a):
        return self.fraction_field().normalize({(i,): c for i, c in enumerate(a) if c})

    def from_field(self, q) -> tuple:
        coeffs = [Fraction(0)] * self.e
        for (i,), c in q:
            coeffs[i] = c
        out = []
        for i, (c, m) in enumerate(zip(coeffs, self.coef_mod)):
            if c.denominator % self.p == 0:
                raise NonIntegralElement(
                    f"pi^{i} coefficient {c} has denominator divisible by {self.p}"
                )
            out.append(c.numerator * pow(c.denominator, -1, m) % m)
        return tuple(out)

    def field_valuation(self, q):
        return min(
            (self.e * (_vp(c.numerator, self.p) - _vp(c.denominator, self.p)) + i
             for (i,), c in q),
            default=math.inf,
        )

    def fmt(self, a) -> str:
        parts = []
        for i, x in enumerate(a):
            if x == 0:
                continue
            if i == 0:
                parts.append(str(x))
            elif i == 1:
                parts.append(f"{x}*pi" if x != 1 else "pi")
            else:
                parts.append(f"{x}*pi^{i}" if x != 1 else f"pi^{i}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(pi^{self.k})"

    def sort_key(self, a):
        return a

    def key(self):
        return ("Eis", self.p, self.k, self.poly)

    def descriptor(self):
        return {
            "kind": "eisenstein",
            "p": self.p,
            "precision": self.k,
            "poly": [str(c) for c in self.poly],
        }

    def value_to_json(self, a):
        return {"coeffs": [str(x) for x in a], "precision": self.k}

    def value_from_json(self, v):
        return self.normalize(tuple(int(x) for x in v["coeffs"]))


def grlex_key(exp: tuple) -> tuple:
    return (sum(exp), exp)


class PolynomialQuotient(RingContext):
    """Multivariate polynomials over a base ring, reduced against a fixed
    generator list by plain multivariate division.

    Term order is degree-then-lexicographic on exponent tuples.  No Groebner
    completion happens: the generator list is used as given, so normal forms
    are canonical only for confluent generator sets (monoid relations, a
    single monic univariate modulus).  Payload: tuple of (exp, coeff payload)
    pairs, grlex-descending, zero coefficients dropped.
    """

    def __init__(self, base: RingContext, variables: tuple, ideal: tuple = ()):
        variables = tuple(variables)
        if not variables:
            raise RingError("need at least one variable")
        if len(set(variables)) != len(variables):
            raise RingError("variable names must be distinct")
        self.base = base
        self.variables = variables
        self.nvars = len(variables)
        self.ideal = tuple(ideal)
        for g in self.ideal:
            if not g:
                raise RingError("zero polynomial cannot be an ideal generator for reduction")
            lead_coeff = g[0][1]
            try:
                base.invert(lead_coeff)
            except NotAUnit:
                raise RingError(
                    "ideal generators must have unit leading coefficients for naive reduction"
                )

    def with_ideal(self, gens) -> "PolynomialQuotient":
        """Same ring, now reducing against the given elements of this ring."""
        payloads = []
        for g in gens:
            if isinstance(g, RingElement):
                if g.ctx.variables != self.variables or g.ctx.base.key() != self.base.key():
                    raise ContextMismatch("ideal generator from a different polynomial ring")
                payloads.append(g.payload)
            else:
                payloads.append(self.normalize(g))
        return PolynomialQuotient(self.base, self.variables, tuple(payloads))

    def var(self, name: str) -> RingElement:
        if name not in self.variables:
            raise RingError(f"unknown variable {name!r}")
        exp = tuple(1 if v == name else 0 for v in self.variables)
        return RingElement(self, ((exp, self.base.int_payload(1)),))

    def normalize(self, payload):
        if isinstance(payload, int):
            return self.int_payload(payload)
        if isinstance(payload, dict):
            items = payload.items()
        else:
            items = payload
        acc: dict = {}
        for exp, c in items:
            exp = tuple(exp)
            if len(exp) != self.nvars:
                raise RingError("exponent arity mismatch")
            c = self.base.normalize(c)
            if exp in acc:
                c = self.base.add(acc[exp], c)
            acc[exp] = c
        acc = {e: c for e, c in acc.items() if not self.base.is_zero(c)}
        if self.ideal:
            acc = self._divide(acc)
        return tuple(sorted(acc.items(), key=lambda t: grlex_key(t[0]), reverse=True))

    def _divide(self, termmap: dict) -> dict:
        """Multivariate division remainder against the ideal generators."""
        remainder: dict = {}
        work = dict(termmap)
        while work:
            exp = max(work, key=grlex_key)
            coeff = work.pop(exp)
            if self.base.is_zero(coeff):
                continue
            hit = None
            for g in self.ideal:
                lexp = g[0][0]
                if all(a >= b for a, b in zip(exp, lexp)):
                    hit = g
                    break
            if hit is None:
                if exp in remainder:
                    coeff = self.base.add(remainder[exp], coeff)
                remainder[exp] = coeff
                continue
            lexp, lc = hit[0]
            shift = tuple(a - b for a, b in zip(exp, lexp))
            factor = self.base.mul(coeff, self.base.invert(lc))
            nfactor = self.base.neg(factor)
            for gexp, gc in hit[1:]:
                tgt = tuple(a + b for a, b in zip(shift, gexp))
                add = self.base.mul(nfactor, gc)
                if tgt in work:
                    add = self.base.add(work[tgt], add)
                work[tgt] = add
        return {e: c for e, c in remainder.items() if not self.base.is_zero(c)}

    def add(self, a, b):
        # term union: every exponent was already irreducible, no re-division needed
        acc = dict(a)
        for exp, c in b:
            if exp in acc:
                s = self.base.add(acc[exp], c)
                if self.base.is_zero(s):
                    del acc[exp]
                else:
                    acc[exp] = s
            else:
                acc[exp] = c
        return tuple(sorted(acc.items(), key=lambda t: grlex_key(t[0]), reverse=True))

    def neg(self, a):
        return tuple((exp, self.base.neg(c)) for exp, c in a)

    def mul(self, a, b):
        acc: dict = {}
        for ea, ca in a:
            for eb, cb in b:
                exp = tuple(x + y for x, y in zip(ea, eb))
                c = self.base.mul(ca, cb)
                if exp in acc:
                    c = self.base.add(acc[exp], c)
                acc[exp] = c
        acc = {e: c for e, c in acc.items() if not self.base.is_zero(c)}
        if self.ideal:
            acc = self._divide(acc)
        return tuple(sorted(acc.items(), key=lambda t: grlex_key(t[0]), reverse=True))

    def int_payload(self, n: int):
        c = self.base.int_payload(n)
        if self.base.is_zero(c):
            return ()
        return (((0,) * self.nvars, c),)

    def is_zero(self, a) -> bool:
        return len(a) == 0

    def is_constant(self, a) -> bool:
        return len(a) == 0 or (len(a) == 1 and all(e == 0 for e in a[0][0]))

    def invert(self, a):
        if self.is_constant(a):
            if not a:
                raise NotAUnit("0 is not invertible")
            return self.constant_payload(self.base.invert(a[0][1]))
        if (
            self.nvars == 1
            and len(self.ideal) == 1
            and isinstance(self.base, RationalField)
        ):
            return self._invert_mod_univariate(a)
        raise NotAUnit(f"cannot invert {self.fmt(a)} in {self.short_name()}")

    def constant_payload(self, base_coeff):
        if self.base.is_zero(base_coeff):
            return ()
        return (((0,) * self.nvars, base_coeff),)

    def _invert_mod_univariate(self, a):
        """Extended Euclid in Q[t]/(m) for monic m; valid since Q[t] is a PID."""
        def to_list(payload):
            deg = max((e[0] for e, _ in payload), default=0)
            out = [Fraction(0)] * (deg + 1)
            for (d,), c in payload:
                out[d] = c
            return out

        def trim(v):
            while v and v[-1] == 0:
                v.pop()
            return v

        def poly_divmod(num, den):
            num = num[:]
            q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
            while len(num) >= len(den) and trim(num):
                shift = len(num) - len(den)
                factor = num[-1] / den[-1]
                q[shift] = factor
                for i, dc in enumerate(den):
                    num[shift + i] -= factor * dc
                trim(num)
            return trim(q), num

        m = to_list(self.ideal[0])
        f = to_list(a)
        # extended Euclid: r0 = m, r1 = f
        r0, r1 = m[:], f[:]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while trim(r1[:]):
            q, r = poly_divmod(r0, r1)
            # s_next = s0 - q*s1
            prod = [Fraction(0)] * (len(q) + len(s1))
            for i, qc in enumerate(q):
                for j, sc in enumerate(s1):
                    prod[i + j] += qc * sc
            s_next = [Fraction(0)] * max(len(s0), len(prod))
            for i, c in enumerate(s0):
                s_next[i] += c
            for i, c in enumerate(prod):
                s_next[i] -= c
            r0, r1 = r1, trim(r)
            s0, s1 = s1, trim(s_next)
        r0 = trim(r0)
        if len(r0) != 1:
            raise NotAUnit("element shares a factor with the modulus")
        lead = r0[0]
        inv_payload = tuple(((d,), c / lead) for d, c in enumerate(s0) if c != 0)
        return self.normalize(inv_payload)

    def fmt(self, a) -> str:
        if not a:
            return "0"
        parts = []
        for exp, c in a:
            factors = []
            for name, e in zip(self.variables, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cs = self.base.fmt(c)
            if factors:
                if cs == "1":
                    parts.append("*".join(factors))
                elif cs == "-1":
                    parts.append("-" + "*".join(factors))
                else:
                    wrapped = f"({cs})" if ("+" in cs or (" " in cs) or ("-" in cs[1:])) else cs
                    parts.append(wrapped + "*" + "*".join(factors))
            else:
                parts.append(f"({cs})" if "+" in cs else cs)
        return " + ".join(parts).replace("+ -", "- ")

    def sort_key(self, a):
        return tuple((grlex_key(e), self.base.sort_key(c)) for e, c in a)

    def key(self):
        return ("Poly", self.base.key(), self.variables, self.ideal)

    def descriptor(self):
        return {
            "kind": "poly_quotient",
            "base": self.base.descriptor(),
            "variables": list(self.variables),
            "ideal": [self.value_to_json(g) for g in self.ideal],
        }

    def value_to_json(self, a):
        return [
            {"exp": list(exp), "coeff": self.base.value_to_json(c)}
            for exp, c in sorted(a, key=lambda t: grlex_key(t[0]))
        ]

    def value_from_json(self, v):
        return self.normalize(
            [(tuple(t["exp"]), self.base.value_from_json(t["coeff"])) for t in v]
        )


def context_from_descriptor(d: dict) -> RingContext:
    kind = d["kind"]
    if kind == "integers":
        return IntegerRing()
    if kind == "rationals":
        return RationalField()
    if kind == "padic":
        return PadicIntegers(d["p"], d["precision"])
    if kind == "eisenstein":
        return EisensteinExtension(d["p"], d["precision"], tuple(int(c) for c in d["poly"]))
    if kind == "poly_quotient":
        base = context_from_descriptor(d["base"])
        free = PolynomialQuotient(base, tuple(d["variables"]))
        if not d.get("ideal"):
            return free
        gens = [free.value_from_json(g) for g in d["ideal"]]
        return PolynomialQuotient(base, tuple(d["variables"]), tuple(gens))
    raise RingError(f"unknown ring kind {kind!r}")
