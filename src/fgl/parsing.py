"""Small expression grammar for series and polynomial input.

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' INT)?
    atom   := NUMBER | NAME | '(' expr ')'
    NUMBER := INT ('/' INT)?

Coefficients are integers or fractions; names come from a caller-supplied
table, so the same parser covers one-variable series in T, two-variable laws
in x and y, pi as the uniformizer constant, and integer polynomials in t.
Every error carries the character position it was raised at.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rings import RingContext, RingError
from .series import TruncatedSeries


class ParseError(RingError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


_SYMBOLS = "+-*^/()"


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list; values are dicts mapping
    exponent tuples to Fraction coefficients, exponents running over the
    name table's order.

    Given a degree, products drop every term whose exponents over the first
    graded names sum past it.  That is exact for the terms kept: exponents
    are never negative, so a dropped term only ever feeds terms past the
    degree."""

    def __init__(self, text: str, names: tuple, degree: float = math.inf,
                 graded: int = 0):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = names
        self.width = len(names)
        self.degree = degree
        self.graded = graded

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[0]}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> dict:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[0]}", tok[2])
        return value

    def expr(self) -> dict:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            for exp, c in rhs.items():
                c = c if op == "+" else -c
                value[exp] = value.get(exp, Fraction(0)) + c
        return {e: c for e, c in value.items() if c}

    def term(self) -> dict:
        value = self.factor()
        while self.peek()[0] == "*":
            self.take()
            value = self._mul(value, self.factor())
        return value

    def factor(self) -> dict:
        if self.peek()[0] == "-":
            self.take()
            return {e: -c for e, c in self.factor().items()}
        value = self.atom()
        if self.peek()[0] == "^":
            self.take()
            e = self.take("int")[1]  # an int token has no sign
            # square-and-multiply: about 2*log2(e) products, not e
            out = {(0,) * self.width: Fraction(1)}
            while e:
                if e & 1:
                    out = self._mul(out, value)
                e >>= 1
                if e:
                    value = self._mul(value, value)
            return out
        return value

    def atom(self) -> dict:
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            num = tok[1]
            if self.peek()[0] == "/":
                slash = self.take()
                den = self.take("int")
                if den[1] == 0:
                    raise ParseError("zero denominator", slash[2])
                return {(0,) * self.width: Fraction(num, den[1])}
            return {(0,) * self.width: Fraction(num)}
        if tok[0] == "name":
            self.take()
            if tok[1] not in self.names:
                raise ParseError(f"unknown name {tok[1]!r}", tok[2])
            idx = self.names.index(tok[1])
            exp = tuple(1 if i == idx else 0 for i in range(self.width))
            return {exp: Fraction(1)}
        if tok[0] == "(":
            self.take()
            value = self.expr()
            closing = self.peek()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            self.take()
            return value
        raise ParseError(f"expected a number, name, or '('", tok[2])

    def _mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        g = self.graded
        for ea, ca in a.items():
            room = self.degree - sum(ea[:g])
            for eb, cb in b.items():
                if sum(eb[:g]) > room:
                    continue
                exp = tuple(x + y for x, y in zip(ea, eb))
                out[exp] = out.get(exp, Fraction(0)) + ca * cb
        return {e: c for e, c in out.items() if c}


def parse_terms(text: str, names: tuple) -> dict:
    """Raw exponent-to-Fraction map over the given name table."""
    return _Parser(text, names).parse()


def _coefficient(ctx: RingContext, frac: Fraction, position: int):
    try:
        if frac.denominator == 1:
            return ctx.normalize(int(frac))
        return ctx.normalize(frac)
    except RingError as exc:
        raise ParseError(f"coefficient {frac} rejected: {exc}", position) from exc


def parse_series(text: str, ctx: RingContext, variables: tuple, degree: int,
                 pi_payload=None) -> TruncatedSeries:
    """A truncated series over ctx in the listed variables.

    pi appears as a name only when pi_payload is given; terms above the
    truncation degree are dropped, by every product as it is formed, so a
    power of a sum costs what its kept degrees need.
    """
    names = tuple(variables) + (("pi",) if pi_payload is not None else ())
    width = len(variables)
    raw = _Parser(text, names, degree, width).parse()
    terms: dict = {}
    for exp, frac in raw.items():
        var_exp = exp[:width]
        coeff = _coefficient(ctx, frac, 0)
        if pi_payload is not None and exp[width]:
            coeff = ctx.mul(coeff, (ctx.el(pi_payload) ** exp[width]).payload)
        if sum(var_exp) > degree:
            continue
        if var_exp in terms:
            coeff = ctx.add(terms[var_exp], coeff)
        terms[var_exp] = coeff
    return TruncatedSeries(ctx, tuple(variables), degree, terms)


def parse_integer_polynomial(text: str) -> tuple:
    """Coefficient tuple (c_0, ..., c_d) of an integer polynomial in t,
    constant first, leading coefficient last."""
    raw = parse_terms(text, ("t",))
    if not raw:
        raise ParseError("polynomial is zero", 0)
    coeffs = {}
    for (e,), frac in raw.items():
        if frac.denominator != 1:
            raise ParseError(f"coefficient {frac} is not an integer", 0)
        coeffs[e] = int(frac)
    top = max(coeffs)
    return tuple(coeffs.get(i, 0) for i in range(top + 1))
