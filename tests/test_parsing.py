import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgl import parsing
from fgl.parsing import ParseError, parse_series, parse_terms
from fgl.rings import EisensteinExtension, RationalField


def _counting(monkeypatch, owner, name):
    """Count the calls to owner.name for the rest of the test."""
    calls = [0]
    inner = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("base, e", [("1 + x - 2*y", 9), ("1/2*x + 3", 6), ("x*y", 5)])
def test_power_is_the_repeated_product(base, e):
    names = ("x", "y")
    assert parse_terms(f"({base})^{e}", names) == parse_terms("*".join([f"({base})"] * e), names)
    assert parse_terms(f"({base})^0", names) == {(0, 0): Fraction(1)}


def test_power_costs_about_two_products_per_exponent_bit(monkeypatch):
    calls = _counting(monkeypatch, parsing._Parser, "_mul")
    e = 10 ** 5
    assert parse_terms(f"T^{e}", ("T",)) == {(e,): Fraction(1)}
    assert calls[0] <= 2 * e.bit_length()
    with pytest.raises(ParseError, match="expected int"):
        parse_terms("T^-1", ("T",))


def test_pi_power_costs_about_two_products_per_exponent_bit(monkeypatch):
    E = EisensteinExtension(5, 40, (-5, 0, 1))
    pi = E.uniformizer().payload
    want = E.int_payload(3)
    for _ in range(17):
        want = E.mul(want, pi)
    got = parse_series("3*pi^17*T", E, ("T",), 2, pi_payload=pi)
    assert dict(got.terms) == {(1,): want}
    calls = _counting(monkeypatch, E, "mul")
    e = 10 ** 5
    # pi^e vanishes at precision 40, so the term drops out
    assert dict(parse_series(f"T + pi^{e}*T^2", E, ("T",), 2, pi_payload=pi).terms) == {
        (1,): E.int_payload(1)}
    assert calls[0] <= 2 * e.bit_length() + 2


def test_truncated_power_of_a_sum_keeps_only_the_kept_degrees(monkeypatch):
    sizes = []
    inner = parsing._Parser._mul

    def recorded(self, a, b):
        out = inner(self, a, b)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(parsing._Parser, "_mul", recorded)
    e = 2000
    got = parse_series(f"(1+T)^{e}", RationalField(), ("T",), 4)
    assert dict(got.terms) == {(k,): Fraction(math.comb(e, k)) for k in range(5)}
    # every product holds degrees 0..4 only, and there are about two per bit
    assert max(sizes) <= 5
    assert len(sizes) <= 2 * e.bit_length()


_EXPRESSIONS = st.recursive(
    st.sampled_from(["x", "y", "pi", "1", "2", "1/3", "-x"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(inner, st.integers(0, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(_EXPRESSIONS, st.integers(0, 4))
def test_truncated_parse_is_the_truncated_full_expansion(text, degree):
    names = ("x", "y", "pi")
    full = parse_terms(text, names)
    # the degree counts x and y only; pi is a constant
    want = {e: c for e, c in full.items() if e[0] + e[1] <= degree}
    got = parsing._Parser(text, names, degree, 2).parse()
    assert {e: c for e, c in got.items() if e[0] + e[1] <= degree} == want
