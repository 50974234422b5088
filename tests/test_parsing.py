from fractions import Fraction

import pytest

from fgl import parsing
from fgl.parsing import ParseError, parse_series, parse_terms
from fgl.rings import EisensteinExtension


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
