import random

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgl.rings import (
    EisensteinExtension,
    IntegerRing,
    NotAUnit,
    PadicIntegers,
    RationalField,
)
from fgl.series import SeriesError, TruncatedSeries

Q = RationalField()


# ---------------------------------------------------------------------------
# independent reversion oracle: [T^n] g = (1/n) [w^(n-1)] (w/f(w))^n,
# written against plain dicts so it shares no code with the series module


def _poly_mul(a, b, N):
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            if i + j <= N:
                out[i + j] = out.get(i + j, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def _poly_inv(a, N):
    assert a.get(0) == 1
    inv = {0: Fraction(1)}
    for n in range(1, N + 1):
        s = Fraction(0)
        for k in range(1, n + 1):
            s += a.get(k, Fraction(0)) * inv.get(n - k, Fraction(0))
        inv[n] = -s
    return inv


def lagrange_invert(f, N):
    base = {k - 1: v for k, v in f.items()}
    ratio = _poly_inv(base, N)
    g = {}
    power = {0: Fraction(1)}
    for n in range(1, N + 1):
        power = _poly_mul(power, ratio, N)
        g[n] = power.get(n - 1, Fraction(0)) / n
    return {k: v for k, v in g.items() if v}


def test_oracle_matches_catalan_numbers():
    g = lagrange_invert({1: Fraction(1), 2: Fraction(-1)}, 8)
    assert g == {n: Fraction(comb(2 * (n - 1), n - 1), n) for n in range(1, 9)}


def test_oracle_matches_exponential():
    lg = {k: Fraction((-1) ** (k + 1), k) for k in range(1, 9)}
    assert lagrange_invert(lg, 8) == {
        n: Fraction(1, factorial(n)) for n in range(1, 9)
    }


# frozen from the oracle for f = T + 2T^2 - 3T^3 + T^5 at N = 8
REVERSION_FROZEN = {
    1: 1, 2: -2, 3: 11, 4: -70, 5: 502, 6: -3850, 7: 30924, 8: -256794,
}


def _series(terms, N=8, variables=("T",), ctx=Q):
    return TruncatedSeries(ctx, variables, N, {(k,): v for k, v in terms.items()})


def test_compositional_inverse_against_frozen_oracle():
    f = _series({1: 1, 2: 2, 3: -3, 5: 1})
    g = f.compositional_inverse()
    assert {e[0]: c for e, c in g.terms.items()} == {
        k: Fraction(v) for k, v in REVERSION_FROZEN.items()
    }


def test_compositional_inverse_random_against_oracle():
    rng = random.Random(515)
    for _ in range(25):
        coeffs = {1: Fraction(1)}
        for k in range(2, 7):
            coeffs[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        f = _series(coeffs, N=6)
        expected = lagrange_invert(coeffs, 6)
        g = f.compositional_inverse()
        assert {e[0]: c for e, c in g.terms.items()} == expected


def test_compositional_inverse_is_an_involution():
    rng = random.Random(99)
    for _ in range(10):
        coeffs = {1: Fraction(1)}
        for k in range(2, 8):
            coeffs[k] = Fraction(rng.randint(-5, 5))
        f = _series(coeffs)
        assert f.compositional_inverse().compositional_inverse() == f


def test_compositional_inverse_with_unit_slope():
    # over Q any nonzero slope reverts; 2T + T^2 has inverse T/2 - T^2/8 + ...
    g = _series({1: 2, 2: 1}, N=3).compositional_inverse()
    assert g.terms == {(1,): Fraction(1, 2), (2,): Fraction(-1, 8),
                       (3,): Fraction(1, 16)}


def test_compositional_inverse_rejections():
    with pytest.raises(NotAUnit):
        TruncatedSeries(IntegerRing(), ("T",), 4, {(1,): 2}).compositional_inverse()
    with pytest.raises(SeriesError):
        _series({0: 1, 1: 1}).compositional_inverse()


# ---------------------------------------------------------------------------
# ring-series arithmetic against plain integers


def test_padic_series_products_match_integer_model():
    Z5 = PadicIntegers(5, 6)
    mod = 5**6
    rng = random.Random(1112)
    for _ in range(30):
        a = {(k,): rng.randrange(mod) for k in range(0, 5)}
        b = {(k,): rng.randrange(mod) for k in range(0, 5)}
        sa = TruncatedSeries(Z5, ("T",), 4, dict(a))
        sb = TruncatedSeries(Z5, ("T",), 4, dict(b))
        prod = sa * sb
        for n in range(0, 5):
            want = sum(a.get((i,), 0) * b.get((n - i,), 0) for i in range(n + 1))
            got = prod.terms.get((n,), 0)
            assert got == want % mod


def test_substitution_is_associative():
    rng = random.Random(31)
    for _ in range(10):
        def rand():
            coeffs = {(1,): Fraction(rng.randint(1, 4))}
            for k in range(2, 6):
                coeffs[(k,)] = Fraction(rng.randint(-6, 6))
            return TruncatedSeries(Q, ("T",), 5, coeffs)

        f, g, h = rand(), rand(), rand()
        left = f.substitute_single(g).substitute_single(h)
        right = f.substitute_single(g.substitute_single(h))
        assert left == right


# rings over which the N < q tolerance lemma composes endomorphisms
COMPOSITION_RINGS = {
    "Z5": PadicIntegers(5, 6),
    "t2-5": EisensteinExtension(5, 6, (-5, 0, 1)),
    "t2-10": EisensteinExtension(5, 6, (-10, 0, 1)),
}


@st.composite
def _composable(draw, ctx, N):
    """A one-variable series with zero constant term, at most five terms."""
    width = ctx.e
    degrees = draw(st.lists(st.integers(1, N), max_size=5, unique=True))
    raw = st.tuples(*[st.integers(-5**5, 5**5)] * width)
    terms = {}
    for k in degrees:
        c = ctx.normalize(draw(raw) if width > 1 else draw(raw)[0])
        if not ctx.is_zero(c):
            terms[(k,)] = c
    return TruncatedSeries(ctx, ("T",), N, terms)


@pytest.mark.parametrize("ring", sorted(COMPOSITION_RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_composition_is_associative(ring, data):
    ctx = COMPOSITION_RINGS[ring]
    N = data.draw(st.integers(1, 4))
    A, B, C = (data.draw(_composable(ctx, N)) for _ in range(3))
    left = A.substitute_single(B).substitute_single(C)
    right = A.substitute_single(B.substitute_single(C))
    assert left == right

    def by_table(f, g):  # the term dicts that verify_action compares
        return TruncatedSeries(ctx, g.variables, N, f.composed_terms({f.variables[0]: g}))

    BC = by_table(B, C)
    assert BC == B.substitute_single(C)
    assert by_table(A, BC) == right
    assert by_table(by_table(A, B), C) == left


def test_substitution_requires_no_constant_term():
    f = _series({1: 1, 2: 1})
    with pytest.raises(SeriesError):
        f.substitute_single(_series({0: 1, 1: 1}))


def test_two_variable_substitution_and_symmetry():
    F = TruncatedSeries(Q, ("x", "y"), 4, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    X = TruncatedSeries.variable(Q, ("x", "y"), 4, "x")
    Y = TruncatedSeries.variable(Q, ("x", "y"), 4, "y")
    assert F.substitute({"x": Y, "y": X}) == F
    collapsed = F.substitute({"x": X, "y": X})
    assert collapsed.terms == {(1, 0): Fraction(2), (2, 0): Fraction(1)}


def test_derivative_product_rule():
    rng = random.Random(8)
    for _ in range(10):
        a = TruncatedSeries(
            Q, ("x", "y"), 5,
            {(i, j): Fraction(rng.randint(-4, 4))
             for i in range(3) for j in range(3)},
        )
        b = TruncatedSeries(
            Q, ("x", "y"), 5,
            {(i, j): Fraction(rng.randint(-4, 4))
             for i in range(3) for j in range(3)},
        )
        lhs = (a * b).derivative("x").truncate(3)
        rhs = (a.derivative("x") * b + a * b.derivative("x")).truncate(3)
        assert lhs == rhs


def test_multiplicative_inverse():
    f = _series({0: 1, 1: -1})
    inv = f.multiplicative_inverse()
    # geometric series
    assert inv.terms == {(k,): Fraction(1) for k in range(0, 9)}
    with pytest.raises(NotAUnit):
        _series({1: 1}).multiplicative_inverse()


def test_truncation_drops_high_terms():
    f = _series({1: 1, 5: 7})
    t = f.truncate(3)
    assert t.trunc_degree == 3
    assert t.terms == {(1,): Fraction(1)}


def test_pow_matches_repeated_multiplication():
    f = _series({1: 1, 2: 3}, N=6)
    assert f**3 == f * f * f
    assert f**0 == TruncatedSeries.constant(Q, ("T",), 6, 1)


def test_json_round_trip():
    Z5 = PadicIntegers(5, 4)
    f = TruncatedSeries(Z5, ("T",), 5, {(1,): 5, (3,): 124, (5,): 1})
    again = TruncatedSeries.from_json(f.to_json())
    assert again == f
    assert again.ctx.key() == Z5.key()

    g = _series({1: Fraction(1, 3), 4: -2})
    assert TruncatedSeries.from_json(g.to_json()) == g


def test_embed_into_more_variables():
    f = _series({1: 1, 2: 4})
    wide = f.embed(("T", "u"))
    assert wide.terms == {(1, 0): Fraction(1), (2, 0): Fraction(4)}
    with pytest.raises(SeriesError):
        f.embed(("u",))
